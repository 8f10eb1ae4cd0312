package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// runFile is what -out writes: every run's value of every metric, with
// the median and quartiles of each, and the machine they came from.
type runFile struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Seconds    float64 `json:"seconds"`
	FirstSeed  int64   `json:"first_seed"`
	Runs       int     `json:"runs"`
	// Workloads maps workload → metric → series.
	Workloads map[string]map[string]*series `json:"workloads"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// failedDef is compared with a bound of 0: any failure is worse.
var failedDef = metricDef{Name: "failed_frac", Unit: "ratio", Better: "lower"}

func newRunFile(seed int64, seconds float64) *runFile {
	return &runFile{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Seconds:    seconds,
		FirstSeed:  seed,
		Workloads:  map[string]map[string]*series{},
	}
}

func (rf *runFile) add(r *result) {
	m := rf.Workloads[r.workload]
	if m == nil {
		m = map[string]*series{}
		rf.Workloads[r.workload] = m
	}
	put := func(d metricDef, v float64) {
		s := m[d.Name]
		if s == nil {
			s = &series{Unit: d.Unit}
			m[d.Name] = s
		}
		s.Values = append(s.Values, v)
	}
	for _, d := range endToEndDefs {
		put(d, r.e2e[d.Name])
	}
	put(failedDef, r.failedFrac)
	put(metricDef{Name: "ops", Unit: "count"}, float64(r.ops))
	if r.layer != nil {
		for _, d := range perLayerDefs {
			put(d, r.layer[d.Name])
		}
	}
}

func (rf *runFile) summarize() {
	for _, m := range rf.Workloads {
		for _, s := range m {
			s.Median = median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
			rf.Runs = max(rf.Runs, len(s.Values))
		}
	}
}

func (rf *runFile) write(path string) error {
	rf.CPU = cpuModel()
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRunFile(path string) (*runFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// verdict compares metric d between a baseline series a and a candidate
// b. change is the relative change of b's median from a's, signed so
// that positive is worse. The verdict is unresolved when either side's
// quartile spread, as a share of its median, is wider than the bound,
// except for setup_s: its set-ups last about a second, so its spread
// follows the host's drift more than the code, and it is judged on
// medians alone. A bound of 0 compares medians exactly.
func verdict(d metricDef, a, b *series) (change float64, v string) {
	if d.Bound == 0 {
		switch {
		case b.Median > a.Median:
			return b.Median - a.Median, "worse"
		case b.Median < a.Median:
			return b.Median - a.Median, "better"
		}
		return 0, "same"
	}
	if a.Median == 0 || b.Median == 0 {
		return 0, "unresolved"
	}
	change = (b.Median - a.Median) / a.Median
	if d.Better == "higher" {
		change = -change
	}
	spread := max((a.Q3-a.Q1)/a.Median, (b.Q3-b.Q1)/b.Median)
	switch {
	case spread > d.Bound && d.Name != "setup_s":
		return change, "unresolved"
	case change > d.Bound:
		return change, "worse"
	case change < -d.Bound:
		return change, "better"
	}
	return change, "same"
}

// compareFiles prints one row per workload × bounded metric and returns
// 1 if any row is worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRunFile(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := readRunFile(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-14s %-18s %14s %14s %9s %6s  %s\n", "workload", "metric", "median A", "median B", "change", "bound", "verdict")
	defs := append(append([]metricDef(nil), endToEndDefs...), failedDef)
	worse := false
	for _, w := range workloads {
		ma, mb := a.Workloads[w.name], b.Workloads[w.name]
		if ma == nil || mb == nil {
			continue
		}
		for _, d := range defs {
			sa, sb := ma[d.Name], mb[d.Name]
			if sa == nil || sb == nil {
				fmt.Fprintf(stdout, "%-14s %-18s %14s %14s %9s %6.2f  unresolved\n", w.name, d.Name, "-", "-", "-", d.Bound)
				continue
			}
			change, v := verdict(d, sa, sb)
			worse = worse || v == "worse"
			fmt.Fprintf(stdout, "%-14s %-18s %14.4f %14.4f %+8.1f%% %6.2f  %s\n",
				w.name, d.Name, sa.Median, sb.Median, 100*change, d.Bound, v)
		}
	}
	if worse {
		return 1
	}
	return 0
}
