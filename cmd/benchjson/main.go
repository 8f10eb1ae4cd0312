// Command benchjson runs the substrate benchmarks through `go test -bench`
// and writes a machine-readable JSON summary (ns/op, B/op, allocs/op per
// benchmark). It seeds the repo's performance trajectory: each perf PR
// captures a BENCH_<n>.json with before/after numbers, and CI publishes a
// fresh snapshot per run so regressions are diffable.
//
// Usage:
//
//	go run ./cmd/benchjson -out bench.json
//	go run ./cmd/benchjson -baseline old.json -out BENCH_7.json
//	go run ./cmd/benchjson -baseline old.json -fail-under 0.8 -out -   # CI gate
//
// With -baseline, each benchmark is emitted as {before, after, speedup}
// where speedup is baseline ns/op divided by current ns/op (>1 = faster).
// Adding -fail-under makes the run a regression gate: after writing the
// report it exits non-zero if any compared benchmark's speedup is below
// the threshold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// defaultBench selects the substrate benchmarks: the simulator's hot paths
// (kernel events, proc switch), the MPI layer over them, the daemon poll
// step, and one end-to-end cluster run per NPB code.
const defaultBench = "BenchmarkSimKernelEvents|BenchmarkSimProcSwitch|BenchmarkMPIPingPong|BenchmarkMPIAlltoall|BenchmarkDaemonDecision|BenchmarkFullRun"

// Result is one benchmark's measured costs.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Comparison pairs a baseline with the current run.
type Comparison struct {
	Before  *Result `json:"before,omitempty"`
	After   Result  `json:"after"`
	Speedup float64 `json:"speedup,omitempty"` // before.ns / after.ns
}

// Report is the file format, shared by plain and -baseline runs.
type Report struct {
	Goos       string                `json:"goos,omitempty"`
	Goarch     string                `json:"goarch,omitempty"`
	CPU        string                `json:"cpu,omitempty"`
	Benchtime  string                `json:"benchtime"`
	Count      int                   `json:"count"`
	Benchmarks map[string]Result     `json:"benchmarks,omitempty"`
	Compared   map[string]Comparison `json:"compared,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

func main() {
	bench := flag.String("bench", defaultBench, "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "100ms", "per-benchmark budget passed to -benchtime")
	count := flag.Int("count", 1, "repetitions; the best (lowest ns/op) of count runs is kept")
	pkg := flag.String("pkg", ".", "package to benchmark")
	out := flag.String("out", "bench.json", "output path ('-' for stdout)")
	baseline := flag.String("baseline", "", "prior benchjson output; emit before/after/speedup against it")
	failUnder := flag.Float64("fail-under", 0, "with -baseline: exit non-zero when any compared benchmark's speedup falls below this ratio (e.g. 0.9 = tolerate a 10% regression; 0 = never fail)")
	flag.Parse()
	if *failUnder < 0 {
		fatalf("invalid -fail-under %v: want >= 0", *failUnder)
	}
	if *failUnder > 0 && *baseline == "" {
		fatalf("-fail-under requires -baseline: there is no speedup without a before")
	}

	rep := &Report{Benchtime: *benchtime, Count: *count, Benchmarks: map[string]Result{}}
	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count), *pkg}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fatalf("go %s: %v\n%s", strings.Join(args, " "), err, raw)
	}
	parse(rep, string(raw))
	if len(rep.Benchmarks) == 0 {
		fatalf("no benchmarks matched %q", *bench)
	}

	var payload any = rep
	var compared *Report
	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		compared = compare(base, rep)
		payload = compared
	}
	buf, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatalf("write: %v", err)
		}
		fmt.Printf("wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	}
	// The gate runs after the report is written, so a failing run still
	// leaves the numbers on disk for inspection.
	if *failUnder > 0 {
		if slow := regressions(compared, *failUnder); len(slow) > 0 {
			fatalf("speedup below %v for: %s", *failUnder, strings.Join(slow, ", "))
		}
	}
}

// regressions lists compared benchmarks whose speedup is below the
// threshold, sorted for stable output. Benchmarks without a baseline
// entry have no speedup and cannot regress.
func regressions(rep *Report, threshold float64) []string {
	var slow []string
	for name, c := range rep.Compared {
		if c.Speedup > 0 && c.Speedup < threshold {
			slow = append(slow, fmt.Sprintf("%s (%.3fx)", name, c.Speedup))
		}
	}
	sort.Strings(slow)
	return slow
}

// parse fills rep from go test -bench output, keeping the fastest ns/op
// per benchmark when -count ran it more than once.
func parse(rep *Report, out string) {
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r := Result{NsPerOp: parseF(m[2]), BytesPerOp: parseF(m[3]), AllocsPerOp: parseF(m[4])}
		if prev, ok := rep.Benchmarks[m[1]]; !ok || r.NsPerOp < prev.NsPerOp {
			rep.Benchmarks[m[1]] = r
		}
	}
}

func parseF(s string) float64 {
	if s == "" {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		fatalf("bad number %q", s)
	}
	return v
}

func readReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compare merges a baseline report into the current one. Benchmarks
// missing from the baseline carry only their after numbers.
func compare(base, cur *Report) *Report {
	out := &Report{
		Goos: cur.Goos, Goarch: cur.Goarch, CPU: cur.CPU,
		Benchtime: cur.Benchtime, Count: cur.Count,
		Compared: map[string]Comparison{},
	}
	for name, after := range cur.Benchmarks {
		c := Comparison{After: after}
		if before, ok := base.Benchmarks[name]; ok {
			b := before
			c.Before = &b
			if after.NsPerOp > 0 {
				c.Speedup = round3(before.NsPerOp / after.NsPerOp)
			}
		}
		out.Compared[name] = c
	}
	return out
}

func round3(v float64) float64 { return float64(int64(v*1000+0.5)) / 1000 }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
