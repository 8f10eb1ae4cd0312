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
// A ledger's before column comes from the parent commit, measured in the
// same session on the same host: ns/op from two sessions on a shared
// machine differ by more than most changes do. Run benchjson in a second
// checkout of the parent into a scratch file, then pass that file as the
// baseline:
//
//	git worktree add /tmp/parent HEAD~1
//	(cd /tmp/parent && go run ./cmd/benchjson -count 5 -out /tmp/parent.json)
//	go run ./cmd/benchjson -count 5 -baseline /tmp/parent.json -out BENCH_<n>.json
//	git worktree remove /tmp/parent
//
// With -baseline, each benchmark is emitted as {before, after, speedup}
// where speedup is baseline ns/op divided by current ns/op (>1 = faster).
// The baseline may be a plain report or a compared ledger such as a
// committed BENCH_<n>.json, whose after values are then the baseline. A
// selected benchmark missing from the baseline is an error. A run with
// -baseline is also an allocation gate: after writing the report it exits
// non-zero if any compared benchmark's allocs/op is above the baseline's.
// On one Go version allocation counts are deterministic, so they are gated
// exactly. Timing on shared machines is not, so -fail-under gates speed
// only when asked: it fails the run if any compared benchmark's speedup is
// below the threshold.
//
// Every run also reads the host's speed with a fixed CPU probe, just
// before and just after the benchmarks, and writes both readings into the
// report. When the baseline carries readings too, a -baseline run prints
// each speedup divided by the host-speed ratio (this run's mean reading
// over the baseline's) and records it as host_adjusted, so a host that
// slowed between the two recordings does not read as a uniform
// regression. The adjusted figure is information only: no gate uses it.
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
// step, the node's thermal integrator, one end-to-end cluster run per
// NPB code, and what every cached cell pays for: its content address and
// the wire encoding of its result.
const defaultBench = "BenchmarkSimKernelEvents|BenchmarkSimProcSwitch|BenchmarkSimProcHandoff|BenchmarkMPIPingPong|BenchmarkMPIAlltoall|BenchmarkDaemonDecision|BenchmarkThermalIntegrator|BenchmarkFullRun|BenchmarkJobKey|BenchmarkWireResult"

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
	// HostAdjusted is Speedup divided by the host-speed ratio; zero when
	// either side has no host readings.
	HostAdjusted float64 `json:"host_adjusted,omitempty"`
}

// Report is the file format, shared by plain and -baseline runs. Host
// is this run's host-speed readings, BaselineHost the baseline's (in a
// compared ledger). Ledgers written before the probe existed have
// neither.
type Report struct {
	Goos         string                `json:"goos,omitempty"`
	Goarch       string                `json:"goarch,omitempty"`
	CPU          string                `json:"cpu,omitempty"`
	Benchtime    string                `json:"benchtime"`
	Count        int                   `json:"count"`
	Host         *HostProbe            `json:"host_probe,omitempty"`
	BaselineHost *HostProbe            `json:"baseline_host_probe,omitempty"`
	Benchmarks   map[string]Result     `json:"benchmarks,omitempty"`
	Compared     map[string]Comparison `json:"compared,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

func main() {
	bench := flag.String("bench", defaultBench, "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "100ms", "per-benchmark budget passed to -benchtime")
	count := flag.Int("count", 1, "repetitions; each metric keeps its best (lowest) value over the count runs")
	pkg := flag.String("pkg", ".", "package to benchmark")
	out := flag.String("out", "bench.json", "output path ('-' for stdout)")
	baseline := flag.String("baseline", "", "prior benchjson output or compared ledger; emit before/after/speedup against it")
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
	probe := newHostProbe()
	rep.Host = &HostProbe{BeforePerS: round3(probe.rate(probeSpan))}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fatalf("go %s: %v\n%s", strings.Join(args, " "), err, raw)
	}
	rep.Host.AfterPerS = round3(probe.rate(probeSpan))
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
		compared, err = compare(base, rep)
		if err != nil {
			fatalf("baseline %s: %v", *baseline, err)
		}
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
	if compared != nil {
		printAdjusted(compared)
	}
	// The gates run after the report is written, so a failing run still
	// leaves the numbers on disk for inspection.
	if compared != nil {
		if grown := allocGrowth(compared); len(grown) > 0 {
			fatalf("allocs/op above the baseline for: %s", strings.Join(grown, ", "))
		}
	}
	if *failUnder > 0 {
		if slow := regressions(compared, *failUnder); len(slow) > 0 {
			fatalf("speedup below %v for: %s", *failUnder, strings.Join(slow, ", "))
		}
	}
}

// printAdjusted prints each speedup beside its host-adjusted value, on
// stderr so that -out - keeps stdout to the report.
func printAdjusted(rep *Report) {
	if rep.Host == nil || rep.BaselineHost == nil {
		fmt.Fprintln(os.Stderr, "benchjson: the baseline has no host-speed readings; speedups are not adjusted")
		return
	}
	fmt.Fprintf(os.Stderr, "host speed %.1f/s against the baseline's %.1f/s (ratio %.3f)\n",
		rep.Host.speed(), rep.BaselineHost.speed(), rep.Host.speed()/rep.BaselineHost.speed())
	names := make([]string, 0, len(rep.Compared))
	for name := range rep.Compared {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := rep.Compared[name]
		fmt.Fprintf(os.Stderr, "  %-40s speedup %6.3f  host-adjusted %6.3f\n", name, c.Speedup, c.HostAdjusted)
	}
}

// regressions lists compared benchmarks whose speedup is below the
// threshold, sorted for stable output.
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

// allocGrowth lists compared benchmarks that allocate more per op than
// their baseline, sorted for stable output.
func allocGrowth(rep *Report) []string {
	var grown []string
	for name, c := range rep.Compared {
		if c.Before != nil && c.After.AllocsPerOp > c.Before.AllocsPerOp {
			grown = append(grown, fmt.Sprintf("%s (%v -> %v)", name, c.Before.AllocsPerOp, c.After.AllocsPerOp))
		}
	}
	sort.Strings(grown)
	return grown
}

// parse fills rep from go test -bench output. When -count ran a benchmark
// more than once, each metric keeps its lowest value: a stray runtime
// allocation in one repetition does not trip the allocation gate, while a
// real regression shows in every repetition.
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
		if prev, ok := rep.Benchmarks[m[1]]; ok {
			r.NsPerOp = min(r.NsPerOp, prev.NsPerOp)
			r.BytesPerOp = min(r.BytesPerOp, prev.BytesPerOp)
			r.AllocsPerOp = min(r.AllocsPerOp, prev.AllocsPerOp)
		}
		rep.Benchmarks[m[1]] = r
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

// readReport loads a baseline. A compared ledger carries no plain
// benchmarks; its after values, the numbers it last measured, stand in,
// and its host readings are those of the same run.
func readReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		rep.Benchmarks = make(map[string]Result, len(rep.Compared))
		for name, c := range rep.Compared {
			rep.Benchmarks[name] = c.After
		}
	}
	return &rep, nil
}

// compare merges a baseline report into the current one. Every current
// benchmark must have a baseline entry: a missing one is an error, since
// a gate that skips it would pass without measuring anything.
func compare(base, cur *Report) (*Report, error) {
	out := &Report{
		Goos: cur.Goos, Goarch: cur.Goarch, CPU: cur.CPU,
		Benchtime: cur.Benchtime, Count: cur.Count,
		Host: cur.Host, BaselineHost: base.Host,
		Compared: map[string]Comparison{},
	}
	hostRatio := 0.0
	if cur.Host != nil && base.Host != nil && base.Host.speed() > 0 {
		hostRatio = cur.Host.speed() / base.Host.speed()
	}
	var missing []string
	for name, after := range cur.Benchmarks {
		before, ok := base.Benchmarks[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		c := Comparison{After: after, Before: &before}
		if after.NsPerOp > 0 {
			c.Speedup = round3(before.NsPerOp / after.NsPerOp)
			if hostRatio > 0 {
				c.HostAdjusted = round3(before.NsPerOp / after.NsPerOp / hostRatio)
			}
		}
		out.Compared[name] = c
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("no baseline entry for %s", strings.Join(missing, ", "))
	}
	return out, nil
}

func round3(v float64) float64 { return float64(int64(v*1000+0.5)) / 1000 }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
