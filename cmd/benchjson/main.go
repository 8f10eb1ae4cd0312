// Command benchjson runs the substrate benchmarks through `go test -bench`
// and writes a machine-readable JSON summary (ns/op, B/op, allocs/op per
// benchmark). Each perf PR records a BENCH_<n>.json ledger with it, and
// CI gates every run's allocations against the newest ledger.
//
// Usage:
//
//	go run ./cmd/benchjson -out bench.json
//	go run ./cmd/benchjson -count 3 -baseline BENCH_<newest>.json -out bench.json   # CI gate
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
// -baseline is an allocation gate: after writing the report it exits
// non-zero if any compared benchmark's allocs/op is above the baseline's.
// On one Go version allocation counts are deterministic, so they are gated
// exactly. Timing on a shared machine is not, so speedups are reported and
// never gated.
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
// NPB code, and what every cached cell pays for: its content address,
// the wire encoding of its result and its share of the /sweep stream.
const defaultBench = "BenchmarkSimKernelEvents|BenchmarkSimProcSwitch|BenchmarkSimProcHandoff|BenchmarkMPIPingPong|BenchmarkMPIAlltoall|BenchmarkDaemonDecision|BenchmarkThermalIntegrator|BenchmarkFullRun|BenchmarkJobKey|BenchmarkWireResult|BenchmarkSweepStream"

// benchtime is the per-benchmark budget passed to go test -benchtime.
const benchtime = "100ms"

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

// Report is the file format, shared by plain and -baseline runs. Ledgers
// recorded while benchjson took host-speed readings also carry
// host_probe, baseline_host_probe and host_adjusted fields; loading
// ignores them.
type Report struct {
	Goos       string                `json:"goos,omitempty"`
	Goarch     string                `json:"goarch,omitempty"`
	CPU        string                `json:"cpu,omitempty"`
	Benchtime  string                `json:"benchtime"`
	Count      int                   `json:"count"`
	Benchmarks map[string]Result     `json:"benchmarks,omitempty"`
	Compared   map[string]Comparison `json:"compared,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

func main() {
	count := flag.Int("count", 1, "repetitions; each metric keeps its best (lowest) value over the count runs")
	out := flag.String("out", "bench.json", "output path ('-' for stdout)")
	baseline := flag.String("baseline", "", "prior benchjson output or compared ledger; emit before/after/speedup against it and fail on allocs/op growth")
	flag.Parse()

	rep := &Report{Benchtime: benchtime, Count: *count, Benchmarks: map[string]Result{}}
	args := []string{"test", "-run", "^$", "-bench", defaultBench, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(*count), "."}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fatalf("go %s: %v\n%s", strings.Join(args, " "), err, raw)
	}
	parse(rep, string(raw))
	if len(rep.Benchmarks) == 0 {
		fatalf("no benchmarks matched %q", defaultBench)
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
	// The gate runs after the report is written, so a failing run still
	// leaves the numbers on disk for inspection.
	if compared != nil {
		if grown := allocGrowth(compared); len(grown) > 0 {
			fatalf("allocs/op above the baseline for: %s", strings.Join(grown, ", "))
		}
	}
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
// benchmarks; its after values, the numbers it last measured, stand in.
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
		Compared: map[string]Comparison{},
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
