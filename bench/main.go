// Command bench is the repository's benchmark. It runs four closed-loop
// workloads, from the in-process reproduce grid to a sweep through the
// fleet gateway, checks every result against a direct core.Run reference,
// and prints the end-to-end metrics of an untraced phase and the
// per-layer breakdown of a traced one. See README.md.
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-runs N] [-out FILE]
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef describes a metric as BENCHMARK.json does. Bound is the share
// of the baseline median by which an end-to-end metric may worsen.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEndDefs are what a user of the system sees, measured untraced;
// the timings are rescaled to the reference host speed (see hostProbe).
// Their bounds are wide because, even rescaled, the quartile spread of
// ten runs reached 0.17 on the 2-vCPU Xeon VM the benchmark was defined
// on; allocation does not depend on the host.
var endToEndDefs = []metricDef{
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_cell", "KiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerDefs are measured in the traced phase; they have no bound.
var perLayerDefs = []metricDef{
	{Name: "core.cell_ms", Unit: "ms", Better: "lower"},
	{Name: "core.attach_ms", Unit: "ms", Better: "lower"},
	{Name: "core.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sim_run_share", Unit: "ratio", Better: "higher"},
	{Name: "core.ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "core.virtual_s_per_wall_s", Unit: "s/s", Better: "higher"},
	{Name: "core.serial_cells_per_s", Unit: "cells/s", Better: "higher"},
	{Name: "core.allocs_per_cell", Unit: "count", Better: "lower"},
	{Name: "core.alloc_kb_per_cell", Unit: "KiB", Better: "lower"},
	{Name: "runner.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "runner.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "runner.evictions", Unit: "count", Better: "lower"},
	{Name: "runner.coalesced", Unit: "count", Better: "higher"},
	{Name: "runner.cache_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.decode_us_per_record", Unit: "us", Better: "lower"},
	{Name: "sweep.first_record_ms", Unit: "ms", Better: "lower"},
	{Name: "server.simulate_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.simulate_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "server.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_depth_mean", Unit: "count", Better: "lower"},
	{Name: "server.shed", Unit: "count", Better: "lower"},
	{Name: "fleet.cell_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.gateway_self_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.route_wire_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.backend_share_max", Unit: "ratio", Better: "lower"},
	{Name: "fleet.retried", Unit: "count", Better: "lower"},
	{Name: "fleet.hedged", Unit: "count", Better: "lower"},
	{Name: "fleet.local", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "proc.heap_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "proc.host_speed", Unit: "ratio", Better: "higher"},
	{Name: "obs.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.spans_per_cell", Unit: "count", Better: "lower"},
	{Name: "obs.spans_dropped", Unit: "count", Better: "lower"},
}

const (
	// minOps is the fewest operations an untraced phase measures, so that
	// at least minBeyond of them lie above the reported p90.
	minOps = 100
	// setups is how many times a run sets its workload up; setup_s is the
	// median, which a single slow set-up does not move.
	setups = 5
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of a run's measurement, in seconds")
	trace := fs.Int("trace", -1, "0: end-to-end metrics; 1: per-layer metrics; -1: both")
	runs := fs.Int("runs", 1, "runs of each workload; run r uses seed+r")
	out := fs.String("out", "", "write every run's values, medians and quartiles to this JSON file")
	cmp := fs.Bool("compare", false, "compare the two -out files given as arguments")
	scratch := fs.String("scratch", ".bench_build", "directory for checkpoint journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two run files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	selected := workloads
	if *name != "" {
		w := workloadNamed(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	if *trace < -1 || *trace > 1 || *seconds < 0 || math.IsNaN(*seconds) || *runs < 1 {
		fmt.Fprintln(stderr, "bench: want -trace in {-1,0,1}, -seconds >= 0 and -runs >= 1")
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	probe := newHostProbe(time.Second)

	rf := newRunFile(*seed, *seconds)
	ok := true
	for r := 0; r < *runs; r++ {
		for _, w := range selected {
			o := options{seed: *seed + int64(r), seconds: *seconds, trace: *trace,
				minOps: minOps, setups: setups, scratch: *scratch, probe: probe}
			res, err := runWorkload(w, o)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			report(stdout, w, o, res)
			rf.add(res)
			ok = ok && res.correct()
		}
	}
	if *out != "" {
		rf.summarize()
		if err := rf.write(*out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "bench: wrote %s\n", *out)
	}
	if !ok {
		return 1
	}
	return 0
}

// report prints one run: the end-to-end table, the span table and the
// per-layer metrics, then the run's result as one JSON line.
func report(w io.Writer, wl *workload, o options, r *result) {
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  GOMAXPROCS=%d\n   %s\n",
		wl.name, o.seed, o.seconds, runtime.GOMAXPROCS(0), wl.why)
	fmt.Fprintf(w, "end-to-end (untraced, at reference host speed; the host ran at %.3f):\n", r.speed)
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, "  %-28s %14.4f %-8s (measured %.4f)\n", d.Name, r.e2e[d.Name], d.Unit, r.raw[d.Name])
	}
	fmt.Fprintf(w, "  %-28s %14.4f %s\n", "failed_frac", r.failedFrac, "ratio")
	fmt.Fprintf(w, "  %-28s %14d %s\n", "ops", r.ops, "count")
	if r.spans != nil {
		fmt.Fprintf(w, "spans (traced, %d ops):\n", r.tracedOps)
		printSpanTable(w, r.spans)
		fmt.Fprintln(w, "per-layer (traced):")
		for _, d := range perLayerDefs {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.Name, r.layer[d.Name], d.Unit)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	line := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if o.trace != 1 {
		addMetrics(line.Metrics, endToEndDefs, r.e2e)
	}
	if o.trace != 0 {
		addMetrics(line.Metrics, perLayerDefs, r.layer)
	}
	b, _ := json.Marshal(line) // addMetrics keeps every value finite, so this cannot fail
	fmt.Fprintf(w, "%s\n", b)
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func addMetrics(dst map[string]metricValue, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		dst[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, for run files.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
