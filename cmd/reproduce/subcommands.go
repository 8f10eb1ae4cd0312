package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/npb"
	"repro/internal/powerpack"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/trace"
)

// A subcommand defines its flags on fs and returns the body to run once
// they are parsed; the body writes its results to stdout.
type subcommand func(fs *flag.FlagSet) func(stdout io.Writer) error

// subcommands are the study drivers beside the artifact generator. grid
// and run compile their flags into runner jobs and simulate them as one
// sweep through experiments.Options.Sweep, the path the artifacts use.
var subcommands = map[string]subcommand{
	"grid":  grid,
	"run":   run,
	"power": power,
}

// usageError is a body's rejection of a flag combination: it exits 2
// with the usage, as a flag the parser rejects does.
type usageError string

func (e usageError) Error() string { return string(e) }

// runSubcommand parses args into the named subcommand's flags and runs
// it, returning the process exit code: 2 for a flag error, 1 for a
// failed run.
func runSubcommand(name string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reproduce "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	body := subcommands[name](fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := body(stdout); err != nil {
		fmt.Fprintf(stderr, "reproduce %s: %v\n", name, err)
		var ue usageError
		if errors.As(err, &ue) {
			fs.Usage()
			return 2
		}
		return 1
	}
	return 0
}

// grid sweeps arbitrary code × class × rank-count × frequency grids, with
// CSV output for plotting:
//
//	reproduce grid -codes FT,CG -classes W,A -ranks 4,8,16 -freqs 600,1000,1400
//	reproduce grid -codes FT -classes C -ranks 8 -freqs all -auto -csv ft.csv
func grid(fs *flag.FlagSet) func(io.Writer) error {
	codes := fs.String("codes", "FT", "comma-separated benchmark codes ("+codeUsage()+")")
	classes := fs.String("classes", "W", "comma-separated problem classes")
	ranksFlag := fs.String("ranks", "8", "comma-separated rank counts (0 = paper count)")
	freqs := fs.String("freqs", "all", "comma-separated MHz values, or 'all'")
	auto := fs.Bool("auto", false, "also run the CPUSPEED daemon")
	topology := fs.String("topology", "single", "interconnect: single | two-tier")
	csvPath := fs.String("csv", "", "write results to this CSV file")
	return func(stdout io.Writer) error {
		cfg := core.DefaultConfig()
		switch *topology {
		case "single":
		case "two-tier":
			cfg.Net.Topology = netsim.TwoTier
			cfg.Net.TwoTier = netsim.DefaultTwoTier()
		default:
			return fmt.Errorf("unknown topology %q", *topology)
		}
		var fMHz []dvs.MHz
		if *freqs == "all" {
			fMHz = cfg.Node.Table.Frequencies()
		} else {
			for _, s := range strings.Split(*freqs, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil {
					return err
				}
				fMHz = append(fMHz, dvs.MHz(v))
			}
		}

		// Each workload's rows are its no-DVS baseline, one EXTERNAL row
		// per listed frequency except the top (there EXTERNAL is NoDVS)
		// and optionally the daemon; base[i] is job i's baseline row.
		var jobs []runner.Job
		var base []int
		add := func(spec npb.Spec, strat core.StrategySpec, b int) error {
			j, err := cliJob(spec, strat, cfg)
			if err != nil {
				return err
			}
			jobs, base = append(jobs, j), append(base, b)
			return nil
		}
		for _, code := range splitList(*codes) {
			for _, cl := range splitList(*classes) {
				for _, rs := range splitList(*ranksFlag) {
					n, err := strconv.Atoi(rs)
					if err != nil {
						return err
					}
					spec, b := npb.Spec{Code: code, Class: cl, Ranks: n}, len(jobs)
					if err := add(spec, core.StrategySpec{Kind: "none"}, b); err != nil {
						return err
					}
					for _, f := range fMHz {
						if f == cfg.Node.Table.Top().Frequency {
							continue
						}
						if err := add(spec, core.StrategySpec{Kind: "external", FreqMHz: float64(f)}, b); err != nil {
							return err
						}
					}
					if *auto {
						if err := add(spec, core.StrategySpec{Kind: "daemon"}, b); err != nil {
							return err
						}
					}
				}
			}
		}
		// One sweep on a GOMAXPROCS engine: the grid fans out across
		// cores and repeated cells hit the memo cache.
		results, err := experiments.Options{}.Sweep(jobs)
		if err != nil {
			return err
		}

		t := report.NewTable("NEMO sweep", "workload", "setting", "time s", "energy J", "avg W",
			"norm delay", "norm energy")
		for i, r := range results {
			n := core.Normalize(r, results[base[i]])
			t.AddRow(r.Name, r.Strategy,
				fmt.Sprintf("%.2f", r.Elapsed.Seconds()),
				fmt.Sprintf("%.0f", r.Energy),
				fmt.Sprintf("%.1f", r.AvgPower()),
				report.Norm(n.Delay), report.Norm(n.Energy))
		}
		fmt.Fprintln(stdout, t.String())
		if *csvPath == "" {
			return nil
		}
		return writeFile(stdout, *csvPath, t.WriteCSV)
	}
}

// run simulates one benchmark under one strategy and prints the energy,
// delay and per-node detail. Beside the registered strategies, -strategy
// takes two pseudo-strategies: "internal" (the §5.3 source-instrumented
// FT/CG variants, really a workload selection) and "auto-tune" (the X1
// middleware):
//
//	reproduce run -code FT -strategy external -freq 600
//	reproduce run -code CG -strategy internal -high 1200 -low 800
//	reproduce run -code FT -strategy auto-tune
//	reproduce run -code CG -trace -baseline
func run(fs *flag.FlagSet) func(io.Writer) error {
	code := fs.String("code", "FT", "benchmark code ("+codeUsage()+")")
	classFlag := fs.String("class", "C", "problem class (S W A B C)")
	ranks := fs.Int("ranks", 0, "rank count (0 = the paper's count for the code)")
	strategy := fs.String("strategy", "none", strategyUsage("internal", "auto-tune"))
	freq := fs.Float64("freq", 600, "external: static frequency in MHz")
	version := fs.String("daemon-version", "1.2.1", "daemon: cpuspeed version (1.1 | 1.2.1)")
	budget := fs.Float64("budget", 200, "powercap: cluster budget in watts")
	high := fs.Float64("high", 1400, "internal: high speed in MHz")
	low := fs.Float64("low", 600, "internal: low speed in MHz")
	baseline := fs.Bool("baseline", false, "also run the 1400 MHz baseline and print normalized values")
	traceFlag := fs.Bool("trace", false, "collect and print an MPE-style trace")
	return func(stdout io.Writer) error {
		cfg := core.DefaultConfig()
		spec := npb.Spec{Code: *code, Class: *classFlag, Ranks: *ranks, HighMHz: *high, LowMHz: *low}
		strat := core.StrategySpec{Kind: *strategy, FreqMHz: *freq, Preset: *version, BudgetWatts: *budget}
		if strat.Kind == "internal" {
			spec.Variant, strat.Kind = "internal", "none"
		}

		if strat.Kind == "auto-tune" {
			switch {
			case *traceFlag:
				return usageError("-trace does not apply to -strategy auto-tune")
			case *baseline:
				return usageError("-baseline does not apply to -strategy auto-tune")
			}
			w, err := spec.Build()
			if err != nil {
				return err
			}
			res, err := experiments.Options{Config: cfg}.Tune(w)
			if err != nil {
				return err
			}
			for _, line := range res.Schedule.Rationale {
				fmt.Fprintln(stdout, "auto-tune:", line)
			}
			fmt.Fprintf(stdout, "%s auto-tuned: delay %.3f, energy %.3f (%s saving)\n",
				res.Tuned.Name, res.Normalized.Delay, res.Normalized.Energy,
				report.Pct(1-res.Normalized.Energy))
			return nil
		}

		j, err := cliJob(spec, strat, cfg)
		if err != nil {
			return err
		}
		var log *trace.Log
		if *traceFlag {
			log = trace.New(j.Workload.Ranks)
			j.Config.Tracer = log
		}
		jobs := []runner.Job{j}
		if *baseline {
			b, err := cliJob(npb.Spec{Code: *code, Class: *classFlag, Ranks: *ranks}, core.StrategySpec{Kind: "none"}, cfg)
			if err != nil {
				return err
			}
			jobs = append(jobs, b)
		}
		results, err := experiments.Options{}.Sweep(jobs)
		if err != nil {
			return err
		}

		res := results[0]
		fmt.Fprintf(stdout, "%s under %s: time-to-solution %.2fs, cluster energy %.0f J (avg %.1f W, %d DVS transitions)\n",
			res.Name, res.Strategy, res.Elapsed.Seconds(), res.Energy, res.AvgPower(), res.Transitions)
		t := report.NewTable("per-node detail", "node", "energy J", "CPU J", "mem J", "NIC J", "base J", "compute s", "comm s")
		for i, e := range res.NodeEnergy {
			st := res.RankStats[i]
			t.AddRow(fmt.Sprintf("%d", i),
				fmt.Sprintf("%.0f", e.Total()), fmt.Sprintf("%.0f", e.CPU),
				fmt.Sprintf("%.0f", e.Memory), fmt.Sprintf("%.0f", e.NIC), fmt.Sprintf("%.0f", e.Base),
				fmt.Sprintf("%.2f", st.Compute.Seconds()), fmt.Sprintf("%.2f", st.CommTime().Seconds()))
		}
		fmt.Fprintln(stdout, t.String())
		if *baseline {
			nr := core.Normalize(res, results[1])
			fmt.Fprintf(stdout, "normalized to 1400 MHz: delay %.3f (%s), energy %.3f (%s saving)\n",
				nr.Delay, report.Pct(nr.Delay-1), nr.Energy, report.Pct(1-nr.Energy))
		}
		if log != nil {
			fmt.Fprintln(stdout, log.Render(100))
		}
		return nil
	}
}

// power runs a benchmark on the fully instrumented cluster — ACPI
// batteries, Baytech strip, power-profile collector — and emits the
// measurement plus the aligned per-node power profile, the PowerPack
// data-collection workflow end to end (§4.2–4.3). An instrumented result
// is not a runner job, so it calls core.RunInstrumented directly:
//
//	reproduce power -code FT -class B
//	reproduce power -code FT -profile ft.csv -json ft.json
//	reproduce power -code FT -strategy powercap -budget 200
func power(fs *flag.FlagSet) func(io.Writer) error {
	code := fs.String("code", "FT", "benchmark code ("+codeUsage()+")")
	classFlag := fs.String("class", "B", "problem class")
	ranks := fs.Int("ranks", 0, "rank count (0 = paper count)")
	strategy := fs.String("strategy", "none", strategyUsage())
	freq := fs.Float64("freq", 600, "external: MHz")
	budget := fs.Float64("budget", 200, "powercap: cluster budget in watts")
	sample := fs.Duration("sample", time.Second, "profile sampling period")
	warmup := fs.Duration("warmup", 5*time.Minute, "pre-measurement idle (the paper used ~5 min)")
	profilePath := fs.String("profile", "", "write the power profile CSV here")
	jsonPath := fs.String("json", "", "write the measurement JSON here")
	return func(stdout io.Writer) error {
		cfg := core.DefaultConfig()
		w, err := npb.Spec{Code: *code, Class: *classFlag, Ranks: *ranks}.Build()
		if err != nil {
			return err
		}
		strat, err := cliStrategy(core.StrategySpec{Kind: *strategy, FreqMHz: *freq, BudgetWatts: *budget}, cfg.Node.Table, w.Ranks)
		if err != nil {
			return err
		}
		res, err := core.RunInstrumented(w, strat, cfg, *sample, *warmup)
		if err != nil {
			return err
		}

		m := res.Measurement
		fmt.Fprintf(stdout, "%s under %s: %.2f s\n", res.Name, res.Strategy, res.Elapsed.Seconds())
		fmt.Fprintf(stdout, "  ACPI batteries : %.1f J\n", m.ACPI)
		fmt.Fprintf(stdout, "  Baytech strip  : %.1f J\n", m.Baytech)
		fmt.Fprintf(stdout, "  ground truth   : %.1f J\n", m.True)
		fmt.Fprintf(stdout, "  ACPI error     : %.2f%% (quantization bound %.1f J for %d nodes)\n",
			(m.ACPI-m.True)/m.True*100, powerpack.MaxQuantizationError(w.Ranks), w.Ranks)

		rows := powerpack.Align(res.Profile, w.Ranks)
		t := report.NewTable("cluster power profile (aligned)", "t", "total W", "min node W", "max node W")
		step := len(rows)/12 + 1
		for i := 0; i < len(rows); i += step {
			row := rows[i]
			lo, hi := row.Watts[0], row.Watts[0]
			for _, v := range row.Watts {
				lo, hi = min(lo, v), max(hi, v)
			}
			t.AddRow(fmt.Sprintf("%.0fs", row.At.Seconds()),
				fmt.Sprintf("%.1f", row.Total), fmt.Sprintf("%.1f", lo), fmt.Sprintf("%.1f", hi))
		}
		fmt.Fprintln(stdout, t.String())

		if *profilePath != "" {
			err := writeFile(stdout, *profilePath, func(f io.Writer) error {
				return powerpack.WriteSamplesCSV(f, res.Profile)
			})
			if err != nil {
				return err
			}
		}
		if *jsonPath != "" {
			return writeFile(stdout, *jsonPath, func(f io.Writer) error {
				return powerpack.WriteMeasurementJSON(f, m)
			})
		}
		return nil
	}
}

// cliJob compiles one cell — workload flags and a -strategy value — into
// a runner job through the workload and strategy registries, so unknown
// codes and off-table frequencies reject with the messages dvsd gives.
func cliJob(spec npb.Spec, strat core.StrategySpec, cfg core.Config) (runner.Job, error) {
	w, err := spec.Build()
	if err != nil {
		return runner.Job{}, err
	}
	s, err := cliStrategy(strat, cfg.Node.Table, w.Ranks)
	if err != nil {
		return runner.Job{}, err
	}
	return runner.Job{Workload: w, Strategy: s, Config: cfg}, nil
}

// cliStrategy decodes a -strategy value against the cluster's operating
// points and rank count, keeping the command line's historical spellings:
// "none" for nodvs, and daemon presets without their "v" ("1.2.1" ≡
// "v1.2.1").
func cliStrategy(s core.StrategySpec, table dvs.Table, ranks int) (core.Strategy, error) {
	if s.Kind == "" || s.Kind == "none" {
		s.Kind = "nodvs"
	}
	if s.Preset != "" && !strings.HasPrefix(s.Preset, "v") {
		s.Preset = "v" + s.Preset
	}
	return core.DecodeStrategy(s, table, ranks)
}

// writeFile writes one output file, checking the close, and reports it.
func writeFile(stdout io.Writer, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", path)
	return nil
}

// codeUsage and strategyUsage render the -code and -strategy value sets
// from the benchmark registry and the strategy table, so every benchmark
// and strategy is listed (and selectable) here. extra names the caller's
// pseudo-strategies.
func codeUsage() string { return strings.Join(npb.Codes(), " ") }

func strategyUsage(extra ...string) string {
	names := append([]string{"none"}, core.StrategyNames()...)
	return strings.Join(append(names, extra...), " | ")
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
