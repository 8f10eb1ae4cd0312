// Command reproduce regenerates every table and figure of the paper's
// evaluation on the simulated NEMO cluster and prints them with deltas
// against the published values. Three subcommands drive ad-hoc studies
// on the same sweep path: grid (code × class × ranks × frequency grids),
// run (one benchmark under one strategy) and power (one instrumented run
// with its power profile).
//
// Usage:
//
//	reproduce                    # everything, class C
//	reproduce -only t2,f11       # selected artifacts
//	reproduce -class W           # faster, smaller problem class
//	reproduce -workers 8         # sweep-engine parallelism (0 = all cores)
//	reproduce -csv out/          # additionally write CSV files
//	reproduce -server URL        # place sweep cells on a remote dvsd
//	reproduce -checkpoint DIR    # journal sweeps; re-run resumes
//	reproduce grid -codes FT,CG -classes S -freqs all -csv out.csv
//	reproduce run -code CG -strategy internal -high 1200 -low 800
//	reproduce power -code FT -profile ft.csv -json ft.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/npb"
	"repro/internal/report"
	"repro/internal/runner"
)

// runCtx carries the per-invocation state every artifact draws on: the
// options, the table sink, and the lazily-built profile set shared by
// Table 2 and Figures 5–8.
type runCtx struct {
	o    experiments.Options
	emit func(*report.Table)
	ps   *experiments.ProfileSet
}

// profiles builds the eight-code profile grid once, on first demand.
func (c *runCtx) profiles() (*experiments.ProfileSet, error) {
	if c.ps != nil {
		return c.ps, nil
	}
	start := time.Now()
	ps, err := experiments.BuildProfiles(c.o)
	if err != nil {
		return nil, err
	}
	fmt.Printf("(profiled %d codes x 6 settings in %.1fs wall on %d workers)\n\n",
		len(experiments.NPBCodes), time.Since(start).Seconds(), c.o.Runner.Workers())
	c.ps = ps
	return ps, nil
}

// artifact is one reproducible table or figure. The registry is the
// single source of truth for what ids exist: -only validation, the
// default (paper-only) selection, and the run order all derive from it.
type artifact struct {
	id      string
	aliases []string
	title   string
	ext     bool // extension beyond the paper's published evaluation
	run     func(*runCtx) error
}

// artifacts lists every artifact in the paper's presentation order.
var artifacts = []artifact{
	{id: "t1", title: "Table 1: operating points", run: func(c *runCtx) error {
		c.emit(experiments.Table1(c.o))
		return nil
	}},
	{id: "f1", title: "Figure 1: node power breakdown", run: func(c *runCtx) error {
		c.emit(experiments.Figure1(c.o).Render())
		return nil
	}},
	{id: "f2", title: "Figure 2: swim crescendo", run: func(c *runCtx) error {
		cr, err := experiments.Figure2(c.o)
		if err != nil {
			return err
		}
		t := cr.Render()
		t.Title = "Figure 2: " + t.Title
		c.emit(t)
		return nil
	}},
	{id: "f5", title: "Figure 5: CPUSPEED efficiency", run: func(c *runCtx) error {
		ps, err := c.profiles()
		if err != nil {
			return err
		}
		c.emit(ps.Figure5())
		return nil
	}},
	{id: "t2", title: "Table 2: NPB profiles", run: func(c *runCtx) error {
		ps, err := c.profiles()
		if err != nil {
			return err
		}
		c.emit(ps.Table2())
		return nil
	}},
	{id: "f6", title: "Figure 6: EXTERNAL via ED3P", run: func(c *runCtx) error {
		ps, err := c.profiles()
		if err != nil {
			return err
		}
		sels, err := ps.SelectExternal(metrics.ED3P)
		if err != nil {
			return err
		}
		c.emit(experiments.RenderSelections("Figure 6: EXTERNAL control with ED3P selection", sels))
		return nil
	}},
	{id: "f7", title: "Figure 7: EXTERNAL via ED2P", run: func(c *runCtx) error {
		ps, err := c.profiles()
		if err != nil {
			return err
		}
		sels, err := ps.SelectExternal(metrics.ED2P)
		if err != nil {
			return err
		}
		c.emit(experiments.RenderSelections("Figure 7: EXTERNAL control with ED2P selection", sels))
		return nil
	}},
	{id: "f8", title: "Figure 8: crescendo types", run: func(c *runCtx) error {
		ps, err := c.profiles()
		if err != nil {
			return err
		}
		_, t := ps.Figure8()
		c.emit(t)
		return nil
	}},
	{id: "f9", title: "Figure 9: FT trace", run: func(c *runCtx) error {
		tr, err := experiments.Figure9(c.o)
		if err != nil {
			return err
		}
		fmt.Println(tr.Render("Figure 9: FT performance trace (MPE/Jumpshot analogue)", 100))
		return nil
	}},
	{id: "f11", title: "Figure 11: FT strategies", run: func(c *runCtx) error {
		cr, err := experiments.Figure11(c.o)
		if err != nil {
			return err
		}
		c.emit(cr.Render("Figure 11: FT — INTERNAL vs EXTERNAL vs CPUSPEED"))
		return nil
	}},
	{id: "f12", title: "Figure 12: CG trace", run: func(c *runCtx) error {
		tr, err := experiments.Figure12(c.o)
		if err != nil {
			return err
		}
		fmt.Println(tr.Render("Figure 12: CG performance trace (MPE/Jumpshot analogue)", 100))
		return nil
	}},
	{id: "f14", title: "Figure 14: CG strategies", run: func(c *runCtx) error {
		cr, err := experiments.Figure14(c.o)
		if err != nil {
			return err
		}
		c.emit(cr.Render("Figure 14: CG — INTERNAL I/II vs phase policies vs EXTERNAL vs CPUSPEED"))
		return nil
	}},
	{id: "a2", aliases: []string{"a1"}, title: "Ablation: cpuspeed v1.1 vs v1.2.1", run: func(c *runCtx) error {
		t := report.NewTable("Ablation: CPUSPEED v1.1 vs v1.2.1 (per code)",
			"code", "v1.1 D/E", "v1.2.1 D/E")
		for _, code := range experiments.NPBCodes {
			v11, v121, err := experiments.AblationCPUSpeed(c.o, code)
			if err != nil {
				return err
			}
			t.AddRow(code,
				fmt.Sprintf("%s/%s", report.Norm(v11.Delay), report.Norm(v11.Energy)),
				fmt.Sprintf("%s/%s", report.Norm(v121.Delay), report.Norm(v121.Energy)))
		}
		t.AddNote("paper §5.1: v1.1 'always chooses the highest CPU speed' — D/E ≈ 1/1")
		c.emit(t)
		return nil
	}},
	{id: "a3", title: "Ablation: transition latency", run: func(c *runCtx) error {
		t, _, err := experiments.AblationTransitionCost(c.o, []time.Duration{
			10 * time.Microsecond, 30 * time.Microsecond, 100 * time.Microsecond,
			time.Millisecond, 10 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		c.emit(t)
		return nil
	}},
	{id: "x1", ext: true, title: "X1: automatic scheduling", run: func(c *runCtx) error {
		t, _, err := experiments.X1AutoSchedule(c.o)
		if err != nil {
			return err
		}
		c.emit(t)
		return nil
	}},
	{id: "x2", ext: true, title: "X2: governor evolution", run: func(c *runCtx) error {
		t, _, err := experiments.X2PredictiveDaemon(c.o, experiments.NPBCodes)
		if err != nil {
			return err
		}
		c.emit(t)
		return nil
	}},
	{id: "x3", ext: true, title: "X3: disk-bound slack", run: func(c *runCtx) error {
		t, _, err := experiments.X3DiskSlack(c.o)
		if err != nil {
			return err
		}
		c.emit(t)
		return nil
	}},
	{id: "x4", ext: true, title: "X4: Opteron projection", run: func(c *runCtx) error {
		t, _, err := experiments.X4Opteron(c.o, experiments.NPBCodes)
		if err != nil {
			return err
		}
		c.emit(t)
		return nil
	}},
	{id: "x5", ext: true, title: "X5: cluster-size scaling", run: func(c *runCtx) error {
		t, _, err := experiments.X5Scaling(c.o, []int{2, 4, 8, 16})
		if err != nil {
			return err
		}
		c.emit(t)
		return nil
	}},
	{id: "x6", ext: true, title: "X6: thermal & reliability", run: func(c *runCtx) error {
		t, _, err := experiments.X6Reliability(c.o)
		if err != nil {
			return err
		}
		c.emit(t)
		return nil
	}},
	{id: "x7", ext: true, title: "X7: power capping", run: func(c *runCtx) error {
		t, _, err := experiments.X7PowerCap(c.o, []float64{0.9, 0.8, 0.7, 0.6})
		if err != nil {
			return err
		}
		c.emit(t)
		return nil
	}},
}

// validIDs returns every selectable id (primary ids first, then aliases).
func validIDs() []string {
	var ids, aliases []string
	for _, a := range artifacts {
		ids = append(ids, a.id)
		aliases = append(aliases, a.aliases...)
	}
	return append(ids, aliases...)
}

func main() {
	if len(os.Args) > 1 && subcommands[os.Args[1]] != nil {
		os.Exit(runSubcommand(os.Args[1], os.Args[2:], os.Stdout, os.Stderr))
	}
	only := flag.String("only", "", "comma-separated artifact ids (see -only errors for the list); empty = paper artifacts; 'all' adds the extensions")
	classFlag := flag.String("class", "C", "problem class (S, W, A, B, C)")
	workers := flag.Int("workers", 0, "sweep-engine parallelism: simulations run concurrently across this many workers (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	csvDir := flag.String("csv", "", "directory to also write CSV tables into")
	mdPath := flag.String("md", "", "also write all tables to this markdown file")
	cacheDir := flag.String("cache-dir", "", "directory for a persistent memo-cache snapshot: loaded before the run, written after, so repeated invocations skip already-simulated cells")
	serverURL := flag.String("server", "", "base URL of a dvsd-compatible endpoint: wire-expressible sweep cells are placed there instead of simulated in-process")
	ckptDir := flag.String("checkpoint", "", "directory for sweep checkpoint journals: completed cells are journaled as they finish, and a re-run resumes instead of recomputing them")
	flag.Parse()

	o := experiments.Default()
	if len(*classFlag) != 1 || !npb.Class((*classFlag)[0]).Valid() {
		fmt.Fprintf(os.Stderr, "reproduce: invalid -class %q: want a single letter among S, W, A, B, C\n\n", *classFlag)
		flag.Usage()
		os.Exit(2)
	}
	o.Class = npb.Class((*classFlag)[0])
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "reproduce: invalid -workers %d: want >= 0 (0 = all cores, 1 = serial)\n\n", *workers)
		flag.Usage()
		os.Exit(2)
	}
	if *serverURL != "" && *cacheDir != "" {
		fmt.Fprintln(os.Stderr, "reproduce: -server and -cache-dir are mutually exclusive: "+
			"remotely-served cells never enter the local memo cache, so the snapshot would be "+
			"misleadingly sparse; the server keeps its own cache, or use -checkpoint to persist progress")
		os.Exit(2)
	}
	// One engine for the whole invocation: artifacts that revisit a grid
	// cell (Table 2 → Figures 5-8 → Figure 11 → ablations) hit its
	// memoized-run cache instead of re-simulating.
	o.Runner = runner.New(*workers)
	o.Server = *serverURL
	o.CheckpointDir = *ckptDir
	o.Stats = &experiments.SweepStats{}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(err)
		}
	}
	var snapshot string
	if *cacheDir != "" {
		snapshot = filepath.Join(*cacheDir, "cache.ndjson")
		n, err := o.Runner.LoadCache(snapshot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce: cache load:", err)
		}
		if n > 0 {
			fmt.Printf("(loaded %d cached cells from %s)\n", n, snapshot)
		}
	}

	// Validate -only against the registry before simulating anything: an
	// unknown id is a typo, and silently running nothing (or everything
	// but the artifact the user wanted) wastes hours of sweep time.
	known := map[string]bool{}
	for _, a := range artifacts {
		known[a.id] = true
		for _, al := range a.aliases {
			known[al] = true
		}
	}
	want := map[string]bool{}
	everything := false
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		switch {
		case id == "":
		case id == "all":
			everything = true
		case !known[id]:
			fmt.Fprintf(os.Stderr, "reproduce: unknown artifact id %q in -only; valid ids: %s, all\n",
				id, strings.Join(validIDs(), ", "))
			os.Exit(2)
		default:
			want[id] = true
		}
	}
	sel := func(a artifact) bool {
		if everything {
			return true
		}
		if len(want) > 0 {
			if want[a.id] {
				return true
			}
			for _, al := range a.aliases {
				if want[al] {
					return true
				}
			}
			return false
		}
		// Default: the paper's artifacts, not the extensions.
		return !a.ext
	}

	var csv []*report.Table
	ctx := &runCtx{o: o, emit: func(t *report.Table) {
		fmt.Println(t.String())
		csv = append(csv, t)
	}}
	for _, a := range artifacts {
		if !sel(a) {
			continue
		}
		if err := a.run(ctx); err != nil {
			fatal(fmt.Errorf("%s (%s): %w", a.id, a.title, err))
		}
	}

	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(f, "# Reproduction artifacts (class %c)\n\n", o.Class)
		for _, t := range csv {
			if err := t.WriteMarkdown(f); err != nil {
				fatal(err)
			}
			fmt.Fprintln(f)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d markdown tables to %s\n", len(csv), *mdPath)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		for i, t := range csv {
			name := filepath.Join(*csvDir, fmt.Sprintf("table_%02d.csv", i))
			f, err := os.Create(name)
			if err != nil {
				fatal(err)
			}
			if err := t.WriteCSV(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("wrote %d CSV files to %s\n", len(csv), *csvDir)
	}
	if snapshot != "" {
		if n, err := o.Runner.SaveCache(snapshot); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce: cache save:", err)
		} else {
			fmt.Printf("(snapshotted %d cached cells to %s)\n", n, snapshot)
		}
	}
	st := o.Runner.Stats()
	fmt.Printf("(sweep engine: %d simulations run, %d cache hits, %d workers)\n",
		st.Runs, st.Hits, o.Runner.Workers())
	if o.Server != "" || o.CheckpointDir != "" {
		fmt.Printf("(sweep pipeline: %d cells, %d resumed from checkpoint, %d served by %s)\n",
			o.Stats.Jobs, o.Stats.Resumed, o.Stats.Remote, displayServer(o.Server))
	}
}

func displayServer(url string) string {
	if url == "" {
		return "no server"
	}
	return url
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	os.Exit(1)
}
