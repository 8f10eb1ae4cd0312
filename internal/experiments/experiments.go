// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated NEMO cluster. Each experiment returns both a
// renderable table and machine-readable outcomes so cmd/reproduce can print
// them, benches can time them, and tests can assert the paper's shape
// claims (who wins, by what factor, where crossovers fall).
package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/metrics"
	"repro/internal/npb"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sched"
)

// Options configures a reproduction pass.
type Options struct {
	Class  npb.Class
	Config core.Config
	Daemon sched.CPUSpeedConfig
	// Runner optionally shares a runner — its memoized run cache and its
	// Workers capacity, the sweeps' parallelism — across experiment
	// calls, so e.g. Figure 11 reuses the FT grid cells Table 2 already
	// simulated. When nil each call builds a fresh GOMAXPROCS runner.
	// Results are byte-identical at any capacity.
	Runner *runner.Runner
	// Server optionally places wire-expressible sweep cells on a remote
	// dvsd-compatible endpoint (base URL). Cells the wire form cannot
	// carry — custom DVS tables, CG scheduling policies — run on the
	// local engine, as does the rest of a sweep once the server has
	// failed twice in a row. A typed rejection from the server fails
	// its cell.
	Server string
	// CheckpointDir, when set, journals each sweep's completed cells so
	// an interrupted reproduction resumes instead of recomputing.
	CheckpointDir string
	// Stats, when non-nil, accumulates sweep bookkeeping (resumed and
	// remotely-served cell counts) across experiment calls.
	Stats *SweepStats
}

// Default reproduces at the paper's class C on the calibrated NEMO model.
func Default() Options {
	return Options{
		Class:  npb.ClassC,
		Config: core.DefaultConfig(),
		Daemon: sched.CPUSpeedV121(),
	}
}

// engine returns the shared runner, or a fresh one per call.
func (o Options) engine() *runner.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	return runner.New(0)
}

// Quick reproduces at class W for fast test/bench cycles.
func Quick() Options {
	o := Default()
	o.Class = npb.ClassW
	return o
}

// NPBCodes are the eight evaluation codes in the paper's order of
// presentation.
var NPBCodes = []string{"BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"}

// ---------------------------------------------------------------- Table 1

// Table1 renders the DVS operating points (paper Table 1).
func Table1(o Options) *report.Table {
	t := report.NewTable("Table 1: Operating points for the Pentium M 1.4GHz processor",
		"Frequency", "Supply voltage")
	for i := len(o.Config.Node.Table) - 1; i >= 0; i-- {
		op := o.Config.Node.Table[i]
		t.AddRow(fmt.Sprintf("%.1fGHz", float64(op.Frequency)/1000), fmt.Sprintf("%.3fV", op.Voltage))
	}
	return t
}

// ---------------------------------------------------------------- Figure 1

// Figure1Result is the node power breakdown under load and at idle.
type Figure1Result struct {
	Load, Idle   dvs.Breakdown
	CPUShareLoad float64
	CPUShareIdle float64
}

// Figure1 reproduces the component power breakdown (paper Figure 1): CPU
// share of node power under load vs idle, from the calibrated power model.
func Figure1(o Options) Figure1Result {
	m := o.Config.Node.Power
	top := o.Config.Node.Table.Top()
	load := m.Itemize(top, dvs.ActCompute)
	idle := m.Itemize(top, dvs.ActIdle)
	return Figure1Result{
		Load:         load,
		Idle:         idle,
		CPUShareLoad: load.CPU / load.Total,
		CPUShareIdle: idle.CPU / idle.Total,
	}
}

// Render formats the Figure 1 breakdown.
func (f Figure1Result) Render() *report.Table {
	t := report.NewTable("Figure 1: node power breakdown (CPU-load vs idle, top frequency)",
		"component", "load W", "load %", "idle W", "idle %")
	row := func(name string, l, i float64) {
		t.AddRow(name,
			fmt.Sprintf("%.1f", l), fmt.Sprintf("%.0f%%", l/f.Load.Total*100),
			fmt.Sprintf("%.1f", i), fmt.Sprintf("%.0f%%", i/f.Idle.Total*100))
	}
	row("CPU", f.Load.CPU, f.Idle.CPU)
	row("memory", f.Load.Memory, f.Idle.Memory)
	row("NIC", f.Load.NIC, f.Idle.NIC)
	row("base/other", f.Load.Base, f.Idle.Base)
	t.AddRow("total", fmt.Sprintf("%.1f", f.Load.Total), "100%",
		fmt.Sprintf("%.1f", f.Idle.Total), "100%")
	t.AddNote("paper: CPU dominates under load; its share collapses at idle")
	return t
}

// ---------------------------------------------------------------- Figure 2

// CrescendoResult is a (normalized delay, energy) series by frequency.
type CrescendoResult struct {
	Workload string
	Cells    []metrics.Candidate // ascending frequency
	Type     paper.CrescendoType
}

// Figure2 reproduces the swim energy-delay crescendo on a single node.
func Figure2(o Options) (CrescendoResult, error) {
	w, err := npb.Swim(o.Class, 1)
	if err != nil {
		return CrescendoResult{}, err
	}
	return crescendoOf(w, o)
}

func crescendoOf(w npb.Workload, o Options) (CrescendoResult, error) {
	plan, err := runner.PlanProfile(w, o.Config, o.Daemon)
	if err != nil {
		return CrescendoResult{}, err
	}
	prof, err := plan.Assemble(o.Sweep(plan.Jobs()))
	if err != nil {
		return CrescendoResult{}, err
	}
	res := CrescendoResult{Workload: w.Name()}
	for _, f := range o.Config.Node.Table.Frequencies() {
		key := fmt.Sprintf("%.0f", float64(f))
		c := prof.Cells[key]
		res.Cells = append(res.Cells, metrics.Candidate{Label: key, Delay: c.Delay, Energy: c.Energy})
	}
	res.Type = metrics.Crescendo(res.Cells).Classify()
	return res, nil
}

// Render formats a crescendo series.
func (c CrescendoResult) Render() *report.Table {
	t := report.NewTable(fmt.Sprintf("Energy-delay crescendo: %s (Type %s)", c.Workload, c.Type),
		"MHz", "norm delay", "norm energy")
	for _, cell := range c.Cells {
		t.AddRow(cell.Label, report.Norm(cell.Delay), report.Norm(cell.Energy))
	}
	return t
}

// ---------------------------------------------------------- Table 2 / Fig 5

// ProfileSet holds every code's measured profile — the data behind
// Table 2 and Figures 5–8.
type ProfileSet struct {
	Options  Options
	Profiles map[string]core.Profile // code → profile
}

// BuildProfiles measures all eight codes across the full grid. Every cell
// (code × operating point) is an independent simulation, so the whole grid
// fans out across the sweep engine in one flat sweep.
func BuildProfiles(o Options) (*ProfileSet, error) {
	ws := make([]npb.Workload, 0, len(NPBCodes))
	for _, code := range NPBCodes {
		w, err := npb.New(code, o.Class, npb.PaperRanks(code))
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	plans := make([]*runner.ProfilePlan, len(ws))
	var jobs []runner.Job
	for i, w := range ws {
		plan, err := runner.PlanProfile(w, o.Config, o.Daemon)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		plans[i] = plan
		jobs = append(jobs, plan.Jobs()...)
	}
	outs := o.Sweep(jobs)
	ps := &ProfileSet{Options: o, Profiles: map[string]core.Profile{}}
	off := 0
	for i, code := range NPBCodes {
		n := len(plans[i].Jobs())
		prof, err := plans[i].Assemble(outs[off : off+n])
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		ps.Profiles[code] = prof
		off += n
	}
	return ps, nil
}

// Table2 renders the full energy-performance profile grid with paper
// deltas where published values exist.
func (ps *ProfileSet) Table2() *report.Table {
	t := report.NewTable("Table 2: Energy-performance profiles of NPB benchmarks (sim, Δ vs paper)",
		"Code", "auto", "600 MHz", "800 MHz", "1000 MHz", "1200 MHz", "1400 MHz")
	keys := []string{"auto", "600", "800", "1000", "1200", "1400"}
	for _, code := range NPBCodes {
		prof := ps.Profiles[code]
		pub := paper.Find(code)
		dRow := []string{prof.Workload + " D"}
		eRow := []string{"  .      E"}
		for _, key := range keys {
			cell := prof.Cells[key]
			if pc, _ := pub.At(key); pc.Delay > 0 {
				dRow = append(dRow, report.DeltaCell(cell.Delay, pc.Delay))
				eRow = append(eRow, report.DeltaCell(cell.Energy, pc.Energy))
			} else {
				dRow = append(dRow, report.Norm(cell.Delay))
				eRow = append(eRow, report.Norm(cell.Energy))
			}
		}
		t.AddRow(dRow...)
		t.AddRow(eRow...)
	}
	t.AddNote("each cell: simulated value (signed delta vs the paper's Table 2)")
	t.AddNote("SP energy row: paper values reconstructed from Figures 5-7")
	return t
}

// Figure5 renders the CPUSPEED daemon results sorted by normalized delay
// (paper Figure 5).
func (ps *ProfileSet) Figure5() *report.Table {
	type row struct {
		code string
		cell core.Normalized
	}
	rows := make([]row, 0, len(NPBCodes))
	for _, code := range NPBCodes {
		rows = append(rows, row{code, ps.Profiles[code].Cells["auto"]})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].cell.Delay < rows[j].cell.Delay })
	t := report.NewTable("Figure 5: energy-performance efficiency under CPUSPEED 1.2.1 (sorted by delay)",
		"code", "norm delay", "norm energy", "energy saving", "delay cost")
	for _, r := range rows {
		t.AddRow(r.code, report.Norm(r.cell.Delay), report.Norm(r.cell.Energy),
			report.Pct(1-r.cell.Energy), report.Pct(r.cell.Delay-1))
	}
	return t
}

// Selection is one code's metric-selected operating point.
type Selection struct {
	Code   string
	Metric metrics.Metric
	Choice metrics.Candidate
}

// SelectExternal applies metric m to every code's static grid — the
// procedure of Figures 6 (ED3P) and 7 (ED2P).
func (ps *ProfileSet) SelectExternal(m metrics.Metric) ([]Selection, error) {
	var out []Selection
	for _, code := range NPBCodes {
		prof := ps.Profiles[code]
		var cands []metrics.Candidate
		for _, f := range ps.Options.Config.Node.Table.Frequencies() {
			key := fmt.Sprintf("%.0f", float64(f))
			c := prof.Cells[key]
			cands = append(cands, metrics.Candidate{Label: key, Delay: c.Delay, Energy: c.Energy})
		}
		choice, err := metrics.Select(m, cands)
		if err != nil {
			return nil, err
		}
		out = append(out, Selection{Code: code, Metric: m, Choice: choice})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Choice.Delay < out[j].Choice.Delay })
	return out, nil
}

// RenderSelections formats a Figure 6/7-style table.
func RenderSelections(title string, sels []Selection) *report.Table {
	t := report.NewTable(title, "code", "chosen MHz", "norm delay", "norm energy",
		"energy saving", "delay cost")
	for _, s := range sels {
		t.AddRow(s.Code, s.Choice.Label, report.Norm(s.Choice.Delay), report.Norm(s.Choice.Energy),
			report.Pct(1-s.Choice.Energy), report.Pct(s.Choice.Delay-1))
	}
	return t
}

// Figure8 classifies every code's crescendo (paper Figure 8's four
// categories).
func (ps *ProfileSet) Figure8() ([]CrescendoResult, *report.Table) {
	var out []CrescendoResult
	t := report.NewTable("Figure 8: energy-delay crescendos and Type I-IV classification",
		"code", "600", "800", "1000", "1200", "1400", "type (sim)", "type (paper)")
	for _, code := range NPBCodes {
		prof := ps.Profiles[code]
		var cells []metrics.Candidate
		row := []string{code}
		for _, f := range ps.Options.Config.Node.Table.Frequencies() {
			key := fmt.Sprintf("%.0f", float64(f))
			c := prof.Cells[key]
			cells = append(cells, metrics.Candidate{Label: key, Delay: c.Delay, Energy: c.Energy})
			row = append(row, fmt.Sprintf("%s/%s", report.Norm(c.Delay), report.Norm(c.Energy)))
		}
		ty := metrics.Crescendo(cells).Classify()
		row = append(row, ty.String(), paper.Types[code].String())
		t.AddRow(row...)
		out = append(out, CrescendoResult{Workload: prof.Workload, Cells: cells, Type: ty})
	}
	t.AddNote("cells are delay/energy normalized to 1400 MHz")
	return out, t
}

// -------------------------------------------------------------- Fig 11/14

// StrategyComparison is a Figure 11/14-style head-to-head.
type StrategyComparison struct {
	Workload string
	Rows     []ComparisonRow
}

// ComparisonRow is one scheduling alternative's outcome.
type ComparisonRow struct {
	Label string
	Cell  core.Normalized
	Paper *paper.Cell // nil when the paper gives no number
}

// Figure11 compares INTERNAL (1400/600 around the all-to-all) against
// every EXTERNAL setting and the daemon for FT (paper Figure 11).
func Figure11(o Options) (StrategyComparison, error) {
	ftw, err := npb.FT(o.Class, npb.PaperRanks("FT"))
	if err != nil {
		return StrategyComparison{}, err
	}
	internal, err := npb.FTInternal(o.Class, npb.PaperRanks("FT"), 1400, 600)
	if err != nil {
		return StrategyComparison{}, err
	}
	// One sweep: the FT profile grid plus the internal-scheduling run.
	plan, err := runner.PlanProfile(ftw, o.Config, o.Daemon)
	if err != nil {
		return StrategyComparison{}, err
	}
	jobs := append(plan.Jobs(), runner.Job{Workload: internal, Strategy: core.NoDVS(), Config: o.Config})
	outs := o.Sweep(jobs)
	prof, err := plan.Assemble(outs[:len(outs)-1])
	if err != nil {
		return StrategyComparison{}, err
	}
	if err := outs[len(outs)-1].Err; err != nil {
		return StrategyComparison{}, err
	}
	ri := outs[len(outs)-1].Result
	base := prof.Results["1400"]
	cmpr := StrategyComparison{Workload: "FT"}

	pin := paper.InternalFT
	cmpr.Rows = append(cmpr.Rows, ComparisonRow{
		Label: "internal 1400/600",
		Cell:  core.Normalize(ri, base),
		Paper: &pin,
	})
	pub := paper.Find("FT")
	for _, key := range prof.Settings {
		cell := prof.Cells[key]
		row := ComparisonRow{Label: key, Cell: cell}
		if pc, ok := pub.At(key); ok {
			row.Paper = &pc
		}
		cmpr.Rows = append(cmpr.Rows, row)
	}
	return cmpr, nil
}

// Figure14 compares CG's heterogeneous internal variants against external
// settings and the daemon (paper Figure 14), plus the two unprofitable
// phase-based policies of §5.3.2.
func Figure14(o Options) (StrategyComparison, error) {
	cgw, err := npb.CG(o.Class, npb.PaperRanks("CG"))
	if err != nil {
		return StrategyComparison{}, err
	}
	variants := []struct {
		label     string
		policy    npb.CGPolicy
		high, low dvs.MHz
		pub       string
	}{
		{"internal-I 1200/800", npb.CGHetero, 1200, 800, "internal-I"},
		{"internal-II 1000/800", npb.CGHetero, 1000, 800, "internal-II"},
		{"phase: slow-comm 1400/600", npb.CGCommSlow, 1400, 600, ""},
		{"phase: slow-wait 1400/600", npb.CGWaitSlow, 1400, 600, ""},
	}
	// One sweep: the CG profile grid plus all four internal variants.
	plan, err := runner.PlanProfile(cgw, o.Config, o.Daemon)
	if err != nil {
		return StrategyComparison{}, err
	}
	jobs := plan.Jobs()
	nProf := len(jobs)
	for _, v := range variants {
		w, err := npb.CGWithPolicy(o.Class, npb.PaperRanks("CG"), v.policy, v.high, v.low)
		if err != nil {
			return StrategyComparison{}, err
		}
		jobs = append(jobs, runner.Job{Workload: w, Strategy: core.NoDVS(), Config: o.Config})
	}
	outs := o.Sweep(jobs)
	prof, err := plan.Assemble(outs[:nProf])
	if err != nil {
		return StrategyComparison{}, err
	}
	base := prof.Results["1400"]
	cmpr := StrategyComparison{Workload: "CG"}

	for i, v := range variants {
		out := outs[nProf+i]
		if out.Err != nil {
			return StrategyComparison{}, out.Err
		}
		row := ComparisonRow{Label: v.label, Cell: core.Normalize(out.Result, base)}
		if pc, ok := paper.InternalCG[v.pub]; ok {
			pc := pc
			row.Paper = &pc
		}
		cmpr.Rows = append(cmpr.Rows, row)
	}
	pub := paper.Find("CG")
	for _, key := range prof.Settings {
		cell := prof.Cells[key]
		row := ComparisonRow{Label: key, Cell: cell}
		if pc, ok := pub.At(key); ok {
			row.Paper = &pc
		}
		cmpr.Rows = append(cmpr.Rows, row)
	}
	return cmpr, nil
}

// Render formats a strategy comparison.
func (c StrategyComparison) Render(title string) *report.Table {
	t := report.NewTable(title, "setting", "norm delay", "norm energy", "paper D/E")
	for _, r := range c.Rows {
		pub := "-"
		if r.Paper != nil {
			pub = fmt.Sprintf("%s/%s", report.Norm(r.Paper.Delay), report.Norm(r.Paper.Energy))
		}
		t.AddRow(r.Label, report.Norm(r.Cell.Delay), report.Norm(r.Cell.Energy), pub)
	}
	return t
}

// Find returns the row with the given label, or nil.
func (c StrategyComparison) Find(label string) *ComparisonRow {
	for i := range c.Rows {
		if c.Rows[i].Label == label {
			return &c.Rows[i]
		}
	}
	return nil
}

// --------------------------------------------------------------- ablations

// AblationCPUSpeed contrasts daemon versions 1.1 and 1.2.1 on one code
// (§5.1's explanation of why v1.1 never saved energy).
func AblationCPUSpeed(o Options, code string) (v11, v121 core.Normalized, err error) {
	w, err := npb.New(code, o.Class, npb.PaperRanks(code))
	if err != nil {
		return
	}
	outs := o.Sweep([]runner.Job{
		{Workload: w, Strategy: core.NoDVS(), Config: o.Config},
		{Workload: w, Strategy: core.Daemon(sched.CPUSpeedV11()), Config: o.Config},
		{Workload: w, Strategy: core.Daemon(sched.CPUSpeedV121()), Config: o.Config},
	})
	if err = runner.FirstErr(outs); err != nil {
		return
	}
	base := outs[0].Result
	return core.Normalize(outs[1].Result, base), core.Normalize(outs[2].Result, base), nil
}

// AblationTransitionCost sweeps the DVS hardware transition latency for
// internal FT scheduling (the §2 footnote's 10–30 µs bounds and beyond).
func AblationTransitionCost(o Options, latencies []time.Duration) (*report.Table, []core.Normalized, error) {
	ftw, err := npb.FT(o.Class, npb.PaperRanks("FT"))
	if err != nil {
		return nil, nil, err
	}
	internal, err := npb.FTInternal(o.Class, npb.PaperRanks("FT"), 1400, 600)
	if err != nil {
		return nil, nil, err
	}
	// One sweep: the baseline plus every latency point.
	jobs := []runner.Job{{Workload: ftw, Strategy: core.NoDVS(), Config: o.Config}}
	for _, lat := range latencies {
		cfg := o.Config
		cfg.Node.Transition.Latency = lat
		jobs = append(jobs, runner.Job{Workload: internal, Strategy: core.NoDVS(), Config: cfg})
	}
	outs := o.Sweep(jobs)
	if err := runner.FirstErr(outs); err != nil {
		return nil, nil, err
	}
	base := outs[0].Result
	t := report.NewTable("Ablation: DVS transition latency vs internal-FT efficiency",
		"latency", "norm delay", "norm energy")
	var cells []core.Normalized
	for i, lat := range latencies {
		n := core.Normalize(outs[i+1].Result, base)
		cells = append(cells, n)
		t.AddRow(lat.String(), report.Norm(n.Delay), report.Norm(n.Energy))
	}
	return t, cells, nil
}
