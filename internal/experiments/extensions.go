package experiments

import (
	"fmt"

	"repro/internal/autosched"
	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/metrics"
	"repro/internal/micro"
	"repro/internal/npb"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Extensions beyond the paper's published evaluation, following its §7
// future-work list: automation (X1), better prediction (X2), disk-bound
// workloads (X3), the server-class Opteron platform it was building (X4),
// and cluster-size scaling (X5).

// X1AutoSchedule runs the automatic scheduler over the NPB suite and
// reports what it decided and what that bought.
func X1AutoSchedule(o Options) (*report.Table, map[string]core.Normalized, error) {
	t := report.NewTable("X1: automatic DVS scheduling (profile → analyze → apply, no source changes)",
		"code", "norm delay", "norm energy", "saving", "decision")
	out := map[string]core.Normalized{}
	for _, code := range NPBCodes {
		w, err := npb.New(code, o.Class, npb.PaperRanks(code))
		if err != nil {
			return nil, nil, err
		}
		res, err := o.Tune(w)
		if err != nil {
			return nil, nil, err
		}
		out[code] = res.Normalized
		desc := "none (Type I/II)"
		switch {
		case len(res.Schedule.WrapOps) > 0:
			desc = fmt.Sprintf("wrap collectives @%v MHz, base %v",
				float64(res.Schedule.WrapLow), float64(res.Schedule.PerRank[0]))
		case res.Schedule.Heterogeneous:
			desc = "heterogeneous per-rank speeds"
		case res.Schedule.PerRank[0] != o.Config.Node.Table.Top().Frequency:
			desc = fmt.Sprintf("all ranks @%v MHz", float64(res.Schedule.PerRank[0]))
		}
		t.AddRow(code, report.Norm(res.Normalized.Delay), report.Norm(res.Normalized.Energy),
			report.Pct(1-res.Normalized.Energy), desc)
	}
	return t, out, nil
}

// Tune runs the automatic scheduler on w in two sweeps. The first
// profiles w with one traced NoDVS run, a keyless job, beside the
// microbenchmark probes the analyzer's database is assembled from, which
// a shared runner memoizes. The second measures w with the derived
// schedule installed as middleware, also a keyless job. Both run
// locally: the probes' per-node energies do not cross the wire.
func (o Options) Tune(w npb.Workload) (*autosched.Result, error) {
	o = o.localOnly()
	log := trace.New(w.Ranks)
	traced := o.Config
	traced.Tracer = log
	jobs := append([]runner.Job{{Workload: w, Strategy: core.NoDVS(), Config: traced}}, micro.Plan(o.Config.Node)...)
	res, err := o.Sweep(jobs)
	if err != nil {
		return nil, err
	}
	db, err := micro.Assemble(o.Config.Node.Table, res[1:])
	if err != nil {
		return nil, err
	}
	base := res[0]
	schedule, err := autosched.Analyze(autosched.ProfileOf(log, base), db)
	if err != nil {
		return nil, err
	}
	tuned := w.WithPolicy("autosched", schedule.Policy(w.Ranks))
	if res, err = o.Sweep([]runner.Job{{Workload: tuned, Strategy: core.NoDVS(), Config: o.Config}}); err != nil {
		return nil, err
	}
	return &autosched.Result{Schedule: schedule, Baseline: base, Tuned: res[0], Normalized: core.Normalize(res[0], base)}, nil
}

// X2PredictiveDaemon contrasts three generations of history-driven
// governors: the paper's cpuspeed 1.2.1 walk, the in-kernel ondemand
// governor that replaced it, and the periodicity-predicting daemon of the
// paper's future work. Results index: [0] reactive, [1] predictive,
// [2] ondemand.
func X2PredictiveDaemon(o Options, codes []string) (*report.Table, map[string][3]core.Normalized, error) {
	t := report.NewTable("X2: governor evolution — cpuspeed 1.2.1 vs ondemand vs predictive (D/E, ED2P)",
		"code", "cpuspeed", "ED2P", "ondemand", "ED2P", "predictive", "ED2P")
	out := map[string][3]core.Normalized{}
	// One flat sweep: every code × every governor generation.
	var jobs []runner.Job
	for _, code := range codes {
		w, err := npb.New(code, o.Class, npb.PaperRanks(code))
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs,
			runner.Job{Workload: w, Strategy: core.NoDVS(), Config: o.Config},
			runner.Job{Workload: w, Strategy: core.Daemon(o.Daemon), Config: o.Config},
			runner.Job{Workload: w, Strategy: core.OnDemand(sched.DefaultOnDemand()), Config: o.Config},
			runner.Job{Workload: w, Strategy: core.Predictive(sched.DefaultPredictive()), Config: o.Config})
	}
	res, err := o.Sweep(jobs)
	if err != nil {
		return nil, nil, err
	}
	for i, code := range codes {
		base := res[4*i]
		na := core.Normalize(res[4*i+1], base)
		no := core.Normalize(res[4*i+2], base)
		np := core.Normalize(res[4*i+3], base)
		out[code] = [3]core.Normalized{na, np, no}
		cell := func(n core.Normalized) (string, string) {
			return fmt.Sprintf("%s/%s", report.Norm(n.Delay), report.Norm(n.Energy)),
				report.Norm(metrics.ED2P.Eval(n.Delay, n.Energy))
		}
		c1, v1 := cell(na)
		c2, v2 := cell(no)
		c3, v3 := cell(np)
		t.AddRow(code, c1, v1, c2, v2, c3, v3)
	}
	t.AddNote("ondemand is performance-safe (jumps to top under load); prediction wins where reactive walks oscillate (MG)")
	return t, out, nil
}

// X3DiskSlack measures the BTIO crescendo against BT's — the disk-bound
// study the paper deferred.
func X3DiskSlack(o Options) (*report.Table, map[string]CrescendoResult, error) {
	t := report.NewTable("X3: disk-bound slack — BT vs BTIO crescendos (delay/energy)",
		"code", "600", "800", "1000", "1200", "top", "type")
	out := map[string]CrescendoResult{}
	for _, code := range []string{"BT", "BTIO"} {
		w, err := npb.New(code, o.Class, 9)
		if err != nil {
			return nil, nil, err
		}
		c, err := crescendoOf(w, o)
		if err != nil {
			return nil, nil, err
		}
		out[code] = c
		row := []string{code}
		for _, cell := range c.Cells {
			row = append(row, fmt.Sprintf("%s/%s", report.Norm(cell.Delay), report.Norm(cell.Energy)))
		}
		row = append(row, c.Type.String())
		t.AddRow(row...)
	}
	t.AddNote("I/O phases add free slack: BTIO's delay column sits below BT's")
	return t, out, nil
}

// X4Opteron projects the whole methodology onto the server-class AMD
// Opteron table the paper said it was building a cluster of (footnote 7).
func X4Opteron(o Options, codes []string) (*report.Table, map[string]CrescendoResult, error) {
	cfg := o.Config
	cfg.Node.Table = dvs.Opteron246()
	cfg.Node.Power = dvs.DefaultPowerModel(cfg.Node.Table)
	// Server-class parts: higher dynamic power, more leakage.
	cfg.Node.Power.CPUDynamic = 55
	cfg.Node.Power.CPULeak = 12
	cfg.Node.Power.BaseWatts = 45
	oo := o
	oo.Config = cfg
	t := report.NewTable("X4: projection onto AMD Opteron 246 (server-class DVS, 800-2000 MHz)",
		"code", "bottom D/E", "mid D/E", "top D/E", "type", "ED3P pick")
	out := map[string]CrescendoResult{}
	for _, code := range codes {
		w, err := npb.New(code, oo.Class, npb.PaperRanks(code))
		if err != nil {
			return nil, nil, err
		}
		c, err := crescendoOf(w, oo)
		if err != nil {
			return nil, nil, err
		}
		out[code] = c
		pick, err := metrics.Select(metrics.ED3P, c.Cells)
		if err != nil {
			return nil, nil, err
		}
		mid := c.Cells[len(c.Cells)/2]
		t.AddRow(code,
			fmt.Sprintf("%s/%s", report.Norm(c.Cells[0].Delay), report.Norm(c.Cells[0].Energy)),
			fmt.Sprintf("%s/%s", report.Norm(mid.Delay), report.Norm(mid.Energy)),
			fmt.Sprintf("%s/%s", report.Norm(c.Cells[len(c.Cells)-1].Delay), report.Norm(c.Cells[len(c.Cells)-1].Energy)),
			c.Type.String(), pick.Label+" MHz")
	}
	t.AddNote("seven operating points and a deeper voltage range widen the tradeoff space")
	return t, out, nil
}

// X6Reliability translates each scheduling strategy into the paper's §1
// reliability currency: average die temperature and Arrhenius expected
// lifetime ("reducing a component's operating temperature [10°C] ...
// doubles the life expectancy").
func X6Reliability(o Options) (*report.Table, map[string]core.Result, error) {
	ftPlain, err := npb.FT(o.Class, npb.PaperRanks("FT"))
	if err != nil {
		return nil, nil, err
	}
	ftInternal, err := npb.FTInternal(o.Class, npb.PaperRanks("FT"), 1400, 600)
	if err != nil {
		return nil, nil, err
	}
	runs := []struct {
		label string
		w     npb.Workload
		s     core.Strategy
	}{
		{"no DVS (1400)", ftPlain, core.NoDVS()},
		{"external 600", ftPlain, core.External(600)},
		{"cpuspeed 1.2.1", ftPlain, core.Daemon(o.Daemon)},
		{"internal 1400/600", ftInternal, core.NoDVS()},
	}
	t := report.NewTable("X6: FT thermal & reliability by strategy (Arrhenius, ref 60°C)",
		"strategy", "avg die °C", "max die °C", "lifetime ×", "energy J")
	out := map[string]core.Result{}
	jobs := make([]runner.Job, len(runs))
	for i, r := range runs {
		jobs[i] = runner.Job{Workload: r.w, Strategy: r.s, Config: o.Config}
	}
	// Local-only: the thermal series this figure reads never crosses the
	// wire, so remote placement would silently zero the table.
	results, err := o.localOnly().Sweep(jobs)
	if err != nil {
		return nil, nil, err
	}
	for i, r := range runs {
		res := results[i]
		out[r.label] = res
		maxC := 0.0
		for _, th := range res.Thermal {
			if th.MaxC > maxC {
				maxC = th.MaxC
			}
		}
		t.AddRow(r.label,
			fmt.Sprintf("%.1f", res.AvgTemperature()),
			fmt.Sprintf("%.1f", maxC),
			fmt.Sprintf("%.2f", res.MinLifetimeFactor()),
			fmt.Sprintf("%.0f", res.Energy))
	}
	t.AddNote("lifetime × is relative to running pegged at the 60°C reference")
	return t, out, nil
}

// X7PowerCap sweeps a cluster power budget over FT and prices each run at
// the paper's §1 electricity rate — the operating-cost motivation made
// operational ("at $100 per megawatt[-hour] ... peak operation of this
// petaflop machine is $10,000 per hour").
func X7PowerCap(o Options, fractions []float64) (*report.Table, map[float64]core.Result, error) {
	w, err := npb.FT(o.Class, npb.PaperRanks("FT"))
	if err != nil {
		return nil, nil, err
	}
	bres, err := o.Sweep([]runner.Job{{Workload: w, Strategy: core.NoDVS(), Config: o.Config}})
	if err != nil {
		return nil, nil, err
	}
	base := bres[0]
	basePower := base.AvgPower()
	t := report.NewTable("X7: FT under a cluster power cap (paper rate $0.10/kWh)",
		"cap", "budget W", "avg W", "norm delay", "norm energy", "$/run", "$/1000 runs")
	out := map[float64]core.Result{}
	addRow := func(label string, frac float64, r core.Result) {
		n := core.Normalize(r, base)
		cost := sched.CostUSD(r.Energy, sched.PaperUSDPerKWh)
		t.AddRow(label,
			fmt.Sprintf("%.0f", frac*basePower),
			fmt.Sprintf("%.1f", r.AvgPower()),
			report.Norm(n.Delay), report.Norm(n.Energy),
			fmt.Sprintf("$%.4f", cost), fmt.Sprintf("$%.2f", cost*1000))
	}
	addRow("none", 1, base)
	out[1] = base
	// The budgets all derive from the shared baseline, so the capped runs
	// sweep together once it is in hand.
	jobs := make([]runner.Job, len(fractions))
	for i, frac := range fractions {
		budget := basePower * frac
		jobs[i] = runner.Job{Workload: w, Strategy: core.PowerCap(sched.DefaultPowerCap(budget)), Config: o.Config}
	}
	res, err := o.Sweep(jobs)
	if err != nil {
		return nil, nil, err
	}
	for i, frac := range fractions {
		out[frac] = res[i]
		addRow(fmt.Sprintf("%.0f%%", frac*100), frac, res[i])
	}
	t.AddNote("budget is the cap as a fraction of the uncapped run's average power")
	return t, out, nil
}

// X5Scaling measures how internal-FT savings evolve with cluster size —
// the "scalable power-aware clusters" motivation of the title.
func X5Scaling(o Options, sizes []int) (*report.Table, map[int]core.Normalized, error) {
	t := report.NewTable("X5: internal-FT scheduling vs cluster size",
		"ranks", "norm delay", "norm energy", "saving")
	out := map[int]core.Normalized{}
	// One flat sweep: (plain, internal) per cluster size.
	var jobs []runner.Job
	for _, n := range sizes {
		plain, err := npb.FT(o.Class, n)
		if err != nil {
			return nil, nil, err
		}
		internal, err := npb.FTInternal(o.Class, n, 1400, 600)
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs,
			runner.Job{Workload: plain, Strategy: core.NoDVS(), Config: o.Config},
			runner.Job{Workload: internal, Strategy: core.NoDVS(), Config: o.Config})
	}
	res, err := o.Sweep(jobs)
	if err != nil {
		return nil, nil, err
	}
	for i, n := range sizes {
		nr := core.Normalize(res[2*i+1], res[2*i])
		out[n] = nr
		t.AddRow(fmt.Sprintf("%d", n), report.Norm(nr.Delay), report.Norm(nr.Energy),
			report.Pct(1-nr.Energy))
	}
	t.AddNote("the all-to-all share grows with rank count on a fixed network, so savings persist at scale")
	return t, out, nil
}
