// Strategies: every scheduling approach in the repository, head to head on
// one workload — the paper's three strategies, the two follow-on
// governors, and the automatic middleware — with energy, delay, ED³P, and
// the Arrhenius reliability payoff side by side.
//
//	go run ./examples/strategies
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/npb"
	"repro/internal/report"
	"repro/internal/sched"
)

func main() {
	cfg := core.DefaultConfig()
	plain, err := npb.FT(npb.ClassC, 8)
	if err != nil {
		log.Fatal(err)
	}
	base, err := core.Run(plain, core.NoDVS(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	type entry struct {
		label string
		res   core.Result
	}
	var rows []entry
	add := func(label string, res core.Result, err error) {
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, entry{label, res})
	}

	add("no DVS (baseline)", base, nil)
	r, err := core.Run(plain, core.External(600), cfg)
	add("EXTERNAL 600 (§3.2)", r, err)
	r, err = core.Run(plain, core.Daemon(sched.CPUSpeedV121()), cfg)
	add("CPUSPEED 1.2.1 (§3.1)", r, err)
	internal, err := npb.FTInternal(npb.ClassC, 8, 1400, 600)
	if err != nil {
		log.Fatal(err)
	}
	r, err = core.Run(internal, core.NoDVS(), cfg)
	add("INTERNAL 1400/600 (§3.3)", r, err)
	r, err = core.Run(plain, core.OnDemand(sched.DefaultOnDemand()), cfg)
	add("ondemand governor", r, err)
	r, err = core.Run(plain, core.Predictive(sched.DefaultPredictive()), cfg)
	add("predictive daemon (X2)", r, err)
	tuned, err := experiments.Options{Config: cfg}.Tune(plain)
	if err != nil {
		log.Fatal(err)
	}
	add("autosched middleware (X1)", tuned.Tuned, nil)

	t := report.NewTable("FT.C.8 — every scheduling strategy",
		"strategy", "delay", "energy", "saving", "ED3P", "avg die °C", "lifetime ×")
	for _, e := range rows {
		n := core.Normalize(e.res, base)
		t.AddRow(e.label,
			report.Norm(n.Delay), report.Norm(n.Energy), report.Pct(1-n.Energy),
			report.Norm(metrics.ED3P.Eval(n.Delay, n.Energy)),
			fmt.Sprintf("%.1f", e.res.AvgTemperature()),
			fmt.Sprintf("%.2f", e.res.MinLifetimeFactor()))
	}
	fmt.Println(t.String())
	fmt.Println("INTERNAL control (hand-written or automatic) dominates on ED3P: it")
	fmt.Println("keeps external-600's savings, erases its delay, and nearly quadruples")
	fmt.Println("expected component lifetime against the no-DVS baseline.")
}
