// Autotune: the paper's future work, working end to end — fully automatic
// DVS scheduling with zero source changes.
//
// For each NPB code the pipeline (a) profiles one traced run, (b) derives
// a schedule from the microbenchmark database (wrap long collectives,
// per-rank speeds for asymmetric codes, hands off Type I codes), and (c)
// applies it as PMPI-style middleware and measures the result.
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"log"

	"repro/internal/autosched"
	"repro/internal/experiments"
	"repro/internal/npb"
	"repro/internal/report"
	"repro/internal/runner"
)

func main() {
	// One runner for every code, so the microbenchmark probes run once.
	o := experiments.Default()
	o.Runner = runner.New(0)

	t := report.NewTable("Automatic DVS scheduling across NPB (class C, zero source changes)",
		"code", "norm delay", "norm energy", "saving", "schedule")
	for _, code := range []string{"BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"} {
		w, err := npb.New(code, npb.ClassC, npb.PaperRanks(code))
		if err != nil {
			log.Fatal(err)
		}
		res, err := o.Tune(w)
		if err != nil {
			log.Fatal(err)
		}
		desc := "leave at 1400"
		switch {
		case len(res.Schedule.WrapOps) > 0 && res.Schedule.PerRank[0] == 1400:
			desc = fmt.Sprintf("wrap %v at %v MHz", keys(res.Schedule.WrapOps), float64(res.Schedule.WrapLow))
		case len(res.Schedule.WrapOps) > 0:
			desc = fmt.Sprintf("base %v MHz + wrap %v", float64(res.Schedule.PerRank[0]), keys(res.Schedule.WrapOps))
		case res.Schedule.Heterogeneous:
			desc = fmt.Sprintf("per-rank %v", res.Schedule.PerRank)
		case res.Schedule.PerRank[0] != 1400:
			desc = fmt.Sprintf("all ranks %v MHz", float64(res.Schedule.PerRank[0]))
		}
		t.AddRow(code, report.Norm(res.Normalized.Delay), report.Norm(res.Normalized.Energy),
			report.Pct(1-res.Normalized.Energy), desc)
	}
	fmt.Println(t.String())
	fmt.Println("The analyzer rediscovers the paper's hand schedules: FT's all-to-all")
	fmt.Println("wrap (§5.3.1), CG's heterogeneous speeds (§5.3.2), and leaves the")
	fmt.Println("Type I/II codes alone — automatically, from one profiling run.")
}

func keys(m map[autosched.PhaseKey]bool) []string {
	var out []string
	for k := range m {
		out = append(out, string(k))
	}
	return out
}
