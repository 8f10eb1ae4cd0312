package runner

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/sched"
)

// ProfilePlan expands one workload's full energy-performance profile —
// every static operating point plus the daemon — into sweep jobs, and
// knows how to assemble the results back into a core.Profile. Plans
// compose: concatenate several plans' Jobs (plus any extra one-off jobs)
// into a single sweep, then hand each plan its slice of the results.
type ProfilePlan struct {
	workload npb.Workload
	settings []string // column order: frequencies ascending, then "auto"
	jobs     []Job    // aligned with settings
	baseIdx  int      // index of the top-frequency (NoDVS) job
}

// PlanProfile builds the job list for w's profile grid under cfg: one
// NoDVS run at the top point (the normalization baseline), one External
// run per remaining operating point, and one Daemon run.
func PlanProfile(w npb.Workload, cfg core.Config, daemon sched.CPUSpeedConfig) (*ProfilePlan, error) {
	table := cfg.Node.Table
	if len(table) == 0 {
		return nil, fmt.Errorf("runner: empty operating-point table")
	}
	top := table.Top().Frequency
	p := &ProfilePlan{workload: w, baseIdx: -1}
	for _, f := range table.Frequencies() {
		key := fmt.Sprintf("%.0f", float64(f))
		strat := core.External(f)
		if f == top {
			strat = core.NoDVS()
			p.baseIdx = len(p.jobs)
		}
		p.settings = append(p.settings, key)
		p.jobs = append(p.jobs, Job{Workload: w, Strategy: strat, Config: cfg})
	}
	if p.baseIdx < 0 {
		return nil, fmt.Errorf("runner: table for %s has no top point", w.Name())
	}
	p.settings = append(p.settings, "auto")
	p.jobs = append(p.jobs, Job{Workload: w, Strategy: core.Daemon(daemon), Config: cfg})
	return p, nil
}

// Jobs returns the plan's sweep jobs in settings order.
func (p *ProfilePlan) Jobs() []Job { return p.jobs }

// Assemble turns the plan's results (the sweep results for exactly
// Jobs(), in order) into a core.Profile, normalizing every cell to the
// top-point baseline.
func (p *ProfilePlan) Assemble(res []core.Result) (core.Profile, error) {
	prof := core.Profile{
		Workload: p.workload.Name(),
		Settings: slices.Clone(p.settings),
		Results:  map[string]core.Result{},
		Cells:    map[string]core.Normalized{},
	}
	if len(res) != len(p.jobs) {
		return prof, fmt.Errorf("runner: profile %s: %d results for %d jobs",
			prof.Workload, len(res), len(p.jobs))
	}
	base := res[p.baseIdx]
	for i, key := range p.settings {
		prof.Results[key] = res[i]
		prof.Cells[key] = core.Normalize(res[i], base)
	}
	return prof, nil
}
