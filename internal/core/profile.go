package core

import (
	"fmt"

	"repro/internal/npb"
	"repro/internal/sched"
)

// Profile is a benchmark's full energy-performance profile: one run per
// static operating point plus the CPUSPEED daemon — one row of the paper's
// Table 2.
type Profile struct {
	Workload string
	// Settings holds the column order: frequencies ascending, then "auto".
	Settings []string
	Results  map[string]Result
	Cells    map[string]Normalized // normalized to the top frequency
}

// BuildProfile measures workload w at every operating point of the node
// table and under the daemon config, normalizing to the top point.
func BuildProfile(w npb.Workload, cfg Config, daemon sched.CPUSpeedConfig) (Profile, error) {
	p := Profile{
		Workload: w.Name(),
		Results:  map[string]Result{},
		Cells:    map[string]Normalized{},
	}
	table := cfg.Node.Table
	if len(table) == 0 {
		return p, fmt.Errorf("core: empty operating-point table")
	}
	top := table.Top().Frequency

	base, err := Run(w, NoDVS(), cfg)
	if err != nil {
		return p, err
	}
	for _, f := range table.Frequencies() {
		key := fmt.Sprintf("%.0f", float64(f))
		var r Result
		if f == top {
			r = base
		} else {
			r, err = Run(w, External(f), cfg)
			if err != nil {
				return p, fmt.Errorf("core: profile %s at %v: %w", w.Name(), f, err)
			}
		}
		p.Settings = append(p.Settings, key)
		p.Results[key] = r
		p.Cells[key] = Normalize(r, base)
	}
	auto, err := Run(w, Daemon(daemon), cfg)
	if err != nil {
		return p, fmt.Errorf("core: profile %s auto: %w", w.Name(), err)
	}
	p.Settings = append(p.Settings, "auto")
	p.Results["auto"] = auto
	p.Cells["auto"] = Normalize(auto, base)
	return p, nil
}
