// Sweep placement: every experiment's job grid executes through the
// shared sweep pipeline (internal/sweep), so reproduce gets the same
// plan → place → execute semantics as dvsd and dvsgw — including remote
// placement onto a dvsd (-server).
package experiments

import (
	"context"
	"net/http"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sweep"
)

// SweepStats accumulates out-of-band bookkeeping across an Options'
// sweeps. The counters are updated between sweeps, not concurrently —
// read them after the experiment calls return.
type SweepStats struct {
	Jobs   int // cells submitted across all sweeps
	Remote int // cells answered with a wire result (-server mode)
}

// Sweep executes jobs through the sweep pipeline and returns their
// results in submission order, or the error of the first failed cell in
// submission order. With Server set, cells are placed through the fleet
// gateway's ladder over that one peer: wire-expressible cells go remote
// (their results carry only the summary wire fields — enough for every
// normalized figure), and bodiless cells, like every cell once the server
// has failed FailAfter times in a row, run on the local engine.
func (o Options) Sweep(jobs []runner.Job) ([]core.Result, error) {
	eng := o.engine()
	cells := make([]sweep.Cell, len(jobs))
	for i, j := range jobs {
		key, _ := j.Key()
		c := sweep.Cell{Key: key, Job: j}
		if o.Server != "" {
			if spec, ok := server.JobSpecFor(j); ok {
				c.Spec = spec
			}
		}
		cells[i] = c
	}
	plan := sweep.NewPlan(cells)

	var pl sweep.Placer = sweep.Local{Runner: eng}
	if o.Server != "" {
		// No Start: no probe loop. Data-path ejection demotes a dead
		// server for the rest of this sweep.
		g, err := fleet.New(fleet.Options{Peers: []string{o.Server}, Local: eng, Client: http.DefaultClient})
		if err == nil {
			pl = g
		}
	}

	souts, sum := sweep.Execute(context.Background(), plan, pl, sweep.ExecOptions{Parallel: eng.Workers()})
	if o.Stats != nil {
		o.Stats.Jobs += sum.Jobs
	}
	res := make([]core.Result, len(souts))
	var first error
	for i, so := range souts {
		switch {
		case so.Err != nil:
			// RawErr keeps an in-process failure's own error value
			// (a *runner.PanicError, a context error).
			if first == nil {
				if first = so.RawErr; first == nil {
					first = so.Err
				}
			}
		case so.Raw != nil:
			res[i] = *so.Raw
		case so.Wire != nil:
			if o.Stats != nil {
				o.Stats.Remote++
			}
			res[i] = so.Wire.ToResult()
		}
	}
	if first != nil {
		return nil, first
	}
	return res, nil
}

// localOnly returns a copy of the options with remote placement off, for
// experiments that need full-fidelity results (per-node thermal series)
// the summary wire form does not carry.
func (o Options) localOnly() Options {
	o.Server = ""
	return o
}
