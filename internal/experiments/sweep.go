// Sweep placement: every experiment's job grid executes through the
// shared sweep pipeline (internal/sweep), so reproduce gets the same
// plan → place → execute semantics as dvsd and dvsgw — including remote
// placement onto a dvsd (-server) and checkpoint/resume (-checkpoint).
package experiments

import (
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sweep"
)

// SweepStats accumulates out-of-band bookkeeping across an Options'
// sweeps. The counters are updated between sweeps, not concurrently —
// read them after the experiment calls return.
type SweepStats struct {
	Jobs    int // cells submitted across all sweeps
	Cached  int // cells served from a memo cache (local or backend)
	Resumed int // cells replayed from a checkpoint journal
	Remote  int // cells answered with a wire result (-server mode)
}

// Sweep executes jobs through the sweep pipeline and returns outcomes in
// submission order, runner-shaped so profile plans assemble unchanged.
// With Server set, cells are placed through the fleet gateway's ladder
// over that one peer: wire-expressible cells go remote, and bodiless
// cells, like every cell once the server has failed FailAfter times in a
// row, run on the local engine. With CheckpointDir set, completed cells
// journal to disk and an interrupted reproduction resumes where it
// stopped.
func (o Options) Sweep(jobs []runner.Job) []runner.Outcome {
	eng := o.engine()
	cells := make([]sweep.Cell, len(jobs))
	for i, j := range jobs {
		key, _ := j.Key()
		c := sweep.Cell{Key: key, Job: j}
		if o.Server != "" {
			if spec, ok := server.JobSpecFor(j); ok {
				if body, err := json.Marshal(spec); err == nil {
					c.Body = body
				}
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

	var ckpt *sweep.Checkpoint
	if o.CheckpointDir != "" {
		// Best-effort: an unopenable journal (permissions, torn header)
		// degrades to an uncheckpointed sweep, never a failed one.
		ckpt, _ = sweep.OpenCheckpoint(sweep.CheckpointPath(o.CheckpointDir, plan), plan)
	}

	souts, sum := sweep.Execute(context.Background(), plan, pl, sweep.ExecOptions{
		Parallel:   eng.Workers(),
		Checkpoint: ckpt,
	})
	if o.Stats != nil {
		o.Stats.Jobs += sum.Jobs
		o.Stats.Cached += sum.Cached
		o.Stats.Resumed += sum.Resumed
	}
	outs := make([]runner.Outcome, len(souts))
	for i, so := range souts {
		if o.Stats != nil && so.Err == nil && so.Wire != nil {
			o.Stats.Remote++
		}
		outs[i] = toRunnerOutcome(so)
	}
	return outs
}

// localOnly returns a copy of the options with remote placement off, for
// experiments that need full-fidelity results (per-node thermal series)
// the summary wire form does not carry.
func (o Options) localOnly() Options {
	o.Server = ""
	return o
}

// toRunnerOutcome converts a placement outcome back to the runner shape
// the profile plans and figures consume. Remote cells carry only the
// summary wire fields (name, strategy, elapsed, energy, transitions,
// daemon moves) — enough for every normalized figure.
func toRunnerOutcome(o sweep.Outcome) runner.Outcome {
	switch {
	case o.Err != nil:
		if o.RawErr != nil {
			return runner.Outcome{Err: o.RawErr}
		}
		return runner.Outcome{Err: o.Err}
	case o.Raw != nil:
		return runner.Outcome{Result: *o.Raw, Cached: o.Cached}
	case o.Wire != nil:
		return runner.Outcome{Result: o.Wire.ToResult(), Cached: o.Cached}
	}
	return runner.Outcome{}
}
