package experiments

import (
	"context"
	"testing"

	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/sweep"
)

type placerFunc func(context.Context, int, sweep.Cell) sweep.Outcome

func (f placerFunc) Place(ctx context.Context, i int, c sweep.Cell) sweep.Outcome {
	return f(ctx, i, c)
}

// TestCheckpointResumesTable2 is reproduce -checkpoint: the Table 2 sweep
// dies after k keyed cells, and the re-run replays exactly those k from
// the journal and renders Table 2 byte-identical to an uninterrupted run.
func TestCheckpointResumesTable2(t *testing.T) {
	o := Default()
	o.Class = npb.ClassS
	ref, err := BuildProfiles(o)
	if err != nil {
		t.Fatal(err)
	}

	// The interrupted first run: the same cells BuildProfiles plans, of
	// which only the first k complete before the process dies.
	const k = 10
	var cells []sweep.Cell
	for _, code := range NPBCodes {
		w, err := npb.New(code, o.Class, npb.PaperRanks(code))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := runner.PlanProfile(w, o.Config, o.Daemon)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range plan.Jobs() {
			key, ok := j.Key()
			if !ok {
				t.Fatalf("Table 2 cell %s is not keyed", w.Name())
			}
			cells = append(cells, sweep.Cell{Key: key, Job: j})
		}
	}
	plan := sweep.NewPlan(cells)
	dir := t.TempDir()
	ckpt, err := sweep.OpenCheckpoint(sweep.CheckpointPath(dir, plan), plan)
	if err != nil {
		t.Fatal(err)
	}
	local := sweep.Local{Runner: runner.New(1)}
	sweep.Execute(context.Background(), plan, placerFunc(func(ctx context.Context, i int, c sweep.Cell) sweep.Outcome {
		if i >= k {
			return sweep.Outcome{Err: sweep.Errf(sweep.CodeCanceled, "", "interrupted")}
		}
		return local.Place(ctx, i, c)
	}), sweep.ExecOptions{Parallel: 1, Checkpoint: ckpt})

	o.CheckpointDir = dir
	o.Stats = &SweepStats{}
	o.Runner = runner.New(0)
	got, err := BuildProfiles(o)
	if err != nil {
		t.Fatal(err)
	}
	if o.Stats.Resumed != k || o.Stats.Jobs != len(cells) {
		t.Fatalf("resumed %d of %d cells, want %d of %d", o.Stats.Resumed, o.Stats.Jobs, k, len(cells))
	}
	if runs := o.Runner.Stats().Runs; runs != len(cells)-k {
		t.Fatalf("resumed run simulated %d cells, want %d", runs, len(cells)-k)
	}
	if g, w := got.Table2().String(), ref.Table2().String(); g != w {
		t.Fatalf("resumed Table 2 differs from the uninterrupted run:\n%s\nwant:\n%s", g, w)
	}
}
