package sweep

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/runner"
)

// TestLocalSharesCacheWithDo: Local places a cell under its precomputed
// Key rather than re-hashing the job, so the address must be the one Do
// files the job under. A job resolved via Do is then a hit when placed via
// Local, and the reverse.
func TestLocalSharesCacheWithDo(t *testing.T) {
	w, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(strat core.Strategy) Cell {
		j := runner.Job{Workload: w, Strategy: strat, Config: core.DefaultConfig()}
		key, ok := j.Key()
		if !ok {
			t.Fatal("test job is not cacheable")
		}
		return Cell{Key: key, Job: j}
	}
	ctx := context.Background()
	r := runner.New(1)
	l := Local{Runner: r}

	a := cell(core.External(600))
	if out := r.Do(ctx, a.Job); out.Err != nil || out.Cached {
		t.Fatalf("first Do: err=%v cached=%v", out.Err, out.Cached)
	}
	if out := l.Place(ctx, 0, a); out.Err != nil || !out.Cached {
		t.Fatalf("Local after Do: err=%v cached=%v, want a hit", out.Err, out.Cached)
	}

	b := cell(core.External(800))
	if out := l.Place(ctx, 0, b); out.Err != nil || out.Cached {
		t.Fatalf("first Local: err=%v cached=%v", out.Err, out.Cached)
	}
	if out := r.Do(ctx, b.Job); out.Err != nil || !out.Cached {
		t.Fatalf("Do after Local: err=%v cached=%v, want a hit", out.Err, out.Cached)
	}
	if st := r.Stats(); st.Runs != 2 || st.Hits != 2 {
		t.Fatalf("runs=%d hits=%d, want 2/2", st.Runs, st.Hits)
	}
}

// TestObserverPanicBackstop: an OnRecord that panics on every record
// cannot kill a sweep, whether the panic comes from a replayed record
// (raised on the caller's goroutine) or a live one (raised on a worker).
// The sweep still places every remaining cell, the observer still sees
// every record, and Execute returns every outcome.
func TestObserverPanicBackstop(t *testing.T) {
	w, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	var cells []Cell
	for _, f := range cfg.Node.Table.Frequencies() {
		j := runner.Job{Workload: w, Strategy: core.External(f), Config: cfg}
		key, _ := j.Key()
		cells = append(cells, Cell{Key: key, Job: j})
	}
	const journaled = 2 // cells replayed from the checkpoint
	for _, parallel := range []int{1, 4} {
		plan := NewPlan(cells)
		path := CheckpointPath(t.TempDir(), plan)
		ck, err := OpenCheckpoint(nil, path, plan)
		if err != nil {
			t.Fatal(err)
		}
		r := runner.New(parallel)
		for i := 0; i < journaled; i++ {
			ck.append(i, Local{Runner: r}.Place(context.Background(), i, cells[i]))
		}
		ck.finish(false)
		if ck, err = OpenCheckpoint(nil, path, plan); err != nil {
			t.Fatal(err)
		}

		calls := 0
		outs, sum := Execute(context.Background(), plan, Local{Runner: r}, ExecOptions{
			Parallel:   parallel,
			Checkpoint: ck,
			OnRecord: func(SweepRecord) {
				calls++
				panic("observer blew up")
			},
		})
		if calls != len(cells) {
			t.Fatalf("parallel=%d: observer called %d times, want %d", parallel, calls, len(cells))
		}
		if sum.Resumed != journaled || sum.Errors != 0 {
			t.Fatalf("parallel=%d: summary %+v, want %d resumed and no errors", parallel, sum, journaled)
		}
		for i, o := range outs {
			if o.Err != nil || o.ResultJSON() == nil {
				t.Fatalf("parallel=%d: cell %d: err=%v, want a result", parallel, i, o.Err)
			}
		}
		// The journaled cells ran once to fill the journal, the rest live.
		if st := r.Stats(); st.Runs != len(cells) {
			t.Fatalf("parallel=%d: runs=%d, want %d", parallel, st.Runs, len(cells))
		}
	}
}
