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
