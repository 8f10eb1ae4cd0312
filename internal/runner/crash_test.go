package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/npb"
)

// swapCoreRun replaces the simulation entry point for the duration of a
// test. Tests using it must not run in parallel.
func swapCoreRun(t *testing.T, fn func(npb.Workload, core.Strategy, core.Config) (core.Result, error)) {
	t.Helper()
	orig := coreRun
	coreRun = func(_ context.Context, w npb.Workload, s core.Strategy, c core.Config) (core.Result, error) {
		return fn(w, s, c)
	}
	t.Cleanup(func() { coreRun = orig })
}

// TestWorkloadBodyPanicNotMemoized is the acceptance scenario: a workload
// body that panics yields an error outcome for that cell only —
// the other cells complete, duplicate submissions coalesce and unblock —
// and the poisoned cell is not memoized, so re-submitting the fixed job
// gets a fresh successful run.
func TestWorkloadBodyPanicNotMemoized(t *testing.T) {
	w := ftS(t)
	cfg := quickCfg()
	broken := w
	broken.Body = func(r *mpisim.Rank) { panic("deliberate body panic") }
	if _, ok := (Job{Workload: broken, Strategy: core.External(600), Config: cfg}).Key(); !ok {
		t.Fatal("broken workload must stay cacheable (same declared identity)")
	}
	bad := Job{Workload: broken, Strategy: core.External(600), Config: cfg}
	good := Job{Workload: w, Strategy: core.External(800), Config: cfg}
	r := New(4)
	outs := doConcurrently(r, []Job{bad, bad, bad, good}) // duplicates must coalesce and unblock
	for i := 0; i < 3; i++ {
		if outs[i].Err == nil {
			t.Fatalf("panicking cell %d returned no error", i)
		}
	}
	if outs[3].Err != nil {
		t.Fatalf("healthy cell failed alongside the panicking one: %v", outs[3].Err)
	}
	st := r.Stats()
	if st.Poisoned == 0 {
		t.Fatalf("failure policy did not fire: %+v", st)
	}
	// The fixed job shares the broken job's content address; a memoized
	// failure would be served here instead of a fresh simulation.
	fixed := Job{Workload: w, Strategy: core.External(600), Config: cfg}
	if bk, _ := bad.Key(); func() string { k, _ := fixed.Key(); return k }() != bk {
		t.Fatal("fixed job must share the broken job's key for this test to mean anything")
	}
	out := r.Do(context.Background(), fixed)
	if out.Err != nil {
		t.Fatalf("fixed job still failing: %v", out.Err)
	}
	if out.Cached {
		t.Fatal("fixed job served from cache: the panic outcome was memoized")
	}
}

// TestCoreRunPanicContainedInWorkers injects a panic at the core.Run call
// site — the calling-goroutine failure mode the sim kernel cannot recover
// — and asserts concurrent Do callers contain it: the cell gets a
// *PanicError, coalesced waiters unblock, other cells complete, and the
// process stays up.
func TestCoreRunPanicContainedInWorkers(t *testing.T) {
	poison := core.External(800)
	swapCoreRun(t, func(w npb.Workload, s core.Strategy, c core.Config) (core.Result, error) {
		if s.Kind == poison.Kind && s.Freq == poison.Freq {
			panic("injected core.Run panic")
		}
		return core.Run(w, s, c)
	})
	w := ftS(t)
	cfg := quickCfg()
	bad := Job{Workload: w, Strategy: poison, Config: cfg}
	var jobs []Job
	jobs = append(jobs, bad, bad, bad) // coalescing waiters on the panicking cell
	jobs = append(jobs,
		Job{Workload: w, Strategy: core.External(600), Config: cfg},
		Job{Workload: w, Strategy: core.External(1000), Config: cfg},
		Job{Workload: w, Strategy: core.NoDVS(), Config: cfg},
	)
	r := New(4)
	outs := doConcurrently(r, jobs)
	for i := 0; i < 3; i++ {
		var pe *PanicError
		if !errors.As(outs[i].Err, &pe) {
			t.Fatalf("cell %d: err = %v, want *PanicError", i, outs[i].Err)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("cell %d: PanicError carries no stack", i)
		}
	}
	for i := 3; i < len(jobs); i++ {
		if outs[i].Err != nil {
			t.Fatalf("healthy cell %d failed: %v", i, outs[i].Err)
		}
	}
	st := r.Stats()
	if st.Panics == 0 {
		t.Fatalf("recovered panic not counted: %+v", st)
	}
	// Heal the injection: the same cell must now run fresh and succeed.
	swapCoreRun(t, core.Run)
	out := r.Do(context.Background(), bad)
	if out.Err != nil || out.Cached {
		t.Fatalf("healed cell: err=%v cached=%v, want fresh success", out.Err, out.Cached)
	}
}

// TestSerialPanicContained covers a lone Do and the uncacheable path
// through the same containment.
func TestSerialPanicContained(t *testing.T) {
	swapCoreRun(t, func(npb.Workload, core.Strategy, core.Config) (core.Result, error) {
		panic("serial panic")
	})
	w := ftS(t)
	cfg := quickCfg()
	r := New(1)
	if out := r.Do(context.Background(), Job{Workload: w, Strategy: core.External(600), Config: cfg}); out.Err == nil {
		t.Fatal("panic did not surface as error on the serial path")
	}
	uncacheable := w
	uncacheable.Body = nil // Key() refuses; exec still contains the panic
	if out := r.Do(context.Background(), Job{Workload: uncacheable, Strategy: core.NoDVS(), Config: cfg}); out.Err == nil {
		t.Fatal("panic did not surface as error on the uncacheable path")
	}
	if st := r.Stats(); st.Panics != 2 {
		t.Fatalf("panics=%d, want 2", st.Panics)
	}
}

// TestTransientErrorNotPoisoning asserts the default failure policy: an
// error outcome is never memoized, so the next identical job re-runs —
// and succeeds once the fault has cleared.
func TestTransientErrorNotPoisoning(t *testing.T) {
	var mu sync.Mutex
	failures := 1
	swapCoreRun(t, func(w npb.Workload, s core.Strategy, c core.Config) (core.Result, error) {
		mu.Lock()
		if failures > 0 {
			failures--
			mu.Unlock()
			return core.Result{}, fmt.Errorf("transient fault")
		}
		mu.Unlock()
		return core.Run(w, s, c)
	})
	w := ftS(t)
	job := Job{Workload: w, Strategy: core.External(600), Config: quickCfg()}
	r := New(2)
	if out := r.Do(context.Background(), job); out.Err == nil {
		t.Fatal("first run should fail")
	}
	out := r.Do(context.Background(), job)
	if out.Err != nil {
		t.Fatalf("fault cleared but job still failing: the error was memoized (%v)", out.Err)
	}
	if out.Cached {
		t.Fatal("second run served from cache; wanted a fresh simulation")
	}
	st := r.Stats()
	if st.Runs != 2 || st.Hits != 0 || st.Poisoned != 1 {
		t.Fatalf("runs=%d hits=%d poisoned=%d, want 2/0/1", st.Runs, st.Hits, st.Poisoned)
	}
	// Third submission is a plain cache hit on the successful result.
	if out := r.Do(context.Background(), job); out.Err != nil || !out.Cached {
		t.Fatalf("post-recovery hit: err=%v cached=%v", out.Err, out.Cached)
	}
}
