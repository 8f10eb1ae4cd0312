package runner

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/sched"
)

func quickCfg() core.Config { return core.DefaultConfig() }

// doEach runs jobs through Do one after another, in submission order.
func doEach(r *Runner, jobs []Job) []Outcome {
	outs := make([]Outcome, len(jobs))
	for i, j := range jobs {
		outs[i] = r.Do(context.Background(), j)
	}
	return outs
}

// firstErr returns the first error among outcomes, in submission order.
func firstErr(outs []Outcome) error {
	for _, o := range outs {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}

// doConcurrently calls Do for every job from its own goroutine, as sweep
// workers and concurrent service requests do, so identical jobs coalesce.
// Outcomes come back in submission order.
func doConcurrently(r *Runner, jobs []Job) []Outcome {
	outs := make([]Outcome, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = r.Do(context.Background(), j)
		}()
	}
	wg.Wait()
	return outs
}

func ftS(t testing.TB) npb.Workload {
	t.Helper()
	w, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestKeyDistinguishesInputs(t *testing.T) {
	w := ftS(t)
	cfg := quickCfg()
	base := Job{Workload: w, Strategy: core.NoDVS(), Config: cfg}
	k0, ok := base.Key()
	if !ok || k0 == "" {
		t.Fatal("base job should be cacheable")
	}
	altCfg := cfg
	altCfg.Node.Transition.Latency = 5 * time.Millisecond
	w4, err := npb.FT(npb.ClassS, 4)
	if err != nil {
		t.Fatal(err)
	}
	variants := []Job{
		{Workload: w, Strategy: core.External(600), Config: cfg},
		{Workload: w, Strategy: core.Daemon(sched.CPUSpeedV11()), Config: cfg},
		{Workload: w, Strategy: core.Daemon(sched.CPUSpeedV121()), Config: cfg},
		{Workload: w4, Strategy: core.NoDVS(), Config: cfg},
		{Workload: w, Strategy: core.NoDVS(), Config: altCfg},
	}
	seen := map[string]int{k0: -1}
	for i, j := range variants {
		k, ok := j.Key()
		if !ok {
			t.Fatalf("variant %d should be cacheable", i)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with %d", i, prev)
		}
		seen[k] = i
	}
}

func TestKeyDistinguishesInternalParams(t *testing.T) {
	a, err := npb.FTInternal(npb.ClassS, 2, 1400, 600)
	if err != nil {
		t.Fatal(err)
	}
	b, err := npb.FTInternal(npb.ClassS, 2, 1200, 800)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	ka, oka := Job{Workload: a, Strategy: core.NoDVS(), Config: cfg}.Key()
	kb, okb := Job{Workload: b, Strategy: core.NoDVS(), Config: cfg}.Key()
	if !oka || !okb {
		t.Fatal("internal variants with declared params should be cacheable")
	}
	if ka == kb {
		t.Fatal("different internal frequencies must not share a key")
	}
}

func TestKeyRefusesIncompleteIdentity(t *testing.T) {
	w, err := npb.Custom("SYNTH", 2, npb.ComputeOp(1), npb.BarrierOp())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := (Job{Workload: w, Strategy: core.NoDVS(), Config: quickCfg()}).Key(); ok {
		t.Fatal("synthetic workload without declared params must be uncacheable")
	}
}

// TestRunContextCancelledWaiterLeavesCacheIntact starts one simulation,
// then cancels a second identical request while it would coalesce; the
// cache entry must stay usable for later callers.
func TestRunContextCancelledWaiterLeavesCacheIntact(t *testing.T) {
	job := Job{Workload: ftS(t), Strategy: core.External(600), Config: quickCfg()}
	r := New(2)
	if out := r.Do(context.Background(), job); out.Err != nil {
		t.Fatal(out.Err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out := r.Do(ctx, job); !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", out.Err)
	}
	if out := r.Do(context.Background(), job); out.Err != nil {
		t.Fatal(out.Err)
	}
	if st := r.Stats(); st.Runs != 1 || st.Hits != 1 {
		t.Fatalf("runs=%d hits=%d, want 1/1 (cancelled waiter counts as neither)", st.Runs, st.Hits)
	}
}
