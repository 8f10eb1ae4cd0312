package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/npb"
)

// randomJobs draws a seeded sample of (workload, strategy) cells across
// the full registries: every NPB code at class S with small rank counts,
// every registered strategy via its canonical Example. Deterministic per
// seed, so a failure names a reproducible cell.
func randomJobs(t *testing.T, seed int64, n int) []struct {
	w npb.Workload
	s core.Strategy
} {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	codes := npb.Codes()
	regs := core.Strategies()
	if len(codes) == 0 || len(regs) == 0 {
		t.Fatal("empty registries")
	}
	var jobs []struct {
		w npb.Workload
		s core.Strategy
	}
	for len(jobs) < n {
		code := codes[rng.Intn(len(codes))]
		ranks := []int{1, 2, 4}[rng.Intn(3)]
		w, err := npb.New(code, npb.ClassS, ranks)
		if err != nil {
			// Some kernels constrain rank counts; redraw.
			continue
		}
		s := regs[rng.Intn(len(regs))].Example()
		jobs = append(jobs, struct {
			w npb.Workload
			s core.Strategy
		}{w, s})
	}
	return jobs
}

// TestPropertyRunDeterministic: the simulation kernel is a pure function
// of its inputs — running the same cell twice yields bit-identical
// elapsed time and energy. This is the property the memo cache, the
// fleet's consistent-hash routing, and the chaos harness's byte-identity
// invariant all assume.
func TestPropertyRunDeterministic(t *testing.T) {
	for i, j := range randomJobs(t, 1, 24) {
		a, err := core.Run(j.w, j.s, core.DefaultConfig())
		if err != nil {
			t.Fatalf("cell %d (%s/%s): %v", i, j.w.Name(), j.s, err)
		}
		b, err := core.Run(j.w, j.s, core.DefaultConfig())
		if err != nil {
			t.Fatalf("cell %d rerun: %v", i, err)
		}
		if a.Elapsed != b.Elapsed || a.Energy != b.Energy {
			t.Errorf("cell %d (%s/%s): rerun diverged: elapsed %v vs %v, energy %v vs %v",
				i, j.w.Name(), j.s, a.Elapsed, b.Elapsed, a.Energy, b.Energy)
		}
	}
}

// TestPropertyInstrumentedParity: Run and RunInstrumented share one
// execution path (runOn), so the PowerPack instrumentation must be
// observationally free — identical elapsed and joules for any random
// cell, not just the hand-picked parity cases.
func TestPropertyInstrumentedParity(t *testing.T) {
	for i, j := range randomJobs(t, 2, 12) {
		plain, err := core.Run(j.w, j.s, core.DefaultConfig())
		if err != nil {
			t.Fatalf("cell %d (%s/%s): %v", i, j.w.Name(), j.s, err)
		}
		inst, err := core.RunInstrumented(j.w, j.s, core.DefaultConfig(), 0, 0)
		if err != nil {
			t.Fatalf("cell %d instrumented: %v", i, err)
		}
		if plain.Elapsed != inst.Elapsed || plain.Energy != inst.Energy {
			t.Errorf("cell %d (%s/%s): instrumented run diverged: elapsed %v vs %v, energy %v vs %v",
				i, j.w.Name(), j.s, plain.Elapsed, inst.Elapsed, plain.Energy, inst.Energy)
		}
		if plain.Transitions != inst.Transitions {
			t.Errorf("cell %d: transitions %d vs %d", i, plain.Transitions, inst.Transitions)
		}
	}
}

// TestPropertyExternalTopIsNoDVS: a static EXTERNAL strategy at the top
// operating point is NoDVS exactly — same elapsed, joules and transition
// count. The grid subcommand relies on this when it skips the top
// frequency and reuses the baseline row.
func TestPropertyExternalTopIsNoDVS(t *testing.T) {
	cfg := core.DefaultConfig()
	top := core.External(cfg.Node.Table.Top().Frequency)
	for i, j := range randomJobs(t, 3, 16) {
		base, err := core.Run(j.w, core.NoDVS(), cfg)
		if err != nil {
			t.Fatalf("cell %d (%s): %v", i, j.w.Name(), err)
		}
		ext, err := core.Run(j.w, top, cfg)
		if err != nil {
			t.Fatalf("cell %d (%s) external: %v", i, j.w.Name(), err)
		}
		if base.Elapsed != ext.Elapsed || base.Energy != ext.Energy || base.Transitions != ext.Transitions {
			t.Errorf("cell %d (%s): External(top) = %v/%v J/%d transitions, NoDVS = %v/%v J/%d",
				i, j.w.Name(), ext.Elapsed, ext.Energy, ext.Transitions,
				base.Elapsed, base.Energy, base.Transitions)
		}
	}
}
