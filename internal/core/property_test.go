package core_test

import (
	"math/rand"
	"testing"
	"time"

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

// TestPropertyEnergyAndResidency: joules and time are conserved exactly.
// The cluster total is the sum of the per-node totals, no energy
// component is negative, and each node's residency over the operating
// points adds up to the run's elapsed time.
func TestPropertyEnergyAndResidency(t *testing.T) {
	for i, j := range randomJobs(t, 4, 32) {
		res, err := core.Run(j.w, j.s, core.DefaultConfig())
		if err != nil {
			t.Fatalf("cell %d (%s/%s): %v", i, j.w.Name(), j.s, err)
		}
		var total float64
		for n, e := range res.NodeEnergy {
			total += e.Total()
			if e.CPU < 0 || e.Memory < 0 || e.NIC < 0 || e.Disk < 0 || e.Base < 0 {
				t.Errorf("cell %d (%s/%s) node %d: negative energy component %+v", i, j.w.Name(), j.s, n, e)
			}
		}
		if total != res.Energy {
			t.Errorf("cell %d (%s/%s): node energies sum to %v J, result says %v J", i, j.w.Name(), j.s, total, res.Energy)
		}
		if len(res.TimeAtOp) != len(res.NodeEnergy) {
			t.Fatalf("cell %d: residency for %d nodes, energy for %d", i, len(res.TimeAtOp), len(res.NodeEnergy))
		}
		for n, at := range res.TimeAtOp {
			var sum time.Duration
			for _, d := range at {
				sum += d
			}
			if sum != res.Elapsed {
				t.Errorf("cell %d (%s/%s) node %d: residency sums to %v, elapsed %v", i, j.w.Name(), j.s, n, sum, res.Elapsed)
			}
		}
	}
}

// TestPropertyStaticPointKeepsMemoryAndTraffic: frequency scales only the
// CPU's work. At every static operating point, each rank's memory
// stalls, disk time, message count and byte count equal the NoDVS run's
// exactly, for every class-S code at every rank count it builds at.
func TestPropertyStaticPointKeepsMemoryAndTraffic(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, code := range npb.Codes() {
		for _, ranks := range []int{1, 2, 4, 8, 9} {
			w, err := npb.New(code, npb.ClassS, ranks)
			if err != nil {
				continue // the kernel does not run at this rank count
			}
			base, err := core.Run(w, core.NoDVS(), cfg)
			if err != nil {
				t.Fatalf("%s NoDVS: %v", w.Name(), err)
			}
			for _, f := range cfg.Node.Table.Frequencies() {
				res, err := core.Run(w, core.External(f), cfg)
				if err != nil {
					t.Fatalf("%s at %v MHz: %v", w.Name(), f, err)
				}
				if len(res.RankStats) != ranks || len(base.RankStats) != ranks {
					t.Fatalf("%s at %v MHz: stats for %d ranks, NoDVS for %d; want %d",
						w.Name(), f, len(res.RankStats), len(base.RankStats), ranks)
				}
				for r, got := range res.RankStats {
					want := base.RankStats[r]
					if got.Memory != want.Memory || got.Disk != want.Disk ||
						got.Messages != want.Messages || got.Bytes != want.Bytes {
						t.Errorf("%s at %v MHz rank %d: memory %v, disk %v, %d msgs, %d B; NoDVS has %v, %v, %d msgs, %d B",
							w.Name(), f, r, got.Memory, got.Disk, got.Messages, got.Bytes,
							want.Memory, want.Disk, want.Messages, want.Bytes)
					}
				}
			}
		}
	}
}
