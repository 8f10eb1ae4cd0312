package sim_test

// The kernel's own alloc tests (alloc_test.go) pin the handoff substrate
// at zero allocations. This external-package test pins the mpisim message
// path over it — Send/Recv and the collectives through netsim and the
// node model — at zero steady-state allocations, so a kernel change that
// sneaks allocations into the proc switch (or an MPI-layer change that
// regresses the message path) fails here rather than only showing up in
// -benchmem.

import (
	"runtime"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/sim"
)

// msgPathAllocBudget is the steady-state allocation count per operation
// across all ranks. The message path costs nothing: each rank recycles
// its requests and wakes its proc in place, the world recycles deliveries,
// every kernel event comes from the freelist, and every proc switch is a
// direct continuation handoff. The budget leaves room only for a stray
// runtime allocation in the whole-process Mallocs count.
const msgPathAllocBudget = 0.05

// steadyStateAllocs runs op on every rank of a fresh world warmup times,
// then rounds times, and returns the process-wide mallocs per round of the
// second phase, read from rank 0.
func steadyStateAllocs(t *testing.T, ranks, warmup, rounds int, op func(r *mpisim.Rank)) float64 {
	t.Helper()
	k := sim.NewKernel()
	nodes := make([]*node.Node, ranks)
	for i := range nodes {
		nodes[i] = node.MustNew(k, i, node.DefaultConfig())
	}
	net := netsim.MustNew(k, ranks, netsim.DefaultConfig())
	w, err := mpisim.NewWorld(k, net, nodes, mpisim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mallocs uint64
	if err := w.Launch("alloc", func(r *mpisim.Rank) {
		for i := 0; i < warmup; i++ {
			op(r)
		}
		// Drain the rank's operations before each reading, so that the
		// rounds' operations run, not only their issuing, between them.
		var m0, m1 runtime.MemStats
		r.Now()
		if r.ID() == 0 {
			runtime.ReadMemStats(&m0)
		}
		for i := 0; i < rounds; i++ {
			op(r)
		}
		r.Now()
		if r.ID() == 0 {
			runtime.ReadMemStats(&m1)
			mallocs = m1.Mallocs - m0.Mallocs
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	return float64(mallocs) / float64(rounds)
}

func TestMPIPingPongSteadyStateAllocBudget(t *testing.T) {
	perRound := steadyStateAllocs(t, 2, 64, 1024, func(r *mpisim.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 64)
			r.Recv(1, 1)
		} else {
			r.Recv(0, 0)
			r.Send(0, 1, 64)
		}
	})
	if perRound > msgPathAllocBudget {
		t.Fatalf("ping-pong round trip allocates %.2f objects, budget %v", perRound, msgPathAllocBudget)
	}
}

func TestMPICollectivesSteadyStateAllocBudget(t *testing.T) {
	perOp := steadyStateAllocs(t, 8, 16, 512, func(r *mpisim.Rank) {
		r.Alltoall(4096)
		r.Allreduce(8)
		r.Barrier()
	})
	if perOp > msgPathAllocBudget {
		t.Fatalf("Alltoall+Allreduce+Barrier on 8 ranks allocates %.2f objects, budget %v", perOp, msgPathAllocBudget)
	}
}
