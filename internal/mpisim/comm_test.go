package mpisim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/sim"
)

func TestSplitRowsAndColumns(t *testing.T) {
	// A 4×2 grid split by row and by column, CG-style.
	k, w := world(t, 8)
	rowSizes := make([]int, 8)
	colSizes := make([]int, 8)
	rowRanks := make([]int, 8)
	launch(t, k, w, func(r *Rank) {
		row := r.Split(1, r.ID()/2) // 4 rows of 2
		col := r.Split(2, r.ID()%2) // 2 columns of 4
		rowSizes[r.ID()] = row.Size()
		colSizes[r.ID()] = col.Size()
		rowRanks[r.ID()] = row.member(r)
	})
	for i := 0; i < 8; i++ {
		if rowSizes[i] != 2 {
			t.Errorf("rank %d row size %d", i, rowSizes[i])
		}
		if colSizes[i] != 4 {
			t.Errorf("rank %d col size %d", i, colSizes[i])
		}
		if want := i % 2; rowRanks[i] != want {
			t.Errorf("rank %d row-rank %d, want %d", i, rowRanks[i], want)
		}
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	k, w := world(t, 4)
	var got [4]bool
	launch(t, k, w, func(r *Rank) {
		c := r.Split(1, map[bool]int{true: 0, false: -1}[r.ID() < 2])
		got[r.ID()] = c != nil
	})
	if !got[0] || !got[1] || got[2] || got[3] {
		t.Fatalf("membership = %v", got)
	}
}

func TestCommAllreduceOnlyBlocksMembers(t *testing.T) {
	k, w := world(t, 4)
	var leftAt [4]sim.Time
	launch(t, k, w, func(r *Rank) {
		c := r.Split(1, r.ID()%2) // evens and odds
		if r.ID() == 0 {
			r.Proc().Sleep(time.Second) // delay one even rank
		}
		c.Allreduce(r, 8)
		leftAt[r.ID()] = r.Now()
	})
	// Rank 2 waited for rank 0; ranks 1 and 3 did not.
	if leftAt[2] < sim.Time(time.Second) {
		t.Errorf("rank 2 left its comm allreduce at %v, before rank 0 arrived", leftAt[2])
	}
	if leftAt[1] >= sim.Time(time.Second) || leftAt[3] >= sim.Time(time.Second) {
		t.Errorf("odd ranks were blocked by the even comm: %v", leftAt)
	}
}

func TestCommAllreduceSizes(t *testing.T) {
	// Works for power-of-two and odd member counts.
	for _, split := range []struct {
		n      int
		colors func(id int) int
	}{
		{8, func(id int) int { return id % 2 }}, // two comms of 4
		{6, func(id int) int { return id / 3 }}, // two comms of 3
		{5, func(id int) int { return 0 }},      // one comm of 5
	} {
		k, w := world(t, split.n)
		launch(t, k, w, func(r *Rank) {
			c := r.Split(1, split.colors(r.ID()))
			c.Allreduce(r, 64)
			c.Allreduce(r, 64) // twice: sequence numbers must not collide
		})
	}
}

func TestConcurrentCommsDoNotCrossMatch(t *testing.T) {
	// Row and column collectives interleaved: tags must stay disjoint.
	k, w := world(t, 4)
	launch(t, k, w, func(r *Rank) {
		row := r.Split(1, r.ID()/2)
		col := r.Split(2, r.ID()%2)
		for i := 0; i < 5; i++ {
			row.Allreduce(r, 8)
			col.Allreduce(r, 16)
		}
		r.Barrier()
	})
}

func TestSplitColorChangePanics(t *testing.T) {
	k, w := world(t, 2)
	if err := w.Launch("t", func(r *Rank) {
		r.Split(1, 0)
		if r.ID() == 0 {
			// Re-splitting the same key with a different color is a bug.
			defer func() { recover(); panic("rethrow") }()
			r.Split(1, 1)
		} else {
			r.Split(1, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err == nil {
		t.Fatal("color change not rejected")
	}
}

// Every collective on a one-rank world, and on a one-member comm, returns
// without sending anything.
func TestSingleRankCollectives2(t *testing.T) {
	k, w := world(t, 1)
	launch(t, k, w, func(r *Rank) {
		r.Allreduce(100)
		r.Alltoall(100)
		r.Alltoallv([]int{100})
		r.Split(1, 0).Allreduce(r, 100)
	})
	if st := w.net.Stats(); st.Messages != 0 {
		t.Fatalf("one-rank collectives sent %d messages", st.Messages)
	}
}

// Property: any random sequence of world collectives completes without
// deadlock and with conserved message counts across ranks.
func TestPropertyRandomCollectiveSequences(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7) // 2..8 ranks
		ops := make([]int, 4+rng.Intn(8))
		for i := range ops {
			ops[i] = rng.Intn(4)
		}
		bytes := 1 + rng.Intn(2000)
		bytesTo := make([]int, n)
		for d := range bytesTo {
			bytesTo[d] = bytes
		}
		k := sim.NewKernel()
		w := worldQ(k, n)
		if err := w.Launch("prop", func(r *Rank) {
			for _, op := range ops {
				switch op {
				case 0:
					r.Barrier()
				case 1:
					r.Allreduce(bytes)
				case 2:
					r.Alltoall(bytes)
				case 3:
					r.Alltoallv(bytesTo)
				}
			}
		}); err != nil {
			return false
		}
		if err := k.Run(sim.MaxTime); err != nil {
			return false
		}
		return w.Done()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// worldQ builds a world without testing.TB plumbing for property checks.
func worldQ(k *sim.Kernel, n int) *World {
	nodes := make([]*node.Node, n)
	for i := range nodes {
		nodes[i] = node.MustNew(k, i, node.DefaultConfig())
	}
	net := netsim.MustNew(k, netsim.DefaultConfig(n))
	w, err := NewWorld(k, net, nodes, DefaultConfig())
	if err != nil {
		panic(err)
	}
	return w
}

func TestCheckOrderingCleanRun(t *testing.T) {
	// With verification on, a full workload-like mix of traffic passes.
	k := sim.NewKernel()
	nodes := make([]*node.Node, 8)
	for i := range nodes {
		nodes[i] = node.MustNew(k, i, node.DefaultConfig())
	}
	cfg := DefaultConfig()
	cfg.CheckOrdering = true
	w, err := NewWorld(k, netsim.MustNew(k, netsim.DefaultConfig(8)), nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Launch("t", func(r *Rank) {
		for i := 0; i < 5; i++ {
			r.Alltoall(2048)
			r.Allreduce(8)
			next := (r.ID() + 1) % r.Size()
			prev := (r.ID() - 1 + r.Size()) % r.Size()
			r.SendRecv(next, 512, prev, 512, 7)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatalf("ordering verifier tripped on a clean run: %v", err)
	}
}

func TestCheckOrderingSequencesStamped(t *testing.T) {
	k := sim.NewKernel()
	nodes := []*node.Node{
		node.MustNew(k, 0, node.DefaultConfig()),
		node.MustNew(k, 1, node.DefaultConfig()),
	}
	cfg := DefaultConfig()
	cfg.CheckOrdering = true
	w, err := NewWorld(k, netsim.MustNew(k, netsim.DefaultConfig(2)), nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Launch("t", func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 3; i++ {
				r.Send(1, 0, 10)
			}
		} else {
			for i := 0; i < 3; i++ {
				req := r.Irecv(0, 0)
				r.Wait(req)
				if req.seq != uint64(i+1) {
					t.Errorf("message %d carried seq %d", i, req.seq)
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestCheckOrderingTagsApartByTwoToThe20(t *testing.T) {
	// Tags 0 and 1<<20 are different tags, so receiving them in the
	// opposite order to the sends is legal MPI; the verifier must not
	// fold them into one (source, tag) slot.
	k := sim.NewKernel()
	nodes := []*node.Node{
		node.MustNew(k, 0, node.DefaultConfig()),
		node.MustNew(k, 1, node.DefaultConfig()),
	}
	cfg := DefaultConfig()
	cfg.CheckOrdering = true
	w, err := NewWorld(k, netsim.MustNew(k, netsim.DefaultConfig(2)), nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Launch("t", func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1<<20, 10)
			r.Send(1, 0, 10)
		} else {
			r.Recv(0, 0)
			r.Recv(0, 1<<20)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatalf("ordering verifier tripped on a legal program: %v", err)
	}
}
