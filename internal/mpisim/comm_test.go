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
		rowRanks[r.ID()] = row.Rank(r)
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

func TestCommBarrierOnlyBlocksMembers(t *testing.T) {
	k, w := world(t, 4)
	var leftAt [4]sim.Time
	launch(t, k, w, func(r *Rank) {
		c := r.Split(1, r.ID()%2) // evens and odds
		if r.ID() == 0 {
			r.Proc().Sleep(time.Second) // delay one even rank
		}
		c.Barrier(r)
		leftAt[r.ID()] = r.Now()
	})
	// Rank 2 waited for rank 0; ranks 1 and 3 did not.
	if leftAt[2] < sim.Time(time.Second) {
		t.Errorf("rank 2 left its comm barrier at %v, before rank 0 arrived", leftAt[2])
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

func TestCommBcast(t *testing.T) {
	k, w := world(t, 9)
	launch(t, k, w, func(r *Rank) {
		c := r.Split(1, r.ID()/3)
		c.Bcast(r, 0, 4096)
		if c.WorldRank(0) != (r.ID()/3)*3 {
			t.Errorf("comm root world-rank mismatch")
		}
	})
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

func TestAllgatherMovesAllBlocks(t *testing.T) {
	k, w := world(t, 6)
	launch(t, k, w, func(r *Rank) { r.Allgather(1000) })
	// Ring: each rank sends n−1 messages of 1000 B.
	if st := w.net.Stats(); st.Bytes != 6*5*1000 {
		t.Fatalf("allgather moved %d bytes", st.Bytes)
	}
}

func TestScatter(t *testing.T) {
	k, w := world(t, 5)
	launch(t, k, w, func(r *Rank) { r.Scatter(2, 512) })
	if st := w.net.Stats(); st.Bytes != 4*512 {
		t.Fatalf("scatter moved %d bytes", st.Bytes)
	}
}

func TestReduceScatterAndScan(t *testing.T) {
	k, w := world(t, 4)
	launch(t, k, w, func(r *Rank) {
		r.ReduceScatter(256)
		r.Scan(64)
	})
}

func TestScanIsPipelined(t *testing.T) {
	// Rank i cannot finish its scan before rank i−1 has sent.
	k, w := world(t, 4)
	var done [4]sim.Time
	launch(t, k, w, func(r *Rank) {
		if r.ID() == 0 {
			r.Proc().Sleep(time.Second)
		}
		r.Scan(64)
		done[r.ID()] = r.Now()
	})
	for i := 1; i < 4; i++ {
		if done[i] < sim.Time(time.Second) {
			t.Errorf("rank %d finished scan at %v before rank 0 started", i, done[i])
		}
		if done[i] < done[i-1] {
			t.Errorf("scan not pipelined: %v", done)
		}
	}
}

func TestSingleRankCollectives2(t *testing.T) {
	k, w := world(t, 1)
	launch(t, k, w, func(r *Rank) {
		r.Allgather(100)
		r.Scatter(0, 100)
		r.ReduceScatter(100)
		r.Scan(100)
	})
}

// Property: any random sequence of world collectives completes without
// deadlock and with conserved message counts across ranks.
func TestPropertyRandomCollectiveSequences(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7) // 2..8 ranks
		ops := make([]int, 4+rng.Intn(8))
		for i := range ops {
			ops[i] = rng.Intn(8)
		}
		bytes := 1 + rng.Intn(2000)
		k := sim.NewKernel()
		w := worldQ(k, n)
		if err := w.Launch("prop", func(r *Rank) {
			for _, op := range ops {
				switch op {
				case 0:
					r.Barrier()
				case 1:
					r.Bcast(0, bytes)
				case 2:
					r.Reduce(n-1, bytes)
				case 3:
					r.Allreduce(bytes)
				case 4:
					r.Alltoall(bytes)
				case 5:
					r.Allgather(bytes)
				case 6:
					r.ReduceScatter(bytes)
				case 7:
					r.Scan(bytes)
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

func TestIprobeAndProbe(t *testing.T) {
	k, w := world(t, 2)
	var probed, received int
	var sawNothing bool
	launch(t, k, w, func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Proc().Sleep(time.Second)
			r.Send(1, 5, 777)
		case 1:
			ok, _ := r.Iprobe(0, 5)
			sawNothing = !ok
			probed = r.Probe(0, 5)
			received = r.Recv(0, 5)
		}
	})
	if !sawNothing {
		t.Error("Iprobe saw a message before any send")
	}
	if probed != 777 || received != 777 {
		t.Fatalf("probe/recv = %d/%d", probed, received)
	}
}

func TestIprobeDoesNotConsume(t *testing.T) {
	k, w := world(t, 2)
	launch(t, k, w, func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 1, 10)
		case 1:
			r.Proc().Sleep(time.Second)
			for i := 0; i < 3; i++ {
				if ok, _ := r.Iprobe(0, 1); !ok {
					t.Errorf("probe %d lost the message", i)
				}
			}
			r.Recv(0, 1)
			if ok, _ := r.Iprobe(0, 1); ok {
				t.Error("message still visible after Recv")
			}
		}
	})
}

func TestWaitAnyPicksFirstCompleted(t *testing.T) {
	k, w := world(t, 3)
	var idx int
	launch(t, k, w, func(r *Rank) {
		switch r.ID() {
		case 0:
			reqs := []*Request{r.Irecv(1, 0), r.Irecv(2, 0)}
			idx = r.WaitAny(reqs...)
			r.WaitAll(reqs[1-idx])
		case 1:
			r.Proc().Sleep(2 * time.Second)
			r.Send(0, 0, 1)
		case 2:
			r.Proc().Sleep(time.Second)
			r.Send(0, 0, 2)
		}
	})
	if idx != 1 {
		t.Fatalf("WaitAny returned %d, want 1 (rank 2 sent first)", idx)
	}
}

func TestWaitAnyValidation(t *testing.T) {
	k, w := world(t, 2)
	if err := w.Launch("t", func(r *Rank) {
		if r.ID() == 0 {
			r.WaitAny()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err == nil {
		t.Fatal("empty WaitAny accepted")
	}
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
