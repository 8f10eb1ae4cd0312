package mpisim

import (
	"math/bits"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/sim"
)

// world builds an n-rank test world with default configs.
func world(t testing.TB, n int) (*sim.Kernel, *World) {
	t.Helper()
	k := sim.NewKernel()
	net := netsim.MustNew(k, n, netsim.DefaultConfig())
	nodes := make([]*node.Node, n)
	for i := range nodes {
		nodes[i] = node.MustNew(k, i, node.DefaultConfig())
	}
	w, err := NewWorld(k, net, nodes, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k, w
}

func launch(t testing.TB, k *sim.Kernel, w *World, body func(r *Rank)) {
	t.Helper()
	if err := w.Launch("test", body); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !w.Done() {
		t.Fatal("world not done")
	}
}

func TestNewWorldValidation(t *testing.T) {
	k := sim.NewKernel()
	net := netsim.MustNew(k, 2, netsim.DefaultConfig())
	if _, err := NewWorld(k, net, nil, DefaultConfig()); err == nil {
		t.Error("empty world accepted")
	}
	nodes := []*node.Node{
		node.MustNew(k, 0, node.DefaultConfig()),
		node.MustNew(k, 1, node.DefaultConfig()),
		node.MustNew(k, 2, node.DefaultConfig()),
	}
	if _, err := NewWorld(k, net, nodes, DefaultConfig()); err == nil {
		t.Error("more ranks than ports accepted")
	}
	cfg := DefaultConfig()
	cfg.SendOverheadMcyc = -1
	if _, err := NewWorld(k, net, nodes[:2], cfg); err == nil {
		t.Error("negative overhead accepted")
	}
}

func TestDoubleLaunchRejected(t *testing.T) {
	k, w := world(t, 2)
	if err := w.Launch("a", func(r *Rank) {}); err != nil {
		t.Fatal(err)
	}
	if err := w.Launch("b", func(r *Rank) {}); err == nil {
		t.Fatal("second launch accepted")
	}
	_ = k
}

func TestPingPong(t *testing.T) {
	k, w := world(t, 2)
	var got int
	launch(t, k, w, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, 1000)
		} else {
			got = r.Recv(0, 7)
		}
	})
	if got != 1000 {
		t.Fatalf("received %d bytes", got)
	}
	if w.Elapsed() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	k, w := world(t, 2)
	var recvDone sim.Time
	launch(t, k, w, func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Proc().Sleep(time.Second)
			r.Send(1, 0, 100)
		case 1:
			r.Recv(0, 0)
			recvDone = r.Now()
		}
	})
	if recvDone < sim.Time(time.Second) {
		t.Fatalf("recv completed at %v, before the send", recvDone)
	}
	if w.Rank(1).Stats().Wait < 900*time.Millisecond {
		t.Fatalf("receiver wait time = %v, want ≈1s", w.Rank(1).Stats().Wait)
	}
}

func TestSendBeforeRecvIsBuffered(t *testing.T) {
	k, w := world(t, 2)
	var got int
	launch(t, k, w, func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 3, 64)
		case 1:
			r.Proc().Sleep(time.Second)
			got = r.Recv(0, 3)
		}
	})
	if got != 64 {
		t.Fatalf("got %d", got)
	}
}

func TestTagMatching(t *testing.T) {
	k, w := world(t, 2)
	var first, second int
	launch(t, k, w, func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 10, 111)
			r.Send(1, 20, 222)
		case 1:
			// Receive out of tag order.
			second = r.Recv(0, 20)
			first = r.Recv(0, 10)
		}
	})
	if first != 111 || second != 222 {
		t.Fatalf("tag matching broken: %d, %d", first, second)
	}
}

func TestMessageOrderingSameTag(t *testing.T) {
	k, w := world(t, 2)
	var sizes []int
	launch(t, k, w, func(r *Rank) {
		switch r.ID() {
		case 0:
			for i := 1; i <= 5; i++ {
				r.Send(1, 0, i*10)
			}
		case 1:
			for i := 0; i < 5; i++ {
				sizes = append(sizes, r.Recv(0, 0))
			}
		}
	})
	for i, s := range sizes {
		if s != (i+1)*10 {
			t.Fatalf("out-of-order delivery: %v", sizes)
		}
	}
}

func TestAnySource(t *testing.T) {
	k, w := world(t, 3)
	var got int
	launch(t, k, w, func(r *Rank) {
		switch r.ID() {
		case 0:
			got += r.Recv(AnySource, 0)
			got += r.Recv(AnySource, 0)
		default:
			r.Send(0, 0, r.ID())
		}
	})
	if got != 3 {
		t.Fatalf("AnySource sum = %d", got)
	}
}

func TestIsendOverlapsCompute(t *testing.T) {
	// A nonblocking send lets the sender compute while the wire drains:
	// total time ≈ max(compute, wire), not the sum.
	k, w := world(t, 2)
	const bytes = 1250000 // 100 ms of wire at 100 Mb/s
	var senderDone sim.Time
	launch(t, k, w, func(r *Rank) {
		switch r.ID() {
		case 0:
			req := r.Isend(1, 0, bytes)
			r.Compute(140) // 100 ms at 1400 MHz
			r.Wait(req)
			senderDone = r.Now()
		case 1:
			r.Recv(0, 0)
		}
	})
	if senderDone > sim.Time(150*time.Millisecond) {
		t.Fatalf("isend did not overlap: sender done at %v", senderDone)
	}
}

func TestRendezvousSenderBlocksToDelivery(t *testing.T) {
	k, w := world(t, 2)
	cfgBytes := w.cfg.EagerLimit + 1
	var sendDone, recvDone sim.Time
	launch(t, k, w, func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 0, cfgBytes)
			sendDone = r.Now()
		case 1:
			r.Recv(0, 0)
			recvDone = r.Now()
		}
	})
	if sendDone > recvDone {
		t.Fatalf("rendezvous send returned at %v after recv at %v", sendDone, recvDone)
	}
	if d := recvDone.Sub(sendDone); d > time.Millisecond {
		t.Fatalf("rendezvous send returned %v before delivery", d)
	}
}

func TestWaitOnForeignRequestPanics(t *testing.T) {
	k, w := world(t, 2)
	var req *Request
	if err := w.Launch("t", func(r *Rank) {
		if r.ID() == 0 {
			req = r.Isend(1, 0, 10)
			r.Proc().Sleep(time.Millisecond)
		} else {
			r.Recv(0, 0)
			r.Wait(req) // not ours
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err == nil {
		t.Fatal("foreign Wait not rejected")
	}
}

func TestWaitOnFreedRequestPanics(t *testing.T) {
	// Wait frees its request, as MPI_Wait nulls the handle: a second
	// Wait on it is a use after free, even on the owning rank.
	k, w := world(t, 2)
	if err := w.Launch("t", func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 10)
		} else {
			req := r.Irecv(0, 0)
			r.Wait(req)
			r.Wait(req)
		}
	}); err != nil {
		t.Fatal(err)
	}
	err := k.Run(sim.MaxTime)
	if err == nil || !strings.Contains(err.Error(), "foreign or freed request") {
		t.Fatalf("second Wait on a freed request: err = %v", err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	k, w := world(t, 8)
	after := make([]sim.Time, 8)
	launch(t, k, w, func(r *Rank) {
		// Rank i sleeps i·100ms, then barriers.
		r.Proc().Sleep(time.Duration(r.ID()) * 100 * time.Millisecond)
		r.Barrier()
		after[r.ID()] = r.Now()
	})
	slowest := sim.Time(700 * time.Millisecond)
	for i, tm := range after {
		if tm < slowest {
			t.Fatalf("rank %d left barrier at %v, before slowest arrival %v", i, tm, slowest)
		}
		if tm > slowest+sim.Time(50*time.Millisecond) {
			t.Fatalf("rank %d barrier exit %v too long after %v", i, tm, slowest)
		}
	}
}

func TestBarrierSingleRank(t *testing.T) {
	k, w := world(t, 1)
	launch(t, k, w, func(r *Rank) { r.Barrier() })
}

// The binomial broadcast and reduce trees run inside non-power-of-two
// Allreduce; these drive them directly, at every world size and root.

func TestBcastReachesAll(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8, 9, 16} {
		k, w := world(t, n)
		done := make([]bool, n)
		launch(t, k, w, func(r *Rank) {
			r.bcastNoEmit(0, 4096)
			done[r.ID()] = true
		})
		for i, d := range done {
			if !d {
				t.Fatalf("n=%d: rank %d did not complete bcast", n, i)
			}
		}
		// A tree over n ranks has n−1 edges, one 4096 B message each.
		if st := w.net.Stats(); st.Messages != n-1 || st.Bytes != int64(n-1)*4096 {
			t.Fatalf("n=%d: bcast moved %d messages / %d bytes", n, st.Messages, st.Bytes)
		}
	}
}

func TestBcastNonzeroRoot(t *testing.T) {
	const n, root = 5, 3
	k, w := world(t, n)
	launch(t, k, w, func(r *Rank) { r.bcastNoEmit(root, 1024) })
	// Ranks sit in the tree by their distance from the root; each non-root
	// receives once from its parent (clear the highest set bit).
	want := make([]int, n)
	for rel := 1; rel < n; rel++ {
		want[(rel+root)%n]++
		want[(rel&^(1<<(bits.Len(uint(rel))-1))+root)%n]++
	}
	for i := 0; i < n; i++ {
		if got := w.Rank(i).Stats().Messages; got != want[i] {
			t.Errorf("rank %d: %d messages, want %d", i, got, want[i])
		}
	}
}

func TestReduceCompletes(t *testing.T) {
	for _, n := range []int{2, 4, 8, 9} {
		k, w := world(t, n)
		launch(t, k, w, func(r *Rank) { r.reduceNoEmit(0, 64) })
		if st := w.net.Stats(); st.Messages != n-1 {
			t.Fatalf("n=%d: reduce moved %d messages, want %d", n, st.Messages, n-1)
		}
	}
}

func TestAllreduceCompletesPow2AndNot(t *testing.T) {
	// Power-of-two worlds use recursive doubling: log₂ n exchanges, each a
	// send and a receive. Other sizes reduce to rank 0 over a binomial tree
	// (parent: clear the lowest set bit) and broadcast back over another
	// (parent: clear the highest set bit); each tree edge is one send and
	// one receive.
	reduceParent := func(rel int) int { return rel & (rel - 1) }
	bcastParent := func(rel int) int { return rel &^ (1 << (bits.Len(uint(rel)) - 1)) }
	const bytes = 96
	for _, n := range []int{2, 4, 8, 3, 5, 6, 7, 9} {
		want := make([]int, n)
		if n&(n-1) == 0 {
			for i := range want {
				want[i] = 2 * (bits.Len(uint(n)) - 1)
			}
		} else {
			for c := 1; c < n; c++ {
				want[c] += 2 // its reduce send and bcast receive
				want[reduceParent(c)]++
				want[bcastParent(c)]++
			}
		}
		k, w := world(t, n)
		done := make([]bool, n)
		launch(t, k, w, func(r *Rank) {
			r.Allreduce(bytes)
			done[r.ID()] = true
		})
		for i := 0; i < n; i++ {
			if !done[i] {
				t.Fatalf("n=%d: rank %d did not complete allreduce", n, i)
			}
			st := w.Rank(i).Stats()
			if st.Messages != want[i] || st.Bytes != int64(want[i]*bytes) {
				t.Errorf("n=%d rank %d: %d messages / %d bytes, want %d / %d",
					n, i, st.Messages, st.Bytes, want[i], want[i]*bytes)
			}
		}
	}
}

func TestAlltoallCompletesAndMovesBytes(t *testing.T) {
	k, w := world(t, 8)
	launch(t, k, w, func(r *Rank) { r.Alltoall(1000) })
	st := w.net.Stats()
	// Each rank sends 7 messages of 1000 B.
	if st.Bytes != 8*7*1000 {
		t.Fatalf("alltoall moved %d bytes, want %d", st.Bytes, 8*7*1000)
	}
}

func TestAlltoallvAsymmetric(t *testing.T) {
	k, w := world(t, 4)
	launch(t, k, w, func(r *Rank) {
		sizes := make([]int, 4)
		for d := range sizes {
			if d != r.ID() {
				sizes[d] = 100 * (r.ID() + 1)
			}
		}
		r.Alltoallv(sizes)
	})
	want := int64(3 * 100 * (1 + 2 + 3 + 4))
	if st := w.net.Stats(); st.Bytes != want {
		t.Fatalf("alltoallv moved %d bytes, want %d", st.Bytes, want)
	}
}

func TestAlltoallvSizeMismatchPanics(t *testing.T) {
	k, w := world(t, 3)
	if err := w.Launch("t", func(r *Rank) {
		r.Alltoallv([]int{1, 2})
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err == nil {
		t.Fatal("size mismatch not rejected")
	}
}

func TestBackToBackCollectivesDontCrossMatch(t *testing.T) {
	// Two alltoalls in a row with different sizes must not steal each
	// other's messages; sizes seen by stats must be exact.
	k, w := world(t, 4)
	launch(t, k, w, func(r *Rank) {
		r.Alltoall(100)
		r.Alltoall(200)
		r.Barrier()
		r.Allreduce(8)
	})
	if !w.Done() {
		t.Fatal("not done")
	}
	_ = k
}

func TestStatsBreakdown(t *testing.T) {
	k, w := world(t, 2)
	launch(t, k, w, func(r *Rank) {
		r.Compute(1400) // 1 s
		r.MemoryStall(500 * time.Millisecond)
		if r.ID() == 0 {
			r.Send(1, 0, 125000)
		} else {
			r.Recv(0, 0)
		}
	})
	s0 := w.Rank(0).Stats()
	if s0.Compute < 990*time.Millisecond || s0.Compute > 1010*time.Millisecond {
		t.Errorf("compute = %v", s0.Compute)
	}
	if s0.Memory != 500*time.Millisecond {
		t.Errorf("memory = %v", s0.Memory)
	}
	if s0.Transfer <= 0 {
		t.Errorf("transfer = %v", s0.Transfer)
	}
	if s0.Messages != 1 || s0.Bytes != 125000 {
		t.Errorf("messages/bytes = %d/%d", s0.Messages, s0.Bytes)
	}
}

func TestElapsedIsMaxRankFinish(t *testing.T) {
	k, w := world(t, 3)
	launch(t, k, w, func(r *Rank) {
		r.Proc().Sleep(time.Duration(r.ID()+1) * time.Second)
	})
	if w.Elapsed() != sim.Time(3*time.Second) {
		t.Fatalf("elapsed = %v", w.Elapsed())
	}
}

func TestDeadlockDetectedAcrossRanks(t *testing.T) {
	k, w := world(t, 2)
	if err := w.Launch("t", func(r *Rank) {
		r.Recv(1-r.ID(), 0) // both receive, nobody sends
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err == nil {
		t.Fatal("cross-rank deadlock not detected")
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	k, w := world(t, 2)
	type ev struct {
		rank int
		kind EventKind
	}
	var evs []ev
	w.SetTracer(tracerFunc(func(rank int, kind EventKind, name string, start, end sim.Time, bytes, peer int) {
		evs = append(evs, ev{rank, kind})
	}))
	launch(t, k, w, func(r *Rank) {
		r.Compute(14)
		r.Barrier()
	})
	var sawCompute, sawColl bool
	for _, e := range evs {
		if e.kind == EvCompute {
			sawCompute = true
		}
		if e.kind == EvCollective {
			sawColl = true
		}
	}
	if !sawCompute || !sawColl {
		t.Fatalf("missing event kinds in %v", evs)
	}
}

type tracerFunc func(rank int, kind EventKind, name string, start, end sim.Time, bytes, peer int)

func (f tracerFunc) Event(rank int, kind EventKind, name string, start, end sim.Time, bytes, peer int) {
	f(rank, kind, name, start, end, bytes, peer)
}

func TestSendRecvExchange(t *testing.T) {
	k, w := world(t, 2)
	launch(t, k, w, func(r *Rank) {
		other := 1 - r.ID()
		r.SendRecv(other, 5000, other, 5000, 9)
	})
	if st := w.net.Stats(); st.Bytes != 10000 {
		t.Fatalf("sendrecv moved %d bytes", st.Bytes)
	}
}

func TestCommWaitIsSlackForDVS(t *testing.T) {
	// The core premise of the paper: a rank blocked in Recv accumulates
	// CPU slack; running the waiting node at 600 MHz must cut its energy
	// while delay is set by the peer, not the frequency.
	elapsedAt := func(f float64) (sim.Time, float64) {
		k, w := world(t, 2)
		if f > 0 {
			if err := w.Node(1).SetFrequency(600); err != nil {
				t.Fatal(err)
			}
		}
		launch(t, k, w, func(r *Rank) {
			switch r.ID() {
			case 0:
				r.Compute(14000) // 10 s at 1400
				r.Send(1, 0, 1000)
			case 1:
				r.Recv(0, 0)
			}
		})
		return w.Elapsed(), w.Node(1).Energy().Total()
	}
	tHi, eHi := elapsedAt(0)
	tLo, eLo := elapsedAt(600)
	if eLo >= eHi {
		t.Fatalf("slack energy at 600 MHz (%v J) not below 1400 MHz (%v J)", eLo, eHi)
	}
	dt := tLo.Sub(tHi)
	if dt < 0 {
		dt = -dt
	}
	if dt > 10*time.Millisecond {
		t.Fatalf("waiting rank's frequency changed elapsed time by %v", dt)
	}
}

func TestZeroRankWorldRejected(t *testing.T) {
	k := sim.NewKernel()
	net := netsim.MustNew(k, 1, netsim.DefaultConfig())
	if _, err := NewWorld(k, net, nil, DefaultConfig()); err == nil {
		t.Fatal("accepted")
	}
}

func TestSpinWaitFullVisibility(t *testing.T) {
	// Under SpinWait a blocked receiver appears 100% busy to /proc-style
	// accounting (daemon blindness) and burns full dynamic power.
	run := func(spin bool) (util, joules float64) {
		k := sim.NewKernel()
		net := netsim.MustNew(k, 2, netsim.DefaultConfig())
		nodes := []*node.Node{
			node.MustNew(k, 0, node.DefaultConfig()),
			node.MustNew(k, 1, node.DefaultConfig()),
		}
		cfg := DefaultConfig()
		cfg.SpinWait = spin
		w, err := NewWorld(k, net, nodes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Launch("t", func(r *Rank) {
			switch r.ID() {
			case 0:
				r.Proc().Sleep(10 * time.Second)
				r.Send(1, 0, 100)
			case 1:
				r.Recv(0, 0)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		snap := nodes[1].Util()
		return node.Utilization(node.UtilSnapshot{}, snap), nodes[1].Energy().Total()
	}
	uBlock, eBlock := run(false)
	uSpin, eSpin := run(true)
	if uSpin < 0.95 {
		t.Errorf("spin wait utilization %v, want ≈1", uSpin)
	}
	if uBlock > 0.5 {
		t.Errorf("blocking wait utilization %v, want low", uBlock)
	}
	// Power is identical either way under the calibrated model (the MPICH
	// progress engine polls aggressively regardless); SpinWait changes
	// only what /proc shows — the input the daemon acts on.
	if eSpin < eBlock-1e-9 {
		t.Errorf("spin energy %v below blocking %v", eSpin, eBlock)
	}
}

func TestEagerLimitBoundary(t *testing.T) {
	// Exactly at the limit: eager — the sender returns once the payload is
	// on the wire (txDone). One byte over: rendezvous — the sender also
	// waits out the delivery (arrive = txDone + switch latency + any
	// receive-port queueing; receiver posting is buffered, a documented
	// approximation).
	timing := func(bytes int) (sendDone sim.Time) {
		k, w := world(t, 2)
		launch(t, k, w, func(r *Rank) {
			switch r.ID() {
			case 0:
				r.Send(1, 0, bytes)
				sendDone = r.Now()
			case 1:
				r.Recv(0, 0)
			}
		})
		return sendDone
	}
	limit := DefaultConfig().EagerLimit
	eager := timing(limit)
	rendezvous := timing(limit + 1)
	if rendezvous <= eager {
		t.Fatalf("rendezvous (%v) did not outwait eager (%v)", rendezvous, eager)
	}
	// The gap is the switch latency (60 µs) plus one byte of wire time.
	if d := rendezvous.Sub(eager); d < 55*time.Microsecond || d > 70*time.Microsecond {
		t.Fatalf("eager/rendezvous gap %v, want ≈60 µs", d)
	}
}

func TestZeroByteCollectivesEverywhere(t *testing.T) {
	k, w := world(t, 5)
	launch(t, k, w, func(r *Rank) {
		r.Barrier()
		r.Allreduce(0)
		r.Alltoall(0)
		r.Alltoallv(make([]int, 5))
	})
	_ = k
}

// TestRecvTraceStartsAtWait pins where a "recv" event starts: at the
// start of the Wait it finishes, not at the receive overhead's start, for
// Recv and for a collective's internal receive (here the reduce to rank
// 0 inside a 3-rank Allreduce). Each receive below waits for a late
// sender, so the two starts differ.
func TestRecvTraceStartsAtWait(t *testing.T) {
	k, w := world(t, 3)
	type span struct{ start, end sim.Time }
	waits := map[int][]span{}
	recvs := map[int][]span{}
	w.SetTracer(tracerFunc(func(rank int, kind EventKind, name string, start, end sim.Time, bytes, peer int) {
		switch name {
		case "wait":
			waits[rank] = append(waits[rank], span{start, end})
		case "recv":
			recvs[rank] = append(recvs[rank], span{start, end})
		}
	}))
	launch(t, k, w, func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Recv(1, 99)
		case 1:
			r.Compute(14)
			r.Send(0, 99, 64)
			r.Compute(28)
		case 2:
			r.Compute(56)
		}
		r.Allreduce(64)
	})
	if n := len(recvs[0]); n != 3 {
		t.Fatalf("rank 0 traced %d recv events, want 3 (Recv and two reduce receives)", n)
	}
	if s := recvs[0][0].start; s != 0 {
		t.Fatalf("rank 0's Recv, issued at 0, traced from %v", s)
	}
	for rank, rs := range recvs {
		for _, rv := range rs {
			if !slices.Contains(waits[rank], rv) {
				t.Errorf("rank %d: recv event %v matches no wait event %v", rank, rv, waits[rank])
			}
		}
	}
}
