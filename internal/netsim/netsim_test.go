package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func newNet(t *testing.T, nodes int) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel()
	n, err := New(k, DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	return k, n
}

func TestNewRejectsBadConfig(t *testing.T) {
	k := sim.NewKernel()
	bad := []Config{
		{Nodes: 0, BandwidthBps: 1},
		{Nodes: 2, BandwidthBps: 0},
		{Nodes: 2, BandwidthBps: 1, Latency: -1},
		{Nodes: 2, BandwidthBps: 1, BackoffPerMsg: -1},
		{Nodes: 2, BandwidthBps: 1, CongestionWindow: -1},
	}
	for i, cfg := range bad {
		if _, err := New(k, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSingleTransferTiming(t *testing.T) {
	_, n := newNet(t, 4)
	// 125000 bytes = 1 Mbit = 10 ms on the wire at 100 Mb/s.
	txDone, arrive, err := n.Transfer(0, 1, 125000)
	if err != nil {
		t.Fatal(err)
	}
	if txDone != sim.Time(10*time.Millisecond) {
		t.Errorf("txDone = %v", txDone)
	}
	want := sim.Time(10*time.Millisecond + 60*time.Microsecond)
	if arrive != want {
		t.Errorf("arrive = %v, want %v", arrive, want)
	}
}

func TestZeroByteMessageLatencyOnly(t *testing.T) {
	_, n := newNet(t, 2)
	txDone, arrive, err := n.Transfer(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if txDone != 0 {
		t.Errorf("txDone = %v", txDone)
	}
	if arrive != sim.Time(60*time.Microsecond) {
		t.Errorf("arrive = %v", arrive)
	}
}

func TestLoopbackIsCheap(t *testing.T) {
	_, n := newNet(t, 2)
	_, arrive, err := n.Transfer(1, 1, 125000)
	if err != nil {
		t.Fatal(err)
	}
	if arrive >= sim.Time(10*time.Millisecond) {
		t.Errorf("loopback as slow as wire: %v", arrive)
	}
}

func TestSenderLinkSerializes(t *testing.T) {
	_, n := newNet(t, 4)
	// Two messages from node 0: second waits for the first on the uplink.
	tx1, _, _ := n.Transfer(0, 1, 125000)
	tx2, _, _ := n.Transfer(0, 2, 125000)
	if tx2 != tx1+sim.Time(10*time.Millisecond) {
		t.Errorf("tx2 = %v, want tx1+10ms = %v", tx2, tx1+sim.Time(10*time.Millisecond))
	}
}

func TestReceiverLinkSerializes(t *testing.T) {
	_, n := newNet(t, 4)
	// Two different senders to the same destination contend on its port.
	_, a1, _ := n.Transfer(0, 2, 125000)
	_, a2, _ := n.Transfer(1, 2, 125000)
	if a2 <= a1 {
		t.Errorf("concurrent arrivals not serialized: %v then %v", a1, a2)
	}
	if a2 < a1+sim.Time(10*time.Millisecond) {
		t.Errorf("a2 = %v, want ≥ a1+10ms", a2)
	}
}

func TestDisjointPairsDontInterfere(t *testing.T) {
	_, n := newNet(t, 4)
	_, a1, _ := n.Transfer(0, 1, 125000)
	_, a2, _ := n.Transfer(2, 3, 125000)
	if a1 != a2 {
		t.Errorf("disjoint transfers interfere: %v vs %v", a1, a2)
	}
}

func TestBandwidthPipelinesAcrossMessages(t *testing.T) {
	// A stream of B-byte messages should arrive at line rate: n messages
	// take about n·serial + latency, not 2n·serial.
	_, n := newNet(t, 2)
	var last sim.Time
	const msgs = 10
	for i := 0; i < msgs; i++ {
		_, a, err := n.Transfer(0, 1, 125000)
		if err != nil {
			t.Fatal(err)
		}
		last = a
	}
	want := sim.Time(msgs*10*time.Millisecond + 60*time.Microsecond)
	if last != want {
		t.Errorf("stream of %d msgs delivered at %v, want %v", msgs, last, want)
	}
}

func TestCongestionBackoffCharged(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(16)
	n := MustNew(k, cfg)
	// 15 simultaneous senders to node 0 overflow the window (6).
	for src := 1; src < 16; src++ {
		if _, _, err := n.Transfer(src, 0, 125000); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.Collisions == 0 || st.Backoff == 0 {
		t.Fatalf("no collisions recorded: %+v", st)
	}
	if st.Messages != 15 {
		t.Fatalf("messages = %d", st.Messages)
	}
}

func TestNoBackoffUnderWindow(t *testing.T) {
	k := sim.NewKernel()
	n := MustNew(k, DefaultConfig(16))
	for src := 1; src <= 4; src++ {
		n.Transfer(src, 0, 1000)
	}
	if st := n.Stats(); st.Collisions != 0 {
		t.Fatalf("collisions under window: %+v", st)
	}
}

func TestBacklogPruning(t *testing.T) {
	k := sim.NewKernel()
	n := MustNew(k, DefaultConfig(4))
	n.Transfer(1, 0, 125000)
	n.Transfer(2, 0, 125000)
	if b := len(n.pruneRxQueue(0, k.Now())); b != 2 {
		t.Fatalf("backlog = %d, want 2", b)
	}
	// Advance virtual time past both deliveries.
	k.At(sim.Time(time.Second), func() {
		if b := len(n.pruneRxQueue(0, k.Now())); b != 0 {
			t.Errorf("backlog after delivery = %d", b)
		}
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestTransferErrors(t *testing.T) {
	_, n := newNet(t, 2)
	if _, _, err := n.Transfer(-1, 0, 10); err == nil {
		t.Error("negative src accepted")
	}
	if _, _, err := n.Transfer(0, 2, 10); err == nil {
		t.Error("dst out of range accepted")
	}
	if _, _, err := n.Transfer(0, 1, -5); err == nil {
		t.Error("negative size accepted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	_, n := newNet(t, 3)
	n.Transfer(0, 1, 100)
	n.Transfer(1, 2, 200)
	st := n.Stats()
	if st.Messages != 2 || st.Bytes != 300 {
		t.Fatalf("stats = %+v", st)
	}
}

// Property: arrive ≥ txDone ≥ now for any transfer, and arrivals to a given
// port are non-decreasing.
func TestPropertyTransferOrdering(t *testing.T) {
	f := func(sizes []uint16, srcs []uint8) bool {
		k := sim.NewKernel()
		n := MustNew(k, DefaultConfig(8))
		lastArrive := make(map[int]sim.Time)
		for i, sz := range sizes {
			src := 0
			if i < len(srcs) {
				src = int(srcs[i]) % 8
			}
			dst := (src + 1) % 8
			tx, ar, err := n.Transfer(src, dst, int(sz))
			if err != nil {
				return false
			}
			if ar < tx || tx < k.Now() {
				return false
			}
			if ar < lastArrive[dst] {
				return false
			}
			lastArrive[dst] = ar
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: doubling the message size never decreases wire time.
func TestPropertySizeMonotone(t *testing.T) {
	f := func(sz uint16) bool {
		k1 := sim.NewKernel()
		n1 := MustNew(k1, DefaultConfig(2))
		_, a1, _ := n1.Transfer(0, 1, int(sz))
		k2 := sim.NewKernel()
		n2 := MustNew(k2, DefaultConfig(2))
		_, a2, _ := n2.Transfer(0, 1, int(sz)*2)
		return a2 >= a1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoTierValidation(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(16)
	cfg.Topology = TwoTier
	if _, err := New(k, cfg); err == nil {
		t.Fatal("zero leaf ports accepted")
	}
	cfg.TwoTier = DefaultTwoTier()
	cfg.TwoTier.UplinkBandwidthBps = 0
	if _, err := New(k, cfg); err == nil {
		t.Fatal("zero uplink accepted")
	}
	cfg.TwoTier = DefaultTwoTier()
	cfg.TwoTier.SpineLatency = -1
	if _, err := New(k, cfg); err == nil {
		t.Fatal("negative spine latency accepted")
	}
	cfg2 := DefaultConfig(4)
	cfg2.Topology = Topology(9)
	if _, err := New(k, cfg2); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestTwoTierIntraLeafUnaffected(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(16)
	cfg.Topology = TwoTier
	cfg.TwoTier = DefaultTwoTier()
	n := MustNew(k, cfg)
	// Nodes 0 and 1 share leaf 0: same timing as a single switch.
	_, arrive, err := n.Transfer(0, 1, 125000)
	if err != nil {
		t.Fatal(err)
	}
	if arrive != sim.Time(10*time.Millisecond+60*time.Microsecond) {
		t.Fatalf("intra-leaf arrive = %v", arrive)
	}
}

func TestTwoTierInterLeafSlower(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(16)
	cfg.Topology = TwoTier
	cfg.TwoTier = DefaultTwoTier()
	n := MustNew(k, cfg)
	// Node 0 (leaf 0) to node 8 (leaf 1): pays the spine hop.
	_, cross, err := n.Transfer(0, 8, 125000)
	if err != nil {
		t.Fatal(err)
	}
	intraWant := sim.Time(10*time.Millisecond + 60*time.Microsecond)
	if cross <= intraWant {
		t.Fatalf("inter-leaf arrive %v not after intra-leaf %v", cross, intraWant)
	}
}

func TestTwoTierUplinkContention(t *testing.T) {
	// All eight leaf-0 nodes sending cross-leaf at once share one uplink:
	// the last arrival lands later than with private paths.
	run := func(topo Topology) sim.Time {
		k := sim.NewKernel()
		cfg := DefaultConfig(16)
		cfg.Topology = topo
		cfg.TwoTier = DefaultTwoTier()
		cfg.TwoTier.UplinkBandwidthBps = 100e6 // heavily oversubscribed
		n := MustNew(k, cfg)
		var last sim.Time
		for src := 0; src < 8; src++ {
			_, a, err := n.Transfer(src, 8+src, 125000)
			if err != nil {
				t.Fatal(err)
			}
			if a > last {
				last = a
			}
		}
		return last
	}
	single := run(SingleSwitch)
	twoTier := run(TwoTier)
	if twoTier <= single {
		t.Fatalf("oversubscribed uplink not slower: %v vs %v", twoTier, single)
	}
	// With 8 nodes sharing a 100 Mb uplink, the last message waits ~8 wire
	// times on the shared link.
	if twoTier < single*4 {
		t.Fatalf("contention too mild: %v vs %v", twoTier, single)
	}
}

func TestLossValidation(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(2)
	cfg.LossRate = -0.1
	if _, err := New(k, cfg); err == nil {
		t.Fatal("negative loss accepted")
	}
	cfg.LossRate = 1.0
	if _, err := New(k, cfg); err == nil {
		t.Fatal("loss rate 1 accepted")
	}
	cfg.LossRate = 0.5
	cfg.RetransmitTimeout = 0
	if _, err := New(k, cfg); err == nil {
		t.Fatal("loss without timeout accepted")
	}
}

func TestLossInjectionAddsDelayDeterministically(t *testing.T) {
	run := func(rate float64, seed int64) (sim.Time, int) {
		k := sim.NewKernel()
		cfg := DefaultConfig(2)
		cfg.LossRate = rate
		cfg.RetransmitTimeout = 200 * time.Millisecond
		cfg.Seed = seed
		n := MustNew(k, cfg)
		var last sim.Time
		for i := 0; i < 200; i++ {
			_, a, err := n.Transfer(0, 1, 12500)
			if err != nil {
				t.Fatal(err)
			}
			last = a
		}
		return last, n.Stats().Retransmits
	}
	clean, r0 := run(0, 1)
	lossy, r1 := run(0.2, 1)
	if r0 != 0 {
		t.Fatalf("clean run retransmitted %d", r0)
	}
	if r1 == 0 || lossy <= clean {
		t.Fatalf("loss injection had no effect: %d retransmits, %v vs %v", r1, lossy, clean)
	}
	// Same seed → identical schedule.
	lossy2, r2 := run(0.2, 1)
	if lossy2 != lossy || r2 != r1 {
		t.Fatal("loss injection nondeterministic")
	}
	// Different seed → (almost surely) different schedule.
	lossy3, _ := run(0.2, 2)
	if lossy3 == lossy {
		t.Log("different seeds coincided (unlikely but not fatal)")
	}
}
