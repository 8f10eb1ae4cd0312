package sched

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dvs"
	"repro/internal/node"
	"repro/internal/sim"
)

// compute runs a compute phase of megacycles on n from p's own body,
// parking p through each sleep StepCompute arms.
func compute(n *node.Node, p *sim.Proc, megacycles float64) {
	n.StartCompute(p, megacycles, dvs.ActCompute)
	for n.StepCompute(p) {
		p.Park(nil)
	}
}

func newNode(t *testing.T, k *sim.Kernel, id int) *node.Node {
	t.Helper()
	n, err := node.New(k, id, node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	good := CPUSpeedV121()
	if err := good.Validate(); err != nil {
		t.Fatalf("v1.2.1 invalid: %v", err)
	}
	if err := CPUSpeedV11().Validate(); err != nil {
		t.Fatalf("v1.1 invalid: %v", err)
	}
	bad := []CPUSpeedConfig{
		{Interval: 0, MinThreshold: 0.1, UsageThreshold: 0.5, MaxThreshold: 0.9},
		{Interval: time.Second, MinThreshold: 0.6, UsageThreshold: 0.5, MaxThreshold: 0.9},
		{Interval: time.Second, MinThreshold: 0.1, UsageThreshold: 0.95, MaxThreshold: 0.9},
		{Interval: time.Second, MinThreshold: 0.1, UsageThreshold: 0.5, MaxThreshold: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// busyFor keeps a node's CPU busy for d of virtual time.
func busyFor(k *sim.Kernel, n *node.Node, d time.Duration) {
	k.Spawn("load", func(p *sim.Proc) {
		for p.Now() < sim.Time(d) {
			mcyc := float64(n.Frequency()) * 0.1 // 100 ms chunks
			compute(n, p, mcyc)
		}
	})
}

func TestDaemonClimbsUnderLoad(t *testing.T) {
	k := sim.NewKernel()
	n := newNode(t, k, 0)
	if err := n.SetFrequency(600); err != nil {
		t.Fatal(err)
	}
	d, err := StartCPUSpeed(k, n, CPUSpeedV121())
	if err != nil {
		t.Fatal(err)
	}
	busyFor(k, n, 20*time.Second)
	k.At(sim.Time(21*time.Second), func() { d.Stop() })
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if n.Frequency() != 1400 {
		t.Fatalf("daemon did not climb: at %v", n.Frequency())
	}
	if d.Steps == 0 || d.Moves == 0 {
		t.Fatalf("no daemon activity: %+v", d)
	}
}

func TestDaemonDropsWhenIdle(t *testing.T) {
	k := sim.NewKernel()
	n := newNode(t, k, 0)
	d, err := StartCPUSpeed(k, n, CPUSpeedV121())
	if err != nil {
		t.Fatal(err)
	}
	// No load at all: utilization 0 < MinThreshold → straight to bottom.
	k.At(sim.Time(5*time.Second), func() { d.Stop() })
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if n.Frequency() != 600 {
		t.Fatalf("idle daemon at %v, want 600", n.Frequency())
	}
}

func TestDaemonMinThresholdJumpsToBottom(t *testing.T) {
	// With utilization just under MinThreshold the daemon must jump to
	// S=0 in a single step, not walk down.
	k := sim.NewKernel()
	n := newNode(t, k, 0)
	cfg := CPUSpeedV121()
	d, err := StartCPUSpeed(k, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.At(sim.Time(cfg.Interval+time.Millisecond), func() {
		if n.OperatingIndex() != 0 {
			t.Errorf("after one idle interval at index %d, want 0", n.OperatingIndex())
		}
		d.Stop()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonV11StaysHighOnBurstyLoad(t *testing.T) {
	// §5.1: version 1.1 "always chooses the highest CPU speed" on NPB-like
	// loads: its low pivot treats any meaningful activity as step-up.
	k := sim.NewKernel()
	n := newNode(t, k, 0)
	d, err := StartCPUSpeed(k, n, CPUSpeedV11())
	if err != nil {
		t.Fatal(err)
	}
	// 40% duty cycle: 40 ms compute, 60 ms idle.
	k.Spawn("bursty", func(p *sim.Proc) {
		for p.Now() < sim.Time(10*time.Second) {
			compute(n, p, float64(n.Frequency())*0.04)
			p.Sleep(60 * time.Millisecond)
		}
	})
	k.At(sim.Time(11*time.Second), func() { d.Stop() })
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	at := n.TimeAt()
	topShare := at[len(at)-1].Seconds() / 11.0
	if topShare < 0.9 {
		t.Fatalf("v1.1 spent only %.0f%% at top speed", topShare*100)
	}
}

func TestDaemonV121DownshiftsSameLoad(t *testing.T) {
	// The same 40% duty cycle under v1.2.1 thresholds drifts down — the
	// §5.1 contrast between the two versions.
	k := sim.NewKernel()
	n := newNode(t, k, 0)
	d, err := StartCPUSpeed(k, n, CPUSpeedV121())
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("bursty", func(p *sim.Proc) {
		for p.Now() < sim.Time(30*time.Second) {
			compute(n, p, float64(n.Frequency())*0.04)
			p.Sleep(60 * time.Millisecond)
		}
	})
	k.At(sim.Time(31*time.Second), func() { d.Stop() })
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	at := n.TimeAt()
	lowShare := (at[0] + at[1]).Seconds() / 31.0
	if lowShare < 0.5 {
		t.Fatalf("v1.2.1 spent only %.0f%% at low speeds", lowShare*100)
	}
}

func TestDaemonStopIdempotent(t *testing.T) {
	k := sim.NewKernel()
	n := newNode(t, k, 0)
	d, err := StartCPUSpeed(k, n, CPUSpeedV121())
	if err != nil {
		t.Fatal(err)
	}
	k.At(sim.Time(time.Second), func() {
		d.Stop()
		d.Stop()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestStartClusterStopsAll(t *testing.T) {
	k := sim.NewKernel()
	nodes := []*node.Node{newNode(t, k, 0), newNode(t, k, 1), newNode(t, k, 2)}
	ds, stop, err := StartCluster(k, nodes, StartCPUSpeed, CPUSpeedV121())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 {
		t.Fatalf("daemons = %d", len(ds))
	}
	k.At(sim.Time(time.Second), stop)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestStartClusterInvalidConfig(t *testing.T) {
	k := sim.NewKernel()
	nodes := []*node.Node{newNode(t, k, 0)}
	if _, _, err := StartCluster(k, nodes, StartCPUSpeed, CPUSpeedConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSetAll(t *testing.T) {
	k := sim.NewKernel()
	nodes := []*node.Node{newNode(t, k, 0), newNode(t, k, 1)}
	if err := SetAll(nodes, 800); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if n.Frequency() != 800 {
			t.Fatalf("node %d at %v", n.ID, n.Frequency())
		}
	}
}

func TestSetPerNode(t *testing.T) {
	k := sim.NewKernel()
	nodes := []*node.Node{newNode(t, k, 0), newNode(t, k, 1)}
	if err := SetPerNode(nodes, map[int]dvs.MHz{1: 600}); err != nil {
		t.Fatal(err)
	}
	if nodes[0].Frequency() != 1400 {
		t.Fatalf("node 0 moved to %v", nodes[0].Frequency())
	}
	if nodes[1].Frequency() != 600 {
		t.Fatalf("node 1 at %v", nodes[1].Frequency())
	}
}

func TestDaemonNearestRounding(t *testing.T) {
	// SetAll with an off-table frequency picks the nearest point.
	k := sim.NewKernel()
	n := newNode(t, k, 0)
	if err := SetAll([]*node.Node{n}, 950); err != nil {
		t.Fatal(err)
	}
	if n.Frequency() != 1000 {
		t.Fatalf("nearest(950) = %v", n.Frequency())
	}
}

// TestDaemonSurfacesSetSpeedError asserts that a failed operating-point
// change retires every daemon with a recorded error instead of panicking —
// in a long-lived process like dvsd, a panic here would take down
// unrelated in-flight simulations sharing the address space.
func TestDaemonSurfacesSetSpeedError(t *testing.T) {
	boom := errors.New("sysfs write failed")
	// Each daemon runs on an idle node at the top operating point, so its
	// first move is a step down; steps is the decision that makes it.
	cases := []struct {
		name  string // proc name, the error's prefix
		start func(*sim.Kernel, *node.Node) (*loop, error)
		steps int
	}{
		{"cpuspeed.n0", func(k *sim.Kernel, n *node.Node) (*loop, error) {
			g, err := StartCPUSpeed(k, n, CPUSpeedV121())
			return &g.loop, err
		}, 1},
		// ondemand decays only after DownSamples consecutive low samples.
		{"ondemand.n0", func(k *sim.Kernel, n *node.Node) (*loop, error) {
			g, err := StartOnDemand(k, n, DefaultOnDemand())
			return &g.loop, err
		}, DefaultOnDemand().DownSamples},
		{"predictive.n0", func(k *sim.Kernel, n *node.Node) (*loop, error) {
			g, err := StartPredictive(k, n, DefaultPredictive())
			return &g.loop, err
		}, 1},
		// 14 W of idle power is over a 5 W budget: throttle at once.
		{"powercap", func(k *sim.Kernel, n *node.Node) (*loop, error) {
			pc, err := StartPowerCap(k, []*node.Node{n}, DefaultPowerCap(5))
			return &pc.loop, err
		}, 1},
	}
	defer func(orig func(*node.Node, int) error) { setIndex = orig }(setIndex)
	setIndex = func(*node.Node, int) error { return boom }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			d, err := tc.start(k, newNode(t, k, 0))
			if err != nil {
				t.Fatal(err)
			}
			k.At(sim.Time(time.Minute), d.Stop)
			if err := k.Run(sim.MaxTime); err != nil {
				t.Fatal(err)
			}
			got := d.Err()
			if !errors.Is(got, boom) {
				t.Fatalf("Err() = %v, want wrapped %v", got, boom)
			}
			if !strings.HasPrefix(got.Error(), tc.name+": ") {
				t.Fatalf("Err() = %q, want prefix %q", got, tc.name+": ")
			}
			if d.Steps != tc.steps {
				t.Fatalf("daemon kept stepping after a failed move: steps=%d, want %d", d.Steps, tc.steps)
			}
		})
	}
}

// TestDaemonErrNilOnCleanRun asserts the error surface stays empty on the
// happy path.
func TestDaemonErrNilOnCleanRun(t *testing.T) {
	k := sim.NewKernel()
	n := newNode(t, k, 0)
	d, err := StartCPUSpeed(k, n, CPUSpeedV121())
	if err != nil {
		t.Fatal(err)
	}
	busyFor(k, n, 10*time.Second)
	k.At(sim.Time(11*time.Second), func() { d.Stop() })
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("clean run recorded error: %v", err)
	}
}
