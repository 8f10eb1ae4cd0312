package sched

import (
	"testing"
	"time"

	"repro/internal/dvs"
	"repro/internal/node"
	"repro/internal/sim"
)

func TestOnDemandConfigValidate(t *testing.T) {
	if err := DefaultOnDemand().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []OnDemandConfig{
		{SamplingRate: 0, UpThreshold: 0.8, DownDifferential: 0.3, DownSamples: 5},
		{SamplingRate: time.Second, UpThreshold: 0, DownDifferential: 0, DownSamples: 5},
		{SamplingRate: time.Second, UpThreshold: 1.5, DownDifferential: 0.3, DownSamples: 5},
		{SamplingRate: time.Second, UpThreshold: 0.8, DownDifferential: 0.9, DownSamples: 5},
		{SamplingRate: time.Second, UpThreshold: 0.8, DownDifferential: 0.3, DownSamples: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestOnDemandJumpsToTopUnderLoad(t *testing.T) {
	k := sim.NewKernel()
	n := node.MustNew(k, 0, node.DefaultConfig())
	if err := n.SetFrequency(600); err != nil {
		t.Fatal(err)
	}
	d, err := StartOnDemand(k, n, DefaultOnDemand())
	if err != nil {
		t.Fatal(err)
	}
	// Observe just after 300 ms, so a jump at exactly 300 ms counts.
	var freqAt300ms dvs.MHz
	k.At(sim.Time(300*time.Millisecond)+1, func() { freqAt300ms = n.Frequency() })
	busyFor(k, n, 3*time.Second)
	k.At(sim.Time(4*time.Second), func() { d.Stop() })
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	// Asymmetry: the jump to top happens within ~two sampling periods,
	// not a step walk (contrast with cpuspeed's one-step-per-2s).
	if freqAt300ms != 1400 {
		t.Fatalf("ondemand at %v after 300ms, want the top point", freqAt300ms)
	}
}

func TestOnDemandDecaysSlowly(t *testing.T) {
	k := sim.NewKernel()
	n := node.MustNew(k, 0, node.DefaultConfig())
	d, err := StartOnDemand(k, n, DefaultOnDemand())
	if err != nil {
		t.Fatal(err)
	}
	// Pure idle: each step down needs DownSamples consecutive low samples.
	k.At(sim.Time(10*time.Second), func() { d.Stop() })
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if n.Frequency() != 600 {
		t.Fatalf("idle governor at %v after 10s", n.Frequency())
	}
	// Each step down needs 5 samples × 80 ms = 400 ms; the full walk to
	// the bottom point therefore takes ≥1.6 s of graded descent.
	at := n.TimeAt()
	if at[len(at)-1] < 390*time.Millisecond {
		t.Fatalf("first step came early: %v at top", at[len(at)-1])
	}
	var aboveBottom time.Duration
	for _, d := range at[1:] {
		aboveBottom += d
	}
	if aboveBottom < 1500*time.Millisecond {
		t.Fatalf("walked to bottom in %v, want ≥1.6s of graded descent", aboveBottom)
	}
}

func TestOnDemandClusterRollback(t *testing.T) {
	k := sim.NewKernel()
	nodes := []*node.Node{node.MustNew(k, 0, node.DefaultConfig())}
	if _, _, err := StartCluster(k, nodes, StartOnDemand, OnDemandConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
	ds, stop, err := StartCluster(k, nodes, StartOnDemand, DefaultOnDemand())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatal("wrong daemon count")
	}
	k.At(sim.Time(time.Second), stop)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestOnDemandStopIdempotent(t *testing.T) {
	k := sim.NewKernel()
	n := node.MustNew(k, 0, node.DefaultConfig())
	d, err := StartOnDemand(k, n, DefaultOnDemand())
	if err != nil {
		t.Fatal(err)
	}
	k.At(sim.Time(time.Second), func() { d.Stop(); d.Stop() })
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}
