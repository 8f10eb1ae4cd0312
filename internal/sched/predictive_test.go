package sched

import (
	"math"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/sim"
)

func TestPredictiveConfigValidate(t *testing.T) {
	if err := DefaultPredictive().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []PredictiveConfig{
		{Window: 0, History: 32, TargetLoad: 0.9, Fallback: CPUSpeedV121()},
		{Window: time.Second, History: 4, TargetLoad: 0.9, Fallback: CPUSpeedV121()},
		{Window: time.Second, History: 32, TargetLoad: 0, Fallback: CPUSpeedV121()},
		{Window: time.Second, History: 32, TargetLoad: 1.5, Fallback: CPUSpeedV121()},
		{Window: time.Second, History: 32, TargetLoad: 0.9, MinCorrelation: 2, Fallback: CPUSpeedV121()},
		{Window: time.Second, History: 32, TargetLoad: 0.9, Fallback: CPUSpeedConfig{}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDominantPeriod(t *testing.T) {
	// A clean period-4 square wave.
	s := make([]float64, 64)
	for i := range s {
		if i%4 < 2 {
			s[i] = 1000
		}
	}
	lag, corr := dominantPeriod(s)
	if lag != 4 {
		t.Fatalf("lag = %d, want 4 (corr %.2f)", lag, corr)
	}
	if corr < 0.9 {
		t.Fatalf("corr = %.2f", corr)
	}
}

func TestDominantPeriodFlatSeries(t *testing.T) {
	s := make([]float64, 32)
	for i := range s {
		s[i] = 700
	}
	if lag, _ := dominantPeriod(s); lag != 0 {
		t.Fatalf("flat series produced period %d", lag)
	}
}

func TestPredictiveTracksPeriodicLoad(t *testing.T) {
	// A node alternating 1s full compute / 1s idle: the predictive daemon
	// must learn the period and pre-set low speed for idle windows and
	// high for busy windows, beating the reactive walk on delay.
	run := func(predictive bool) (time.Duration, float64) {
		k := sim.NewKernel()
		n := node.MustNew(k, 0, node.DefaultConfig())
		var stop func()
		if predictive {
			d, err := StartPredictive(k, n, DefaultPredictive())
			if err != nil {
				t.Fatal(err)
			}
			stop = d.Stop
		} else {
			d, err := StartCPUSpeed(k, n, CPUSpeedV121())
			if err != nil {
				t.Fatal(err)
			}
			stop = d.Stop
		}
		var elapsed time.Duration
		k.Spawn("load", func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < 30; i++ {
				n.Compute(p, 1400) // 1 s of work at top speed
				p.Sleep(time.Second)
			}
			elapsed = time.Duration(p.Now().Sub(start))
			stop()
		})
		if err := k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		return elapsed, n.Energy().Total()
	}
	dp, ep := run(true)
	dr, er := run(false)
	// The 2 s duty cycle equals the reactive daemon's interval — its worst
	// case: it is always one phase behind and may even *lose* energy by
	// stretching busy phases. The predictor must save against always-top
	// (30 s busy + 30 s idle at ~32.6/14.1 W) and beat the reactive walk
	// on both axes.
	alwaysTop := 30*32.6 + 30*14.1
	if ep >= alwaysTop {
		t.Fatalf("predictive saved nothing: %.0f J vs %.0f J", ep, alwaysTop)
	}
	if ep > er {
		t.Fatalf("predictive energy %.0f J above reactive %.0f J", ep, er)
	}
	if dp > dr+time.Second {
		t.Fatalf("predictive slower: %v vs %v", dp, dr)
	}
}

func TestPredictiveFallsBackEarly(t *testing.T) {
	// In the first seconds (insufficient history) decisions come from the
	// fallback walk; the Predicted counter stays at zero.
	k := sim.NewKernel()
	n := node.MustNew(k, 0, node.DefaultConfig())
	d, err := StartPredictive(k, n, DefaultPredictive())
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("load", func(p *sim.Proc) {
		n.Compute(p, 1400) // 1 s busy
		d.Stop()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if p := d.policy.(*predictive).Predicted; p != 0 {
		t.Fatalf("predicted %d decisions with <16 windows of history", p)
	}
	if d.Steps == 0 {
		t.Fatal("no decisions at all")
	}
}

func TestPointForMapping(t *testing.T) {
	k := sim.NewKernel()
	n := node.MustNew(k, 0, node.DefaultConfig())
	d := &predictive{cfg: DefaultPredictive()}
	d.node = n
	cases := []struct {
		demand float64
		want   int // operating index
	}{
		{0, 0}, {400, 0}, {600 * 0.85, 0}, {600, 1}, {900, 3}, {1100, 4}, {1300, 4}, {5000, 4},
	}
	for _, c := range cases {
		if got := d.pointFor(c.demand); got != c.want {
			t.Errorf("pointFor(%v) = %d, want %d", c.demand, got, c.want)
		}
	}
}

func TestPredictiveStopIdempotent(t *testing.T) {
	k := sim.NewKernel()
	n := node.MustNew(k, 0, node.DefaultConfig())
	d, err := StartPredictive(k, n, DefaultPredictive())
	if err != nil {
		t.Fatal(err)
	}
	k.At(sim.Time(time.Second), func() { d.Stop(); d.Stop() })
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestStartPredictiveClusterRollback(t *testing.T) {
	k := sim.NewKernel()
	nodes := []*node.Node{node.MustNew(k, 0, node.DefaultConfig())}
	if _, _, err := StartCluster(k, nodes, StartPredictive, PredictiveConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
	ds, stop, err := StartCluster(k, nodes, StartPredictive, DefaultPredictive())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("daemons = %d", len(ds))
	}
	k.At(sim.Time(time.Second), stop)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestRingBuffer(t *testing.T) {
	d := &predictive{demand: make([]float64, 4)}
	for i := 1; i <= 6; i++ {
		d.push(float64(i))
	}
	s := d.series()
	want := []float64{3, 4, 5, 6}
	if len(s) != 4 {
		t.Fatalf("series = %v", s)
	}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Fatalf("series = %v, want %v", s, want)
		}
	}
}
