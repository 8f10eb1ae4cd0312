package sched

import (
	"math"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/sim"
)

func TestPowerCapValidation(t *testing.T) {
	if err := DefaultPowerCap(100).Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []PowerCapConfig{
		{BudgetWatts: 0, Interval: time.Second},
		{BudgetWatts: 100, Interval: 0},
		{BudgetWatts: 100, Interval: time.Second, Headroom: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	k := sim.NewKernel()
	if _, err := StartPowerCap(k, nil, DefaultPowerCap(100)); err == nil {
		t.Error("empty node set accepted")
	}
}

func TestPowerCapHoldsBudget(t *testing.T) {
	// Four fully-busy nodes draw ~130 W uncapped; cap at 80 W and verify
	// the steady-state average respects it.
	k := sim.NewKernel()
	var nodes []*node.Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, node.MustNew(k, i, node.DefaultConfig()))
	}
	pc, err := StartPowerCap(k, nodes, DefaultPowerCap(80))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n := n
		k.Spawn("load", func(p *sim.Proc) {
			for p.Now() < sim.Time(120*time.Second) {
				compute(n, p, float64(n.Frequency())) // 1 s chunks
			}
		})
	}
	k.At(sim.Time(121*time.Second), func() { pc.Stop() })
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	// Steady-state check over the second minute: total energy drawn in
	// [60s, 120s] divided by 60 s.
	var total float64
	for _, n := range nodes {
		total += n.Energy().Total()
	}
	avg := total / 121
	if avg > 80*1.1 {
		t.Fatalf("capped cluster averaged %.1f W against an 80 W budget", avg)
	}
	if pc.Throttles == 0 {
		t.Fatal("controller never throttled")
	}
}

func TestPowerCapReleasesWhenIdle(t *testing.T) {
	// After load ends, the controller raises frequencies back up.
	k := sim.NewKernel()
	n := node.MustNew(k, 0, node.DefaultConfig())
	pc, err := StartPowerCap(k, []*node.Node{n}, DefaultPowerCap(20))
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("load", func(p *sim.Proc) {
		for p.Now() < sim.Time(30*time.Second) {
			compute(n, p, float64(n.Frequency()))
		}
		// Idle tail: 14 W idle < 20 W budget → release back to top.
		p.Sleep(30 * time.Second)
		pc.Stop()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if n.Frequency() != 1400 {
		t.Fatalf("idle node stuck at %v under a loose cap", n.Frequency())
	}
	if pc.Releases == 0 {
		t.Fatal("controller never released")
	}
}

func TestPowerCapUnreachableBudget(t *testing.T) {
	// A budget below even bottom-frequency power pins everything at the
	// bottom and keeps counting over-budget intervals honestly.
	k := sim.NewKernel()
	n := node.MustNew(k, 0, node.DefaultConfig())
	pc, err := StartPowerCap(k, []*node.Node{n}, DefaultPowerCap(5))
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("load", func(p *sim.Proc) {
		for p.Now() < sim.Time(20*time.Second) {
			compute(n, p, float64(n.Frequency()))
		}
		pc.Stop()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if n.OperatingIndex() != 0 {
		t.Fatalf("node not at bottom under impossible budget")
	}
	if pc.OverBudget == 0 {
		t.Fatal("over-budget intervals not recorded")
	}
}

func TestCostUSD(t *testing.T) {
	// 1 kWh = 3.6e6 J at $0.10 → $0.10.
	if got := CostUSD(3.6e6, PaperUSDPerKWh); math.Abs(got-0.10) > 1e-12 {
		t.Fatalf("CostUSD = %v", got)
	}
	if got := CostUSD(0, 0.10); got != 0 {
		t.Fatalf("zero joules cost %v", got)
	}
}
