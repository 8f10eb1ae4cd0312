package powerpack

import (
	"math"
	"testing"
	"testing/quick"
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

func newNode(t *testing.T, k *sim.Kernel) *node.Node {
	t.Helper()
	n, err := node.New(k, 0, node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBatteryConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	n := newNode(t, k)
	if _, err := NewBattery(n, BatteryConfig{CapacityMWh: 0, Refresh: time.Second}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewBattery(n, BatteryConfig{CapacityMWh: 100, Refresh: 0}); err == nil {
		t.Error("zero refresh accepted")
	}
}

func TestBatteryStartsFull(t *testing.T) {
	k := sim.NewKernel()
	n := newNode(t, k)
	b, err := NewBattery(n, DefaultBattery())
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Poll(); got != DefaultBattery().CapacityMWh {
		t.Fatalf("fresh battery reads %d", got)
	}
	if b.Empty() {
		t.Fatal("fresh battery empty")
	}
}

func TestBatteryDrainsWithLoad(t *testing.T) {
	k := sim.NewKernel()
	n := newNode(t, k)
	b, err := NewBattery(n, DefaultBattery())
	if err != nil {
		t.Fatal(err)
	}
	var after int
	k.Spawn("load", func(p *sim.Proc) {
		compute(n, p, 1400*60) // 60 s busy ≈ 60·33 J ≈ 550 mWh
		b.ForceRefresh()
		after = b.Poll()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	drawn := DefaultBattery().CapacityMWh - after
	wantJ := n.Energy().Total()
	if math.Abs(float64(drawn)*JoulesPerMWh-wantJ) > 2*JoulesPerMWh {
		t.Fatalf("battery drained %d mWh (%.0f J), true %.0f J", drawn, float64(drawn)*JoulesPerMWh, wantJ)
	}
}

func TestBatteryStaleBetweenRefreshes(t *testing.T) {
	k := sim.NewKernel()
	n := newNode(t, k)
	cfg := DefaultBattery()
	b, err := NewBattery(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	readings := []int{}
	k.Spawn("load", func(p *sim.Proc) {
		b.Poll() // consume the fresh reading
		for i := 0; i < 10; i++ {
			compute(n, p, 1400) // 1 s busy each
			readings = append(readings, b.Poll())
		}
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	// With an 18 s refresh, consecutive 1 s polls mostly repeat.
	repeats := 0
	for i := 1; i < len(readings); i++ {
		if readings[i] == readings[i-1] {
			repeats++
		}
	}
	if repeats < 7 {
		t.Fatalf("expected stale readings, got %v", readings)
	}
}

func TestBatteryRecharge(t *testing.T) {
	k := sim.NewKernel()
	n := newNode(t, k)
	b, err := NewBattery(n, DefaultBattery())
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("load", func(p *sim.Proc) {
		compute(n, p, 1400*30)
		b.Recharge()
		if got := b.Poll(); got != DefaultBattery().CapacityMWh {
			t.Errorf("after recharge: %d", got)
		}
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestMeterValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewMeter(k, nil, DefaultBattery()); err == nil {
		t.Error("no nodes accepted")
	}
	n := newNode(t, k)
	if _, err := NewMeter(k, []*node.Node{n}, BatteryConfig{CapacityMWh: 1}); err == nil {
		t.Error("zero battery refresh accepted")
	}
}

// The Baytech figure is the strip's per-minute average power over whole
// reporting windows: a 61 s busy run yields one window at busy power.
func TestBaytechWindowAverages(t *testing.T) {
	k := sim.NewKernel()
	n := newNode(t, k)
	m, err := NewMeter(k, []*node.Node{n}, DefaultBattery())
	if err != nil {
		t.Fatal(err)
	}
	var meas Measurement
	k.Spawn("load", func(p *sim.Proc) {
		m.Begin()
		compute(n, p, 1400*61) // 61 s busy
		meas, err = m.End()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	watts := meas.Baytech / 60
	busy := n.Config().Power.Watts(n.Table().Top(), dvs.ActCompute)
	if math.Abs(watts-busy) > 0.5 {
		t.Fatalf("baytech window average %.1f W, busy power is %.1f W", watts, busy)
	}
}

func TestMeterEndWithoutBegin(t *testing.T) {
	k := sim.NewKernel()
	m, err := NewMeter(k, []*node.Node{newNode(t, k)}, DefaultBattery())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.End(); err == nil {
		t.Fatal("End without Begin accepted")
	}
}

func TestMeterMeasuresRun(t *testing.T) {
	k := sim.NewKernel()
	nodes := []*node.Node{newNode(t, k)}
	m, err := NewMeter(k, nodes, DefaultBattery())
	if err != nil {
		t.Fatal(err)
	}
	var meas Measurement
	k.Spawn("exp", func(p *sim.Proc) {
		m.Begin()
		compute(nodes[0], p, 1400*120) // 2 minutes busy
		var err error
		meas, err = m.End()
		if err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if meas.True <= 0 {
		t.Fatal("no true energy")
	}
	if err := meas.CrossCheck(1, 0.02); err != nil {
		t.Fatal(err)
	}
	if meas.Elapsed < 119*time.Second {
		t.Fatalf("elapsed %v", meas.Elapsed)
	}
	// Baytech reconstruction within one window of truth.
	if math.Abs(meas.Baytech-meas.True) > meas.True/2*60/meas.Elapsed.Seconds()+1 {
		t.Fatalf("baytech %.1f vs true %.1f", meas.Baytech, meas.True)
	}
}

// Property: ACPI relative error shrinks as runs lengthen — the reason the
// paper used minutes-long jobs (§5 "to ensure accuracy ... durations
// measured in minutes").
func TestACPIErrorShrinksWithRuntime(t *testing.T) {
	relErr := func(seconds float64) float64 {
		k := sim.NewKernel()
		n := newNode(t, k)
		m, err := NewMeter(k, []*node.Node{n}, DefaultBattery())
		if err != nil {
			t.Fatal(err)
		}
		var meas Measurement
		k.Spawn("exp", func(p *sim.Proc) {
			m.Begin()
			compute(n, p, 1400*seconds)
			meas, _ = m.End()
		})
		if err := k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		return math.Abs(meas.ACPI-meas.True) / meas.True
	}
	short := relErr(5)
	long := relErr(300)
	if long > 0.01 {
		t.Fatalf("5-minute run still has %.2f%% ACPI error", long*100)
	}
	if short < long {
		t.Fatalf("error did not shrink: short %.4f, long %.4f", short, long)
	}
}

func TestCollectorSamplesAndAligns(t *testing.T) {
	k := sim.NewKernel()
	n0, n1 := newNode(t, k), node.MustNew(k, 1, node.DefaultConfig())
	c, err := StartCollector(k, []*node.Node{n0, n1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("load", func(p *sim.Proc) {
		compute(n0, p, 1400*5)
		c.Stop()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	samples := c.Samples()
	if len(samples) < 8 {
		t.Fatalf("samples = %d", len(samples))
	}
	var perNode [2]int
	for _, s := range samples {
		perNode[s.Node]++
	}
	if perNode[0] != perNode[1] {
		t.Fatalf("uneven series: %v samples per node", perNode)
	}
	rows := Align(samples, 2)
	if len(rows) == 0 {
		t.Fatal("no aligned rows")
	}
	for _, row := range rows {
		if len(row.Watts) != 2 {
			t.Fatalf("row width %d", len(row.Watts))
		}
		if math.Abs(row.Total-(row.Watts[0]+row.Watts[1])) > 1e-9 {
			t.Fatalf("row total mismatch")
		}
		// Busy node draws more than idle node.
		if row.Watts[0] <= row.Watts[1] {
			t.Fatalf("busy node not above idle: %+v", row)
		}
	}
}

func TestCollectorValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := StartCollector(k, nil, time.Second); err == nil {
		t.Error("no nodes accepted")
	}
	if _, err := StartCollector(k, []*node.Node{newNode(t, k)}, 0); err == nil {
		t.Error("zero period accepted")
	}
}

// Property: battery readings are monotone non-increasing under load.
func TestPropertyBatteryMonotone(t *testing.T) {
	f := func(chunks []uint8) bool {
		k := sim.NewKernel()
		n := node.MustNew(k, 0, node.DefaultConfig())
		b, err := NewBattery(n, BatteryConfig{CapacityMWh: 59_000, Refresh: time.Millisecond})
		if err != nil {
			return false
		}
		ok := true
		k.Spawn("load", func(p *sim.Proc) {
			prev := b.Poll()
			for _, c := range chunks {
				compute(n, p, float64(c))
				cur := b.Poll()
				if cur > prev {
					ok = false
				}
				prev = cur
			}
		})
		if err := k.Run(sim.MaxTime); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
