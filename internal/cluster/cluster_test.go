package cluster

import (
	"math"
	"testing"
	"time"

	"repro/internal/mpisim"
	"repro/internal/powerpack"
	"repro/internal/sim"
)

// run launches body on every rank of c and drives it to completion, with
// the meter bracketing the run when c is instrumented.
func run(t *testing.T, c *Cluster, body func(r *mpisim.Rank)) {
	t.Helper()
	if m := c.Meter(); m != nil {
		m.Begin()
	}
	if err := c.World().Launch("test", body); err != nil {
		t.Fatal(err)
	}
	if err := c.Kernel().Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if !c.World().Done() {
		t.Fatal("world not done")
	}
}

// energy sums the true per-node joules consumed so far.
func energy(c *Cluster) float64 {
	var total float64
	for _, n := range c.Nodes() {
		total += n.Energy().Total()
	}
	return total
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	cfg := NEMO(4)
	cfg.Node.WaitBusyFrac = 7
	if _, err := New(cfg); err == nil {
		t.Fatal("bad node config accepted")
	}
}

func TestNEMOAssembly(t *testing.T) {
	c, err := New(NEMO(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes()) != 16 {
		t.Fatalf("size = %d", len(c.Nodes()))
	}
	if c.Nodes()[3].ID != 3 {
		t.Fatal("node ids wrong")
	}
	if c.World().Size() != 16 {
		t.Fatal("world size wrong")
	}
	if c.Network().Config().Nodes != 16 {
		t.Fatal("network ports wrong")
	}
	if c.Meter() != nil || c.Collector() != nil {
		t.Fatal("uninstrumented cluster has instruments")
	}
}

func TestRunSimplProgram(t *testing.T) {
	c, err := New(NEMO(4))
	if err != nil {
		t.Fatal(err)
	}
	run(t, c, func(r *mpisim.Rank) {
		r.Compute(140) // 100 ms
		r.Barrier()
	})
	if elapsed := c.World().Elapsed(); elapsed < sim.Time(100*time.Millisecond) {
		t.Fatalf("elapsed %v", elapsed)
	}
	if energy(c) <= 0 {
		t.Fatal("no energy")
	}
	for _, n := range c.Nodes() {
		if n.Energy().Total() <= 0 {
			t.Fatalf("node %d consumed no energy", n.ID)
		}
	}
}

// Every node is its own DVS domain: setting each one moves it alone.
func TestSetAllFrequencies(t *testing.T) {
	c, err := New(NEMO(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if err := n.SetFrequency(800); err != nil {
			t.Fatal(err)
		}
	}
	transitions := 0
	for _, n := range c.Nodes() {
		if n.Frequency() != 800 {
			t.Fatalf("node %d at %v", n.ID, n.Frequency())
		}
		transitions += n.Transitions()
	}
	if transitions != 3 {
		t.Fatalf("transitions = %d", transitions)
	}
}

func TestInstrumentedMeasurement(t *testing.T) {
	cfg := NEMO(2)
	cfg.Instrument = true
	cfg.Battery = powerpack.DefaultBattery()
	cfg.CollectPeriod = time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Meter() == nil || c.Collector() == nil {
		t.Fatal("instruments missing")
	}
	run(t, c, func(r *mpisim.Rank) {
		r.Compute(1400 * 90) // 90 s busy
	})
	m, err := c.Measurement()
	if err != nil {
		t.Fatal(err)
	}
	if m.True <= 0 {
		t.Fatal("no measured energy")
	}
	if math.Abs(m.True-energy(c)) > 1e-6 {
		t.Fatalf("meter true %.1f vs cluster %.1f", m.True, energy(c))
	}
	if err := m.CrossCheck(2, 0.02); err != nil {
		t.Fatal(err)
	}
	// The collector sampled during the run and stopped at completion.
	if len(c.Collector().Samples()) < 2*80 {
		t.Fatalf("collector samples = %d", len(c.Collector().Samples()))
	}
	rows := powerpack.Align(c.Collector().Samples(), 2)
	if len(rows) < 80 {
		t.Fatalf("aligned rows = %d", len(rows))
	}
}

func TestMeasurementWithoutInstruments(t *testing.T) {
	c, err := New(NEMO(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Measurement(); err == nil {
		t.Fatal("measurement on uninstrumented cluster accepted")
	}
}

func TestClusterIndependence(t *testing.T) {
	// Two clusters do not share state: running one leaves the other's
	// clock and energy untouched.
	a, err := New(NEMO(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(NEMO(2))
	if err != nil {
		t.Fatal(err)
	}
	run(t, a, func(r *mpisim.Rank) { r.Compute(1400) })
	if energy(a) <= 0 {
		t.Fatal("cluster A consumed no energy")
	}
	if b.Kernel().Now() != 0 {
		t.Fatal("cluster B clock moved")
	}
	if energy(b) != 0 {
		t.Fatal("cluster B consumed energy")
	}
}
