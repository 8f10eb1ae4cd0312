package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/mpisim"
	"repro/internal/powerpack"
	"repro/internal/sim"
)

// launch runs body on every rank of m and drives it to completion, with
// the meter bracketing the run when m is instrumented.
func launch(t *testing.T, m *machine, body func(r *mpisim.Rank)) {
	t.Helper()
	if m.meter != nil {
		m.meter.Begin()
	}
	if err := m.world.Launch("test", body); err != nil {
		t.Fatal(err)
	}
	if err := m.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if !m.world.Done() {
		t.Fatal("world not done")
	}
}

// joules sums the true per-node energy consumed so far.
func joules(m *machine) float64 {
	var total float64
	for _, n := range m.nodes {
		total += n.Energy().Total()
	}
	return total
}

func TestBuildValidation(t *testing.T) {
	if _, err := build(DefaultConfig(), 0, false, 0); err == nil {
		t.Fatal("zero nodes accepted")
	}
	cfg := DefaultConfig()
	cfg.Node.WaitBusyFrac = 7
	if _, err := build(cfg, 4, false, 0); err == nil {
		t.Fatal("bad node config accepted")
	}
}

// The node count, not DefaultConfig's 16-port network, sizes every part.
func TestBuildAssembly(t *testing.T) {
	m, err := build(DefaultConfig(), 5, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.nodes) != 5 || m.nodes[3].ID != 3 {
		t.Fatalf("nodes wrong: %d, node 3 has id %d", len(m.nodes), m.nodes[3].ID)
	}
	if m.world.Size() != 5 {
		t.Fatal("world size wrong")
	}
	if m.net.Nodes() != 5 {
		t.Fatal("network ports wrong")
	}
}

// Instruments are attached only on request: none uninstrumented, and a
// meter without a collector when no sample period is given.
func TestBuildWithoutInstruments(t *testing.T) {
	m, err := build(DefaultConfig(), 2, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.meter != nil || m.col != nil {
		t.Fatal("uninstrumented machine has instruments")
	}
	m, err = build(DefaultConfig(), 2, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.meter == nil || m.col != nil {
		t.Fatal("unsampled machine: want a meter and no collector")
	}
}

func TestBuildInstrumentedMeasurement(t *testing.T) {
	m, err := build(DefaultConfig(), 2, true, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.meter == nil || m.col == nil {
		t.Fatal("instruments missing")
	}
	launch(t, &m, func(r *mpisim.Rank) {
		r.Compute(1400 * 90) // 90 s busy
	})
	meas, err := m.meter.End()
	if err != nil {
		t.Fatal(err)
	}
	if meas.True <= 0 {
		t.Fatal("no measured energy")
	}
	if math.Abs(meas.True-joules(&m)) > 1e-6 {
		t.Fatalf("meter true %.1f vs nodes %.1f", meas.True, joules(&m))
	}
	if err := meas.CrossCheck(2, 0.02); err != nil {
		t.Fatal(err)
	}
	// The collector sampled during the run and stopped at completion.
	if n := len(m.col.Samples()); n < 2*80 {
		t.Fatalf("collector samples = %d", n)
	}
	if rows := powerpack.Align(m.col.Samples(), 2); len(rows) < 80 {
		t.Fatalf("aligned rows = %d", len(rows))
	}
}

func TestBuildRunsProgram(t *testing.T) {
	m, err := build(DefaultConfig(), 4, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	launch(t, &m, func(r *mpisim.Rank) {
		r.Compute(140) // 100 ms
		r.Barrier()
	})
	if elapsed := m.world.Elapsed(); elapsed < sim.Time(100*time.Millisecond) {
		t.Fatalf("elapsed %v", elapsed)
	}
	for _, n := range m.nodes {
		if n.Energy().Total() <= 0 {
			t.Fatalf("node %d consumed no energy", n.ID)
		}
	}
}

// Two machines share no state: running one leaves the other's clock and
// energy untouched.
func TestBuildIndependence(t *testing.T) {
	a, err := build(DefaultConfig(), 2, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := build(DefaultConfig(), 2, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	launch(t, &a, func(r *mpisim.Rank) { r.Compute(1400) })
	if joules(&a) <= 0 {
		t.Fatal("machine A consumed no energy")
	}
	if b.k.Now() != 0 {
		t.Fatal("machine B clock moved")
	}
	if joules(&b) != 0 {
		t.Fatal("machine B consumed energy")
	}
}
