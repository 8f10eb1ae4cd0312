package powerpack

import (
	"fmt"
	"time"

	"repro/internal/node"
	"repro/internal/sim"
)

// Measurement is one experiment's energy as seen by each instrument,
// cluster-wide, in joules.
type Measurement struct {
	ACPI    float64 // Σ per-node battery ΔmWh × 3.6 J
	Baytech float64 // Σ per-node average-power × duration
	True    float64 // ground truth from the node energy integrators
	Elapsed time.Duration
}

// MaxQuantizationError returns the worst-case ACPI error bound for n
// nodes: one mWh per node per endpoint reading.
func MaxQuantizationError(nodes int) float64 { return 2 * JoulesPerMWh * float64(nodes) }

// CrossCheck reports whether the two instruments agree within their
// combined quantization/refresh bounds plus tolerance frac of the truth.
func (m Measurement) CrossCheck(nodes int, frac float64) error {
	bound := MaxQuantizationError(nodes) + frac*m.True
	if d := m.ACPI - m.True; d > bound || d < -bound {
		return fmt.Errorf("powerpack: ACPI %.1f J vs true %.1f J beyond bound %.1f J", m.ACPI, m.True, bound)
	}
	return nil
}

// Meter instruments a set of nodes with one battery each and measures the
// energy of a [Begin, End] window. Its Baytech figure is reconstructed
// from the strip's once-a-minute reporting windows (see End).
type Meter struct {
	k         *sim.Kernel
	nodes     []*node.Node
	batteries []*Battery

	beginReadings []int
	beginTrue     float64
	beginAt       sim.Time
	began         bool
}

// NewMeter attaches instruments to the nodes.
func NewMeter(k *sim.Kernel, nodes []*node.Node, battery BatteryConfig) (*Meter, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("powerpack: no nodes to meter")
	}
	m := &Meter{k: k, nodes: nodes}
	for _, n := range nodes {
		b, err := NewBattery(n, battery)
		if err != nil {
			return nil, err
		}
		m.batteries = append(m.batteries, b)
	}
	return m, nil
}

// Begin starts a measurement window: the §4.2 protocol's "disconnect from
// wall power and record" moment. Batteries are force-refreshed so the
// start reading is current.
func (m *Meter) Begin() {
	m.beginReadings = m.beginReadings[:0]
	m.beginTrue = 0
	for i, b := range m.batteries {
		b.ForceRefresh()
		m.beginReadings = append(m.beginReadings, b.Poll())
		m.beginTrue += m.nodes[i].Energy().Total()
	}
	m.beginAt = m.k.Now()
	m.began = true
}

// End closes the window and returns the measurement. The battery endpoint
// readings are refreshed like the paper's post-run poll.
func (m *Meter) End() (Measurement, error) {
	if !m.began {
		return Measurement{}, fmt.Errorf("powerpack: End without Begin")
	}
	var out Measurement
	out.Elapsed = time.Duration(m.k.Now().Sub(m.beginAt))
	for i, b := range m.batteries {
		b.ForceRefresh()
		end := b.Poll()
		out.ACPI += float64(m.beginReadings[i]-end) * JoulesPerMWh
		out.True += m.nodes[i].Energy().Total()
	}
	out.True -= m.beginTrue
	// Baytech reconstruction: the strip logs per-minute average power, so
	// a run's energy is recovered from whole completed windows — for
	// minutes-long runs the truncation error is below one window.
	sec := out.Elapsed.Seconds()
	if sec > 0 {
		mins := float64(int(sec / 60))
		if mins < 1 {
			mins = sec / 60 // sub-minute runs: single partial window
		}
		out.Baytech = out.True / sec * mins * 60
	}
	m.began = false
	return out, nil
}
