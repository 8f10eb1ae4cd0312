package node

import (
	"fmt"
	"math"
	"time"
)

// Thermal models the CPU die temperature with a first-order RC network
// and converts it into the reliability currency of the paper's
// introduction: "according to [the] Arrhenius Law, component life
// expectancy decreases 50% for every 10°C temperature increase. Reducing a
// component's operating temperature the same amount doubles the life
// expectancy." DVS savings are therefore not just joules — they are
// lifetime.
type ThermalConfig struct {
	// AmbientC is the inlet/ambient temperature in °C.
	AmbientC float64
	// ResistanceCPerW is the junction-to-ambient thermal resistance: at
	// steady state T = ambient + P_cpu × R.
	ResistanceCPerW float64
	// TimeConstant is the RC time constant of the die+heatsink.
	TimeConstant time.Duration
	// ReferenceC anchors the Arrhenius acceleration factor: life
	// consumption at ReferenceC is defined as 1×.
	ReferenceC float64
}

// DefaultThermal matches a laptop-class Pentium M package: ~1.8 °C/W to
// ambient 25 °C puts a 21 W core near 63 °C, with a ~10 s settle time.
func DefaultThermal() ThermalConfig {
	return ThermalConfig{
		AmbientC:        25,
		ResistanceCPerW: 1.8,
		TimeConstant:    10 * time.Second,
		ReferenceC:      60,
	}
}

// Validate checks physical plausibility.
func (c ThermalConfig) Validate() error {
	if c.ResistanceCPerW <= 0 {
		return fmt.Errorf("node: thermal resistance must be positive")
	}
	if c.TimeConstant <= 0 {
		return fmt.Errorf("node: thermal time constant must be positive")
	}
	return nil
}

// thermalState integrates die temperature over piecewise-constant power.
type thermalState struct {
	cfg ThermalConfig
	// tempC is the die temperature at the last integration point.
	tempC float64
	// maxC and the time-weighted integral track the summary statistics.
	maxC      float64
	integralC float64 // ∫T dt, °C·s
	// lifeUse is ∫2^((T−ref)/10) dt: seconds of reference-temperature
	// life consumed.
	lifeUse float64
	total   time.Duration
}

func newThermalState(cfg ThermalConfig) *thermalState {
	return &thermalState{cfg: cfg, tempC: cfg.AmbientC, maxC: cfg.AmbientC}
}

// advance integrates a span of dt at constant CPU power watts.
func (t *thermalState) advance(watts float64, dt time.Duration) {
	if dt <= 0 {
		return
	}
	sec := dt.Seconds()
	tau := t.cfg.TimeConstant.Seconds()
	tss := t.cfg.AmbientC + watts*t.cfg.ResistanceCPerW
	// Exact exponential relaxation toward the steady state.
	alpha := math.Exp(-sec / tau)
	t0 := t.tempC
	t1 := tss + (t0-tss)*alpha
	t.tempC = t1
	if t1 > t.maxC {
		t.maxC = t1
	}
	if t0 > t.maxC {
		t.maxC = t0
	}
	// ∫T dt over the exponential segment has a closed form:
	// ∫(tss + (t0−tss)e^(−s/τ))ds = tss·sec + (t0−tss)·τ·(1−α).
	t.integralC += tss*sec + (t0-tss)*tau*(1-alpha)
	// Life consumption: approximate the segment with its mean temperature
	// (the doubling-per-10°C curve is smooth at phase scale).
	meanT := (tss*sec + (t0-tss)*tau*(1-alpha)) / sec
	t.lifeUse += sec * math.Pow(2, (meanT-t.cfg.ReferenceC)/10)
	t.total += dt
}

// ThermalStats summarizes a node's thermal history.
type ThermalStats struct {
	CurrentC float64
	MaxC     float64
	AvgC     float64
	// LifetimeFactor is expected lifetime relative to running pegged at
	// the reference temperature: >1 means the component lives longer.
	LifetimeFactor float64
	Span           time.Duration
}

// Thermal returns the node's thermal summary up to the current time.
func (n *Node) Thermal() ThermalStats {
	n.advance()
	ts := n.thermal
	out := ThermalStats{CurrentC: ts.tempC, MaxC: ts.maxC, Span: ts.total}
	if ts.total > 0 {
		out.AvgC = ts.integralC / ts.total.Seconds()
		if ts.lifeUse > 0 {
			out.LifetimeFactor = ts.total.Seconds() / ts.lifeUse
		}
	} else {
		out.AvgC = ts.tempC
		out.LifetimeFactor = 1
	}
	return out
}
