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
	if !(c.ResistanceCPerW > 0) || math.IsInf(c.ResistanceCPerW, 1) {
		return fmt.Errorf("node: thermal resistance must be positive and finite")
	}
	if c.TimeConstant <= 0 {
		return fmt.Errorf("node: thermal time constant must be positive")
	}
	if math.IsNaN(c.AmbientC) || math.IsInf(c.AmbientC, 0) {
		return fmt.Errorf("node: ambient temperature must be finite")
	}
	if math.IsNaN(c.ReferenceC) || math.IsInf(c.ReferenceC, 0) {
		return fmt.Errorf("node: reference temperature must be finite")
	}
	return nil
}

// panelsPerTau caps a Simpson panel at τ/50. Over one panel the die moves
// at most 2% of the way to steady state, so Simpson's rule for the
// Arrhenius integral is exact to ~1e-10 relative. One panel per run is
// not enough: a class-C EP compute run lasts many τ, and a single panel
// over it misses the curve by several percent.
const panelsPerTau = 50

// arrheniusRate converts a temperature step in °C into the exponent of
// the Arrhenius factor's step: 2^(ΔT/10) = e^(arrheniusRate·ΔT).
const arrheniusRate = math.Ln2 / 10

// thermalState integrates die temperature over piecewise-constant CPU
// power. It keeps one pending run of constant power and integrates it only
// when the power changes or the stats are read: the RC model has a closed
// form over a constant-power run, so a run of many short spans costs one
// integration.
type thermalState struct {
	// tempC is the die temperature where the pending run starts, and
	// arrhenius its Arrhenius factor 2^((tempC−ref)/10), carried from one
	// endpoint to the next.
	tempC     float64
	arrhenius float64
	// maxC and the time-weighted integral track the summary statistics.
	maxC      float64
	integralC float64 // ∫T dt, °C·s
	// lifeUse is ∫2^((T−ref)/10) dt: seconds of reference-temperature
	// life consumed.
	lifeUse float64
	total   time.Duration // integrated time, excluding the pending run
	// runW is the pending run's CPU watts and runDur its length; runDur
	// is 0 when nothing is pending.
	runW   float64
	runDur time.Duration
}

func newThermalState(cfg ThermalConfig) thermalState {
	return thermalState{
		tempC:     cfg.AmbientC,
		arrhenius: math.Exp2((cfg.AmbientC - cfg.ReferenceC) / 10),
		maxC:      cfg.AmbientC,
	}
}

// advance accounts a span of dt > 0 at constant CPU power watts. A span at
// the pending run's power extends the run; any other power closes it
// first.
func (t *thermalState) advance(c *ThermalConfig, watts float64, dt time.Duration) {
	if watts != t.runW && t.runDur > 0 {
		t.flush(c)
	}
	t.runW = watts
	t.runDur += dt
}

// flush integrates the pending run and clears it. Temperature relaxes
// exponentially toward the run's steady state tss, so T and ∫T dt have
// closed forms, and T is monotone: the run's maximum is at an endpoint.
// The Arrhenius integral ∫2^((T−ref)/10) dt is composite Simpson over
// panels of at most τ/50. Every node of the rule steps the temperature
// and the Arrhenius factor from the previous node by a factor e^x, and
// the panel count keeps every such |x| ≤ 1e-2: a half panel is at most
// τ/100, and a run that starts more than 14.4°C from steady state gets
// proportionally more panels, so its first Arrhenius step is no larger.
// expm1's series then does the work of math.Exp and math.Pow.
func (t *thermalState) flush(c *ThermalConfig) {
	if t.runDur <= 0 {
		return
	}
	tss := c.AmbientC + t.runW*c.ResistanceCPerW
	dev0 := t.tempC - tss
	x := float64(t.runDur) / float64(c.TimeConstant) // run length in τ
	// Each half panel, y·τ long, shrinks the distance to steady state by
	// the factor e^(−y). Most runs are far shorter than a panel.
	panels, y := 1.0, x/2
	if p := x * panelsPerTau * max(1, arrheniusRate*math.Abs(dev0)); p > 1 {
		panels = math.Ceil(p)
		y = x / (2 * panels)
	}
	shrink := expm1(-y)
	dev, f := dev0, t.arrhenius
	// Simpson weights 1, 4, 2, 4, …, 2, 4, 1: every panel adds 4·mid +
	// 2·end, and the last end's extra weight comes off after the loop.
	sum := f
	for i := int(panels); i > 0; i-- {
		dT := dev * shrink
		dev += dT
		f += f * expm1(arrheniusRate*dT)
		sum += 4 * f
		dT = dev * shrink
		dev += dT
		f += f * expm1(arrheniusRate*dT)
		sum += 2 * f
	}
	tau := c.TimeConstant.Seconds()
	t.lifeUse += (sum - f) * y * tau / 3
	// ∫(tss + dev(s))ds = tss·sec + τ·(dev0 − dev).
	t.integralC += tss*t.runDur.Seconds() + tau*(dev0-dev)
	t.tempC = tss + dev
	t.arrhenius = f
	t.maxC = max(t.maxC, t.tempC)
	t.total += t.runDur
	t.runDur = 0
}

// expm1 is e^x − 1 for |x| ≤ 1e-2, the range flush keeps its steps in.
// There the five-term Taylor series is within x⁶/720 < 1.4e-15 of it, at
// a fraction of math.Expm1's cost.
func expm1(x float64) float64 {
	return x * (1 + x*(1.0/2+x*(1.0/6+x*(1.0/24+x*(1.0/120)))))
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
	return n.thermal.stats(&n.cfg.Thermal)
}

// stats summarizes the history, pending run included. It integrates the
// pending run on a copy: a read never splits a run, so reading mid-run
// leaves the final stats bit-identical.
func (t thermalState) stats(c *ThermalConfig) ThermalStats {
	t.flush(c)
	out := ThermalStats{CurrentC: t.tempC, MaxC: t.maxC, Span: t.total}
	if t.total > 0 {
		out.AvgC = t.integralC / t.total.Seconds()
		if t.lifeUse > 0 {
			out.LifetimeFactor = t.total.Seconds() / t.lifeUse
		}
	} else {
		out.AvgC = t.tempC
		out.LifetimeFactor = 1
	}
	return out
}
