package sched

import (
	"fmt"
	"time"

	"repro/internal/node"
	"repro/internal/sim"
)

// PredictiveConfig tunes the phase-aware daemon — the paper's future-work
// direction ("better prediction methods more suitable to high-performance
// computing applications", §7). Instead of stepping one operating point
// per interval on the last window's utilization, it:
//
//  1. samples utilization in short windows, recording the *cycle demand*
//     (utilization × current frequency, in MHz-equivalents) so history is
//     comparable across operating points;
//  2. detects the application's iteration period by autocorrelation over
//     the demand history (scientific codes are periodic — the daemon's
//     core weakness in §5.1 is being blind to this);
//  3. predicts the next window's demand from one period ago and jumps
//     directly to the slowest operating point that satisfies it at the
//     target load.
//
// While history is insufficient or aperiodic it falls back to the classic
// threshold walk.
type PredictiveConfig struct {
	// Window is the sampling/adjustment period (shorter than cpuspeed's,
	// since prediction replaces damping).
	Window time.Duration
	// History is the number of windows kept for period detection.
	History int
	// TargetLoad is the utilization the chosen point should produce
	// (run-just-fast-enough headroom).
	TargetLoad float64
	// MinCorrelation is the autocorrelation (0..1) required to trust a
	// detected period.
	MinCorrelation float64
	// Fallback is used until prediction becomes confident.
	Fallback CPUSpeedConfig
}

// DefaultPredictive returns the tuned configuration.
func DefaultPredictive() PredictiveConfig {
	return PredictiveConfig{
		Window:         250 * time.Millisecond,
		History:        64,
		TargetLoad:     0.85,
		MinCorrelation: 0.5,
		Fallback:       CPUSpeedV121(),
	}
}

// Validate checks the configuration.
func (c PredictiveConfig) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("sched: non-positive predictive window")
	}
	if c.History < 8 {
		return fmt.Errorf("sched: predictive history must be ≥ 8 windows")
	}
	if c.TargetLoad <= 0 || c.TargetLoad > 1 {
		return fmt.Errorf("sched: target load must be in (0, 1]")
	}
	if c.MinCorrelation < 0 || c.MinCorrelation > 1 {
		return fmt.Errorf("sched: min correlation must be in [0, 1]")
	}
	return c.Fallback.Validate()
}

// predictive is the phase-aware daemon's policy.
type predictive struct {
	Governor
	cfg PredictiveConfig

	demand []float64 // ring buffer of MHz-equivalent demand
	head   int
	filled int

	// Predicted counts decisions made by the predictor (vs fallback).
	Predicted int
}

// StartPredictive spawns the predictive daemon for one node.
func StartPredictive(k *sim.Kernel, n *node.Node, cfg PredictiveConfig) (*Governor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &predictive{cfg: cfg, demand: make([]float64, cfg.History)}
	return d.start(k, "predictive", n, cfg.Window, d), nil
}

func (d *predictive) next(u float64) int {
	// Record demand in MHz-equivalents at the frequency that served it.
	d.push(u * float64(d.node.Frequency()))
	if pred, ok := d.predict(); ok {
		d.Predicted++
		return d.pointFor(pred)
	}
	// Classic §3.1 walk until the predictor is confident.
	return cpuspeedIndex(d.cfg.Fallback, d.node, u)
}

// push appends a demand sample to the ring.
func (d *predictive) push(v float64) {
	d.demand[d.head] = v
	d.head = (d.head + 1) % len(d.demand)
	if d.filled < len(d.demand) {
		d.filled++
	}
}

// series returns the demand history oldest-first.
func (d *predictive) series() []float64 {
	out := make([]float64, 0, d.filled)
	start := (d.head - d.filled + len(d.demand)) % len(d.demand)
	for i := 0; i < d.filled; i++ {
		out = append(out, d.demand[(start+i)%len(d.demand)])
	}
	return out
}

// predict returns the expected next-window demand when a trustworthy
// period exists in the history.
func (d *predictive) predict() (float64, bool) {
	s := d.series()
	if len(s) < 16 {
		return 0, false
	}
	lag, corr := dominantPeriod(s)
	if lag == 0 || corr < d.cfg.MinCorrelation {
		return 0, false
	}
	// The next window repeats the one a period ago.
	return s[len(s)-lag], true
}

// pointFor maps a demand (MHz-equivalent) to the slowest operating point
// that serves it at the target load.
func (d *predictive) pointFor(demand float64) int {
	table := d.node.Table()
	for i, op := range table {
		if float64(op.Frequency)*d.cfg.TargetLoad >= demand {
			return i
		}
	}
	return len(table) - 1
}

// dominantPeriod finds the lag (2..len/2) with the highest normalized
// autocorrelation of the mean-removed series.
func dominantPeriod(s []float64) (lag int, corr float64) {
	n := len(s)
	mean := 0.0
	for _, v := range s {
		mean += v
	}
	mean /= float64(n)
	var den float64
	c := make([]float64, n)
	for i, v := range s {
		c[i] = v - mean
		den += c[i] * c[i]
	}
	if den <= 1e-12 {
		return 0, 0 // flat series: no periodicity (constant load)
	}
	bestLag, bestC := 0, 0.0
	for L := 2; L <= n/2; L++ {
		var num float64
		for i := L; i < n; i++ {
			num += c[i] * c[i-L]
		}
		r := num / den
		if r > bestC {
			bestLag, bestC = L, r
		}
	}
	return bestLag, bestC
}
