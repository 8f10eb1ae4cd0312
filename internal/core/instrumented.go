package core

import (
	"context"
	"time"

	"repro/internal/npb"
	"repro/internal/powerpack"
)

// InstrumentedResult bundles a run's true accounting with what the
// PowerPack instruments measured and the collected power profile.
type InstrumentedResult struct {
	Result
	Measurement powerpack.Measurement
	Profile     []powerpack.Sample
}

// RunInstrumented executes the workload like Run but on a PowerPack-
// instrumented cluster: a meter over per-node ACPI batteries and a
// power-profile collector sampling at the given period (0 disables the
// collector). It reproduces the paper's full measurement methodology,
// including the §4.2 conditioning protocol (idle discharge before the
// run). Strategy dispatch and measurement go through the same runOn path
// as Run, so every registered strategy works instrumented.
func RunInstrumented(w npb.Workload, strat Strategy, cfg Config, samplePeriod, warmup time.Duration) (InstrumentedResult, error) {
	m, err := build(cfg, w.Ranks, true, samplePeriod)
	if err != nil {
		return InstrumentedResult{}, err
	}
	res, err := runOn(context.Background(), &m, w, strat, warmup)
	if err != nil {
		return InstrumentedResult{}, err
	}
	meas, err := m.meter.End()
	if err != nil {
		return InstrumentedResult{}, err
	}
	out := InstrumentedResult{Result: res, Measurement: meas}
	if m.col != nil {
		out.Profile = m.col.Samples()
	}
	return out, nil
}
