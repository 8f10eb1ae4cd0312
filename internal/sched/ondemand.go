package sched

import (
	"fmt"
	"time"

	"repro/internal/node"
	"repro/internal/sim"
)

// OnDemandConfig models the Linux "ondemand" cpufreq governor that
// replaced userspace daemons like cpuspeed from kernel 2.6.9 on — the
// in-kernel design point between the paper's CPUSPEED strategy and its
// predictive future work. Its policy is asymmetric: jump straight to the
// top frequency the moment utilization exceeds UpThreshold (performance
// first), then decay one step at a time after sustained low utilization.
type OnDemandConfig struct {
	// SamplingRate is the in-kernel polling period (default 10–100 ms —
	// far finer than cpuspeed's seconds).
	SamplingRate time.Duration
	// UpThreshold: utilization above this jumps to the top point.
	UpThreshold float64
	// DownDifferential: a step down requires utilization below
	// UpThreshold − DownDifferential for DownSamples consecutive samples.
	DownDifferential float64
	// DownSamples is the sustained-low-sample requirement before decaying.
	DownSamples int
}

// DefaultOnDemand matches the historical kernel defaults.
func DefaultOnDemand() OnDemandConfig {
	return OnDemandConfig{
		SamplingRate:     80 * time.Millisecond,
		UpThreshold:      0.80,
		DownDifferential: 0.30,
		DownSamples:      5,
	}
}

// Validate checks the configuration.
func (c OnDemandConfig) Validate() error {
	if c.SamplingRate <= 0 {
		return fmt.Errorf("sched: non-positive ondemand sampling rate")
	}
	if c.UpThreshold <= 0 || c.UpThreshold > 1 {
		return fmt.Errorf("sched: ondemand up-threshold must be in (0, 1]")
	}
	if c.DownDifferential < 0 || c.DownDifferential >= c.UpThreshold {
		return fmt.Errorf("sched: ondemand down-differential must be in [0, up)")
	}
	if c.DownSamples < 1 {
		return fmt.Errorf("sched: ondemand needs ≥1 down sample")
	}
	return nil
}

// ondemand is the in-kernel governor's policy.
type ondemand struct {
	Governor
	cfg    OnDemandConfig
	lowRun int
}

// StartOnDemand spawns the ondemand governor for one node.
func StartOnDemand(k *sim.Kernel, n *node.Node, cfg OnDemandConfig) (*Governor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &ondemand{cfg: cfg}
	return d.start(k, "ondemand", n, cfg.SamplingRate, d), nil
}

func (d *ondemand) next(u float64) int {
	s := d.node.OperatingIndex()
	switch {
	case u > d.cfg.UpThreshold:
		d.lowRun = 0
		s = len(d.node.Table()) - 1
	case u < d.cfg.UpThreshold-d.cfg.DownDifferential:
		d.lowRun++
		if d.lowRun >= d.cfg.DownSamples {
			d.lowRun = 0
			if s > 0 {
				s--
			}
		}
	default:
		d.lowRun = 0
	}
	return s
}
