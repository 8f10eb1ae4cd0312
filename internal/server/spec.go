// Request specs: the JSON request bodies (the workload and strategy
// tables' wire forms, npb.Spec and core.StrategySpec, plus the config
// override) and their compilation into sweep cells and plans. Validation
// is strict and typed — every rejection names a code and the offending
// field — because the service is the trust boundary: past this file,
// inputs are assumed good.
package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// specErr translates a registry decode rejection (a *spec.Error whose
// field path is relative to the object being decoded) into the service's
// typed 400, rooted under the given object path ("workload", "strategy").
// Non-registry errors blame the whole object.
func specErr(err error, code, root string) *sweep.APIError {
	var se *spec.Error
	if errors.As(err, &se) {
		field := root
		if se.Field != "" {
			field = root + "." + se.Field
		}
		return sweep.Errf(code, field, "%s", se.Msg)
	}
	return sweep.Errf(code, root, "%v", err)
}

// WorkloadSpec names a benchmark instance; the workload table's parse
// form is the wire form.
type WorkloadSpec = npb.Spec

// StrategySpec selects and parameterizes a DVS scheduling strategy; the
// strategy table's parse form is the wire form.
type StrategySpec = core.StrategySpec

// ConfigSpec optionally overrides the calibrated NEMO cluster model.
// Absent fields keep core.DefaultConfig values; pointers distinguish
// "unset" from zero.
type ConfigSpec struct {
	// SpinWait makes blocked MPI calls busy-poll (MPICH without
	// blocking-socket support) — utilization daemons go blind.
	SpinWait *bool `json:"spin_wait,omitempty"`
	// WaitBusyFrac is the fraction of MPI-wait time visible as busy in
	// /proc accounting, in [0,1].
	WaitBusyFrac *float64 `json:"wait_busy_frac,omitempty"`
	// NetLatencyUS is the per-message interconnect latency in µs.
	NetLatencyUS *float64 `json:"net_latency_us,omitempty"`
	// NetBandwidthBps is the per-port bandwidth in bits/s.
	NetBandwidthBps *float64 `json:"net_bandwidth_bps,omitempty"`
	// NetLossRate is the per-message loss probability in [0,1).
	NetLossRate *float64 `json:"net_loss_rate,omitempty"`
	// NetSeed seeds the loss process (same seed → identical run).
	NetSeed *int64 `json:"net_seed,omitempty"`
	// TransitionLatencyUS is the DVS operating-point switch cost in µs.
	TransitionLatencyUS *float64 `json:"transition_latency_us,omitempty"`
}

func (s *ConfigSpec) build() (core.Config, error) {
	cfg := core.DefaultConfig()
	if s == nil {
		return cfg, nil
	}
	if s.SpinWait != nil {
		cfg.MPI.SpinWait = *s.SpinWait
	}
	if s.WaitBusyFrac != nil {
		if *s.WaitBusyFrac < 0 || *s.WaitBusyFrac > 1 {
			return core.Config{}, sweep.Errf(sweep.CodeInvalidConfig, "config.wait_busy_frac",
				"must be in [0,1], got %g", *s.WaitBusyFrac)
		}
		cfg.Node.WaitBusyFrac = *s.WaitBusyFrac
	}
	if s.NetLatencyUS != nil {
		if *s.NetLatencyUS < 0 {
			return core.Config{}, sweep.Errf(sweep.CodeInvalidConfig, "config.net_latency_us",
				"must be non-negative, got %g", *s.NetLatencyUS)
		}
		cfg.Net.Latency = time.Duration(*s.NetLatencyUS * float64(time.Microsecond))
	}
	if s.NetBandwidthBps != nil {
		if *s.NetBandwidthBps <= 0 {
			return core.Config{}, sweep.Errf(sweep.CodeInvalidConfig, "config.net_bandwidth_bps",
				"must be positive, got %g", *s.NetBandwidthBps)
		}
		cfg.Net.BandwidthBps = *s.NetBandwidthBps
	}
	if s.NetLossRate != nil {
		if *s.NetLossRate < 0 || *s.NetLossRate >= 1 {
			return core.Config{}, sweep.Errf(sweep.CodeInvalidConfig, "config.net_loss_rate",
				"must be in [0,1), got %g", *s.NetLossRate)
		}
		cfg.Net.LossRate = *s.NetLossRate
		if cfg.Net.LossRate > 0 {
			// The wire form has no retransmit-timeout knob, and the network
			// refuses loss without one: detect each loss after Linux's
			// minimum TCP RTO.
			cfg.Net.RetransmitTimeout = 200 * time.Millisecond
		}
	}
	if s.NetSeed != nil {
		cfg.Net.Seed = *s.NetSeed
	}
	if s.TransitionLatencyUS != nil {
		if *s.TransitionLatencyUS < 0 {
			return core.Config{}, sweep.Errf(sweep.CodeInvalidConfig, "config.transition_latency_us",
				"must be non-negative, got %g", *s.TransitionLatencyUS)
		}
		cfg.Node.Transition.Latency = time.Duration(*s.TransitionLatencyUS * float64(time.Microsecond))
	}
	return cfg, nil
}

// JobSpec is one grid cell: workload × strategy × optional config.
type JobSpec struct {
	Workload WorkloadSpec `json:"workload"`
	Strategy StrategySpec `json:"strategy"`
	Config   *ConfigSpec  `json:"config,omitempty"`
}

func (s JobSpec) build() (runner.Job, error) {
	cfg, err := s.Config.build()
	if err != nil {
		return runner.Job{}, err
	}
	w, err := s.Workload.Build()
	if err != nil {
		return runner.Job{}, specErr(err, sweep.CodeInvalidWorkload, "workload")
	}
	strat, err := core.DecodeStrategy(s.Strategy, cfg.Node.Table, w.Ranks)
	if err != nil {
		return runner.Job{}, specErr(err, sweep.CodeInvalidStrategy, "strategy")
	}
	return runner.Job{Workload: w, Strategy: strat, Config: cfg}, nil
}

// Cell compiles the spec into the sweep pipeline's placeable form: the
// compiled job, its content key, and s itself as the wire spec a
// forwarding placer encodes into a POST /simulate body.
func (s *JobSpec) Cell() (sweep.Cell, error) {
	job, err := s.build()
	if err != nil {
		return sweep.Cell{}, err
	}
	key, _ := job.Key()
	return sweep.Cell{Key: key, Job: job, Spec: s}, nil
}

// SimulateRequest is the POST /simulate body: one job plus a deadline.
type SimulateRequest struct {
	JobSpec
	// TimeoutMS bounds the request's wall-clock time; 0 uses the server
	// default, values above the server maximum are clamped.
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
}

// SweepRequest is the POST /sweep body: either an explicit job list, or
// a workloads × strategies grid sharing one optional config.
type SweepRequest struct {
	Jobs       []JobSpec      `json:"jobs,omitempty"`
	Workloads  []WorkloadSpec `json:"workloads,omitempty"`
	Strategies []StrategySpec `json:"strategies,omitempty"`
	Config     *ConfigSpec    `json:"config,omitempty"`
	TimeoutMS  float64        `json:"timeout_ms,omitempty"`
}

// Plan expands the request into the sweep pipeline's executable form:
// the single validated cell list, each cell carrying its content key,
// compiled job and wire body, with field paths naming the offending
// entry ("jobs[3].strategy.kind"). Grid form is workload-major, cell
// (i, j) at index i*len(strategies)+j. This is THE expansion path — dvsd,
// dvsgw, and any embedder execute exactly this plan.
func (s SweepRequest) Plan(maxJobs int) (*sweep.Plan, error) {
	explicit := len(s.Jobs) > 0
	grid := len(s.Workloads) > 0 || len(s.Strategies) > 0
	switch {
	case explicit && grid:
		return nil, sweep.Errf(sweep.CodeInvalidSweep, "jobs",
			"give either jobs or workloads×strategies, not both")
	case explicit:
		if s.Config != nil {
			return nil, sweep.Errf(sweep.CodeInvalidSweep, "config",
				"top-level config applies only to the grid form; set it per job")
		}
		if len(s.Jobs) > maxJobs {
			return nil, sweep.Errf(sweep.CodeTooManyJobs, "jobs",
				"%d jobs exceeds the per-request bound of %d", len(s.Jobs), maxJobs)
		}
		cells := make([]sweep.Cell, len(s.Jobs))
		for i := range s.Jobs {
			c, err := s.Jobs[i].Cell()
			if err != nil {
				return nil, sweep.InField(err, fmt.Sprintf("jobs[%d]", i))
			}
			cells[i] = c
		}
		return sweep.NewPlan(cells), nil
	case len(s.Workloads) > 0 && len(s.Strategies) > 0:
		n := len(s.Workloads) * len(s.Strategies)
		if n > maxJobs {
			return nil, sweep.Errf(sweep.CodeTooManyJobs, "workloads",
				"%d×%d grid = %d jobs exceeds the per-request bound of %d",
				len(s.Workloads), len(s.Strategies), n, maxJobs)
		}
		cfg, err := s.Config.build()
		if err != nil {
			return nil, err
		}
		cells := make([]sweep.Cell, 0, n)
		for i, ws := range s.Workloads {
			w, err := ws.Build()
			if err != nil {
				return nil, specErr(err, sweep.CodeInvalidWorkload, fmt.Sprintf("workloads[%d]", i))
			}
			for j, ss := range s.Strategies {
				strat, err := core.DecodeStrategy(ss, cfg.Node.Table, w.Ranks)
				if err != nil {
					return nil, specErr(err, sweep.CodeInvalidStrategy, fmt.Sprintf("strategies[%d]", j))
				}
				job := runner.Job{Workload: w, Strategy: strat, Config: cfg}
				key, _ := job.Key()
				cells = append(cells, sweep.Cell{Key: key, Job: job,
					Spec: &JobSpec{Workload: ws, Strategy: ss, Config: s.Config}})
			}
		}
		return sweep.NewPlan(cells), nil
	}
	return nil, sweep.Errf(sweep.CodeInvalidSweep, "jobs",
		"empty sweep: give jobs, or workloads and strategies")
}
