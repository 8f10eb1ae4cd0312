// Request specs: the JSON wire forms of (workload, strategy, config) and
// their compilation into sweep cells and plans. Validation is strict and typed —
// every rejection names a code and the offending field — because the
// service is the trust boundary: past this file, inputs are assumed good.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dvs"
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
		return sweep.BadField(code, field, "%s", se.Msg)
	}
	return sweep.BadField(code, root, "%v", err)
}

// WorkloadSpec names a benchmark instance.
type WorkloadSpec struct {
	// Code is the benchmark name (FT, CG, ... — see npb.Codes).
	Code string `json:"code"`
	// Class is the NPB problem class letter (S, W, A, B, C); default C,
	// the paper's size.
	Class string `json:"class,omitempty"`
	// Ranks is the MPI world size; default is the paper's rank count for
	// the code (npb.PaperRanks).
	Ranks int `json:"ranks,omitempty"`
	// Variant selects an instrumented build: "" for plain, "internal"
	// for the §5.3 source-instrumented FT/CG variants.
	Variant string `json:"variant,omitempty"`
	// HighMHz/LowMHz are the internal variant's two speeds (default
	// 1400/600, the paper's Figure 10 settings).
	HighMHz float64 `json:"high_mhz,omitempty"`
	LowMHz  float64 `json:"low_mhz,omitempty"`
}

func (s WorkloadSpec) build() (npb.Workload, error) {
	w, err := npb.Spec{
		Code:    s.Code,
		Class:   s.Class,
		Ranks:   s.Ranks,
		Variant: s.Variant,
		HighMHz: s.HighMHz,
		LowMHz:  s.LowMHz,
	}.Build()
	if err != nil {
		return npb.Workload{}, specErr(err, sweep.CodeInvalidWorkload, "workload")
	}
	return w, nil
}

// StrategySpec selects and parameterizes a DVS scheduling strategy. The
// parameter fields are the union of what the registered strategies
// consume; each strategy's Decode hook reads the fields it cares about.
type StrategySpec struct {
	// Kind is a registered strategy name — core.StrategyNames(), i.e.
	// nodvs, external, external-per-node, daemon, predictive, ondemand,
	// powercap.
	Kind string `json:"kind"`
	// FreqMHz is the static frequency for kind=external.
	FreqMHz float64 `json:"freq_mhz,omitempty"`
	// PerNode maps node ID (JSON object key, decimal string, below the
	// workload's rank count) to MHz for kind=external-per-node.
	PerNode map[string]float64 `json:"per_node,omitempty"`
	// Preset selects the daemon tuning for kind=daemon: "v1.1" or
	// "v1.2.1" (default).
	Preset string `json:"preset,omitempty"`
	// IntervalMS overrides the control period for daemon/ondemand/powercap.
	IntervalMS float64 `json:"interval_ms,omitempty"`
	// TargetLoad overrides the predictive daemon's headroom target.
	TargetLoad float64 `json:"target_load,omitempty"`
	// BudgetWatts is the cluster power cap for kind=powercap.
	BudgetWatts float64 `json:"budget_watts,omitempty"`
	// Headroom overrides powercap hysteresis.
	Headroom float64 `json:"headroom,omitempty"`
}

// build decodes the spec through the strategy registry: the spec's
// parameter fields become a core.StrategyArgs bag, and the registered
// strategy named by Kind reads the fields it cares about. table and ranks
// are the cluster the strategy will run on; rejections name fields under
// root ("strategy", "strategies[2]"). Unknown kinds reject listing the
// registered names.
func (s StrategySpec) build(table dvs.Table, ranks int, root string) (core.Strategy, error) {
	if s.Kind == "" {
		return core.Strategy{}, sweep.BadField(sweep.CodeInvalidStrategy, root+".kind",
			"required; one of %s", strings.Join(core.StrategyNames(), ", "))
	}
	strat, err := core.DecodeStrategy(s.Kind, core.StrategyArgs{
		FreqMHz:     s.FreqMHz,
		PerNode:     s.PerNode,
		Preset:      s.Preset,
		IntervalMS:  s.IntervalMS,
		TargetLoad:  s.TargetLoad,
		BudgetWatts: s.BudgetWatts,
		Headroom:    s.Headroom,
		Table:       table,
		Ranks:       ranks,
	})
	if err != nil {
		return core.Strategy{}, specErr(err, sweep.CodeInvalidStrategy, root)
	}
	return strat, nil
}

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
			return core.Config{}, sweep.BadField(sweep.CodeInvalidConfig, "config.wait_busy_frac",
				"must be in [0,1], got %g", *s.WaitBusyFrac)
		}
		cfg.Node.WaitBusyFrac = *s.WaitBusyFrac
	}
	if s.NetLatencyUS != nil {
		if *s.NetLatencyUS < 0 {
			return core.Config{}, sweep.BadField(sweep.CodeInvalidConfig, "config.net_latency_us",
				"must be non-negative, got %g", *s.NetLatencyUS)
		}
		cfg.Net.Latency = time.Duration(*s.NetLatencyUS * float64(time.Microsecond))
	}
	if s.NetBandwidthBps != nil {
		if *s.NetBandwidthBps <= 0 {
			return core.Config{}, sweep.BadField(sweep.CodeInvalidConfig, "config.net_bandwidth_bps",
				"must be positive, got %g", *s.NetBandwidthBps)
		}
		cfg.Net.BandwidthBps = *s.NetBandwidthBps
	}
	if s.NetLossRate != nil {
		if *s.NetLossRate < 0 || *s.NetLossRate >= 1 {
			return core.Config{}, sweep.BadField(sweep.CodeInvalidConfig, "config.net_loss_rate",
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
			return core.Config{}, sweep.BadField(sweep.CodeInvalidConfig, "config.transition_latency_us",
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
	w, err := s.Workload.build()
	if err != nil {
		return runner.Job{}, err
	}
	strat, err := s.Strategy.build(cfg.Node.Table, w.Ranks, "strategy")
	if err != nil {
		return runner.Job{}, err
	}
	return runner.Job{Workload: w, Strategy: strat, Config: cfg}, nil
}

// Cell compiles the spec into the sweep pipeline's placeable form: the
// compiled job, its content key, and the spec as a forwardable POST
// /simulate body.
func (s JobSpec) Cell() (sweep.Cell, error) {
	job, err := s.build()
	if err != nil {
		return sweep.Cell{}, err
	}
	return compiledCell(s, job)
}

// compiledCell pairs a spec with the job already compiled from it.
func compiledCell(s JobSpec, job runner.Job) (sweep.Cell, error) {
	body, err := json.Marshal(s)
	if err != nil { // specs are built from decoded JSON; cannot recur
		return sweep.Cell{}, sweep.Errf(http.StatusInternalServerError, sweep.CodeSimFailed, "",
			"encode cell: %v", err)
	}
	key, _ := job.Key()
	return sweep.Cell{Key: key, Job: job, Body: body}, nil
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
		return nil, sweep.BadField(sweep.CodeInvalidSweep, "jobs",
			"give either jobs or workloads×strategies, not both")
	case explicit:
		if s.Config != nil {
			return nil, sweep.BadField(sweep.CodeInvalidSweep, "config",
				"top-level config applies only to the grid form; set it per job")
		}
		if len(s.Jobs) > maxJobs {
			return nil, sweep.TooManyJobs("jobs",
				"%d jobs exceeds the per-request bound of %d", len(s.Jobs), maxJobs)
		}
		cells := make([]sweep.Cell, len(s.Jobs))
		for i, js := range s.Jobs {
			c, err := js.Cell()
			if err != nil {
				return nil, sweep.InField(err, fmt.Sprintf("jobs[%d]", i))
			}
			cells[i] = c
		}
		return sweep.NewPlan(cells), nil
	case len(s.Workloads) > 0 && len(s.Strategies) > 0:
		n := len(s.Workloads) * len(s.Strategies)
		if n > maxJobs {
			return nil, sweep.TooManyJobs("workloads",
				"%d×%d grid = %d jobs exceeds the per-request bound of %d",
				len(s.Workloads), len(s.Strategies), n, maxJobs)
		}
		cfg, err := s.Config.build()
		if err != nil {
			return nil, err
		}
		cells := make([]sweep.Cell, 0, n)
		for i, ws := range s.Workloads {
			w, err := ws.build()
			if err != nil {
				return nil, sweep.InField(err, fmt.Sprintf("workloads[%d]", i))
			}
			for j, ss := range s.Strategies {
				strat, err := ss.build(cfg.Node.Table, w.Ranks, fmt.Sprintf("strategies[%d]", j))
				if err != nil {
					return nil, err
				}
				c, err := compiledCell(JobSpec{Workload: ws, Strategy: ss, Config: s.Config},
					runner.Job{Workload: w, Strategy: strat, Config: cfg})
				if err != nil {
					return nil, sweep.InField(err, fmt.Sprintf("jobs[%d]", len(cells)))
				}
				cells = append(cells, c)
			}
		}
		return sweep.NewPlan(cells), nil
	}
	return nil, sweep.BadField(sweep.CodeInvalidSweep, "jobs",
		"empty sweep: give jobs, or workloads and strategies")
}
