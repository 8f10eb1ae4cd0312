// Package core is the library façade: it assembles a simulated power-aware
// cluster (nodes, interconnect, MPI world and, for RunInstrumented, the
// PowerPack meter and power-profile collector), applies a DVS scheduling
// strategy, runs a workload, and returns measured energy and delay. The
// cluster is put together in one place, build, for both run paths.
//
// This is the API a downstream user calls:
//
//	w, _ := npb.FT(npb.ClassC, 8)
//	res, _ := core.Run(w, core.External(600), core.DefaultConfig())
//	base, _ := core.Run(w, core.NoDVS(), core.DefaultConfig())
//	n := core.Normalize(res, base) // → normalized delay & energy
package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/dvs"
	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/powerpack"
	"repro/internal/sched"
	"repro/internal/sim"
)

// StrategyKind enumerates the paper's scheduling strategies.
type StrategyKind int

const (
	// KindNoDVS runs every node at top speed (the normalization baseline).
	KindNoDVS StrategyKind = iota
	// KindExternal sets a static frequency on every node before the run.
	KindExternal
	// KindExternalPerNode sets static per-node frequencies before the run.
	KindExternalPerNode
	// KindDaemon runs the CPUSPEED daemon on every node.
	KindDaemon
	// KindPredictive runs the phase-aware predictive daemon (the paper's
	// future-work direction) on every node.
	KindPredictive
	// KindOnDemand runs the in-kernel ondemand governor that superseded
	// cpuspeed, for historical comparison.
	KindOnDemand
	// KindPowerCap runs a cluster-level power-capping controller.
	KindPowerCap
)

// Strategy selects and parameterizes a scheduling strategy. INTERNAL
// scheduling is expressed in the workload itself (npb.FTInternal,
// npb.CGInternal, ...) and is typically combined with NoDVS here.
type Strategy struct {
	Kind       StrategyKind
	Freq       dvs.MHz                // KindExternal
	PerNode    map[int]dvs.MHz        // KindExternalPerNode
	Daemon     sched.CPUSpeedConfig   // KindDaemon
	Predictive sched.PredictiveConfig // KindPredictive
	OnDemand   sched.OnDemandConfig   // KindOnDemand
	PowerCap   sched.PowerCapConfig   // KindPowerCap
}

// NoDVS returns the no-scheduling baseline strategy.
func NoDVS() Strategy { return Strategy{Kind: KindNoDVS} }

// External returns the §3.2 homogeneous static strategy.
func External(f dvs.MHz) Strategy { return Strategy{Kind: KindExternal, Freq: f} }

// ExternalPerNode returns the heterogeneous static strategy.
func ExternalPerNode(freqs map[int]dvs.MHz) Strategy {
	return Strategy{Kind: KindExternalPerNode, PerNode: freqs}
}

// Daemon returns the §3.1 CPUSPEED strategy with the given config.
func Daemon(cfg sched.CPUSpeedConfig) Strategy { return Strategy{Kind: KindDaemon, Daemon: cfg} }

// Predictive returns the phase-aware predictive daemon strategy.
func Predictive(cfg sched.PredictiveConfig) Strategy {
	return Strategy{Kind: KindPredictive, Predictive: cfg}
}

// OnDemand returns the in-kernel ondemand governor strategy.
func OnDemand(cfg sched.OnDemandConfig) Strategy {
	return Strategy{Kind: KindOnDemand, OnDemand: cfg}
}

// PowerCap returns the cluster-level power-capping strategy.
func PowerCap(cfg sched.PowerCapConfig) Strategy {
	return Strategy{Kind: KindPowerCap, PowerCap: cfg}
}

// String names the strategy the way the paper's tables do, through the
// strategy's registration; unregistered kinds render as "?".
func (s Strategy) String() string {
	r, err := s.registration()
	if err != nil {
		return "?"
	}
	return r.String(s)
}

// Config assembles the cluster model parameters.
type Config struct {
	Node   node.Config
	Net    netsim.Config // one port per node of the workload
	MPI    mpisim.Config
	Tracer mpisim.Tracer // optional MPE-style event sink
}

// DefaultConfig returns the calibrated NEMO configuration.
func DefaultConfig() Config {
	return Config{
		Node: node.DefaultConfig(),
		Net:  netsim.DefaultConfig(),
		MPI:  mpisim.DefaultConfig(),
	}
}

// Result is one measured run.
type Result struct {
	Name     string
	Strategy string
	Elapsed  time.Duration // wall-clock (virtual) time to solution
	Energy   float64       // total cluster joules over the run
	// Per-node and per-rank detail:
	NodeEnergy  []node.Energy
	RankStats   []mpisim.Stats
	TimeAtOp    [][]time.Duration // [node][opIndex] residency
	Transitions int               // DVS transitions across the cluster
	Net         netsim.Stats
	DaemonMoves int // operating-point moves made by daemons (KindDaemon)
	// Thermal summarizes each node's die-temperature history and the
	// Arrhenius lifetime factor (paper §1's reliability motivation).
	Thermal []node.ThermalStats
}

// AvgTemperature returns the time-averaged die temperature across nodes.
func (r Result) AvgTemperature() float64 {
	if len(r.Thermal) == 0 {
		return 0
	}
	var sum float64
	for _, t := range r.Thermal {
		sum += t.AvgC
	}
	return sum / float64(len(r.Thermal))
}

// MinLifetimeFactor returns the worst node's expected-lifetime multiplier
// (the cluster fails at its weakest component).
func (r Result) MinLifetimeFactor() float64 {
	if len(r.Thermal) == 0 {
		return 0
	}
	min := r.Thermal[0].LifetimeFactor
	for _, t := range r.Thermal[1:] {
		if t.LifetimeFactor < min {
			min = t.LifetimeFactor
		}
	}
	return min
}

// EnergyPerNode returns mean joules per node.
func (r Result) EnergyPerNode() float64 {
	if len(r.NodeEnergy) == 0 {
		return 0
	}
	return r.Energy / float64(len(r.NodeEnergy))
}

// AvgPower returns mean cluster power in watts.
func (r Result) AvgPower() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return r.Energy / r.Elapsed.Seconds()
}

// Run executes workload w under strategy strat on a fresh simulated
// cluster and returns the measurements.
func Run(w npb.Workload, strat Strategy, cfg Config) (Result, error) {
	return RunContext(context.Background(), w, strat, cfg)
}

// RunContext is Run with an observability context: when ctx carries an
// active obs span, the run's phase boundaries (strategy attach, kernel
// execution, result collection) are recorded as child spans. The context
// does NOT cancel the simulation — core.Run is a pure function with no
// cancellation points; job-boundary cancellation lives in the runner.
// With a span-less context the tracing path costs nothing, so Run's
// measurements and the kernel's zero-alloc hot loop are unaffected.
func RunContext(ctx context.Context, w npb.Workload, strat Strategy, cfg Config) (Result, error) {
	m, err := build(cfg, w.Ranks, false, 0)
	if err != nil {
		return Result{}, err
	}
	return runOn(ctx, &m, w, strat, 0)
}

// machine is one assembled cluster. It owns a private simulation kernel,
// so independent machines are independent experiments; everything on
// one machine is deterministic.
type machine struct {
	k     *sim.Kernel
	nodes []*node.Node
	net   *netsim.Network
	world *mpisim.World
	meter *powerpack.Meter     // nil unless instrumented
	col   *powerpack.Collector // nil unless instrumented with a sample period
}

// build assembles a machine of n nodes from cfg, the one place the
// simulated cluster is put together.
// instrument attaches the PowerPack meter over the default ACPI
// batteries; a positive sample period also starts a power-profile
// collector that stops when the MPI world completes.
func build(cfg Config, n int, instrument bool, sample time.Duration) (machine, error) {
	if n <= 0 {
		return machine{}, fmt.Errorf("core: need at least one node")
	}
	m := machine{k: sim.NewKernel(), nodes: make([]*node.Node, n)}
	var err error
	for i := range m.nodes {
		if m.nodes[i], err = node.New(m.k, i, cfg.Node); err != nil {
			return machine{}, err
		}
	}
	if m.net, err = netsim.New(m.k, n, cfg.Net); err != nil {
		return machine{}, err
	}
	if m.world, err = mpisim.NewWorld(m.k, m.net, m.nodes, cfg.MPI); err != nil {
		return machine{}, err
	}
	if cfg.Tracer != nil {
		m.world.SetTracer(cfg.Tracer)
	}
	if !instrument {
		return m, nil
	}
	if m.meter, err = powerpack.NewMeter(m.k, m.nodes, powerpack.DefaultBattery()); err != nil {
		return machine{}, err
	}
	if sample > 0 {
		if m.col, err = powerpack.StartCollector(m.k, m.nodes, sample); err != nil {
			return machine{}, err
		}
		m.world.OnAllDone(m.col.Stop)
	}
	return m, nil
}

// runOn is the single measurement path shared by Run and RunInstrumented:
// look the strategy up in the registry, attach it, (optionally) idle
// through the §4.2 conditioning warmup, launch the workload, drive the
// kernel to completion, and collect the result. Because both entry points
// funnel here, a strategy that works uninstrumented works instrumented by
// construction — the two paths can never drift again.
func runOn(ctx context.Context, m *machine, w npb.Workload, strat Strategy, warmup time.Duration) (Result, error) {
	_, asp := obs.Start(ctx, "strategy.attach")
	r, err := strat.registration()
	if err != nil {
		asp.End()
		return Result{}, err
	}
	finish, err := r.Attach(strat, m.k, m.nodes, m.world)
	asp.End()
	if err != nil {
		return Result{}, err
	}

	// §4.2 conditioning: idle (on battery, when instrumented) before
	// measuring, so the first battery reading is stable. The workload
	// launches afterwards and elapsed time excludes the idle.
	if warmup > 0 {
		_, wsp := obs.Start(ctx, "warmup")
		m.k.After(warmup, func() {})
		if err := m.k.Run(sim.Time(0).Add(warmup + time.Nanosecond)); err != nil {
			wsp.End()
			return Result{}, err
		}
		wsp.End()
	}
	if m.meter != nil {
		m.meter.Begin()
	}
	// sim.run covers launch through kernel completion — the simulation
	// proper, where a slow cell actually spends its time.
	_, ssp := obs.Start(ctx, "sim.run")
	if ssp != nil {
		ssp.SetAttr("workload", w.Name())
	}
	if err := w.Launch(m.world); err != nil {
		ssp.End()
		return Result{}, err
	}
	if err := m.k.Run(sim.MaxTime); err != nil {
		ssp.End()
		return Result{}, fmt.Errorf("core: %s/%s: %w", w.Name(), strat, err)
	}
	if !m.world.Done() {
		ssp.End()
		return Result{}, fmt.Errorf("core: %s did not complete", w.Name())
	}
	if ssp != nil {
		// The kernel's and the network's counters, the simulator's own
		// account of the run's cost: events dispatched, proc switches,
		// guard-absorbed wakes and messages.
		st := m.k.Stats()
		ssp.SetAttr("virtual_elapsed", (time.Duration(m.world.Elapsed()) - warmup).String())
		ssp.SetAttr("events", strconv.Itoa(st.Events))
		ssp.SetAttr("handoffs", strconv.Itoa(st.Handoffs))
		ssp.SetAttr("absorbed", strconv.Itoa(st.Absorbed))
		ssp.SetAttr("messages", strconv.Itoa(m.net.Stats().Messages))
	}
	ssp.End()

	_, csp := obs.Start(ctx, "collect")
	defer csp.End()
	res := Result{
		Name:     w.Name(),
		Strategy: strat.String(),
		Elapsed:  time.Duration(m.world.Elapsed()) - warmup,
		Net:      m.net.Stats(),
	}
	for i, n := range m.nodes {
		e := n.Energy()
		res.NodeEnergy = append(res.NodeEnergy, e)
		res.Energy += e.Total()
		res.RankStats = append(res.RankStats, m.world.Rank(i).Stats())
		res.TimeAtOp = append(res.TimeAtOp, n.TimeAt())
		res.Transitions += n.Transitions()
		res.Thermal = append(res.Thermal, n.Thermal())
	}
	if finish != nil {
		if err := finish(&res); err != nil {
			return Result{}, fmt.Errorf("core: %s/%s: %w", w.Name(), strat, err)
		}
	}
	return res, nil
}

// Normalized is a (delay, energy) pair relative to a no-DVS baseline, the
// unit all the paper's tables and figures use.
type Normalized struct {
	Delay  float64 // T/T₁₄₀₀ — values > 1 are performance loss
	Energy float64 // E/E₁₄₀₀ — values < 1 are energy savings
}

// Normalize expresses r relative to baseline base.
func Normalize(r, base Result) Normalized {
	n := Normalized{}
	if base.Elapsed > 0 {
		n.Delay = float64(r.Elapsed) / float64(base.Elapsed)
	}
	if base.Energy > 0 {
		n.Energy = r.Energy / base.Energy
	}
	return n
}
