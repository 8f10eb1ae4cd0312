// Package node models a single power-aware cluster node: a DVS-capable CPU
// executing one application process, a memory subsystem, a NIC, and the
// power/energy/utilization accounting the rest of the system observes.
//
// A node executes work on behalf of the proc bound to it (one MPI rank per
// node, as on the paper's NEMO cluster). Work comes in two kinds:
//
//   - Compute phases (StartCompute, then StepCompute at each of the
//     proc's wakes): duration scales inversely with the current CPU
//     frequency and re-stretches across DVS transitions mid-phase;
//   - Activity spans (BeginSpan/EndSpan), whose length the caller
//     decides: memory stalls (frequency-insensitive: DRAM latency does
//     not improve when the core slows down — the source of "CPU slack"),
//     disk waits, and the MPI layer's transfers and waits.
//
// Energy is integrated exactly over virtual time from the dvs.PowerModel,
// itemized per component. Busy/idle accounting mimics /proc/stat: the
// cpuspeed daemon reads utilization through UtilSnapshot deltas.
package node

import (
	"fmt"
	"time"

	"repro/internal/dvs"
	"repro/internal/sim"
)

// Config parameterizes a node.
type Config struct {
	Table      dvs.Table
	Power      dvs.PowerModel
	Transition dvs.TransitionModel
	// WaitBusyFrac is the fraction of MPI-wait time that shows up as
	// "busy" in /proc-style utilization accounting. MPICH's progress
	// engine alternates polling with short select() sleeps, so the OS
	// sees waits as partially idle even though CPU power stays elevated.
	WaitBusyFrac float64
	// StartIndex is the operating-point index at construction (default:
	// top point, i.e. no DVS).
	StartIndex int
	// Thermal parameterizes the die-temperature / reliability model.
	Thermal ThermalConfig
}

// DefaultConfig returns the calibrated NEMO node configuration.
func DefaultConfig() Config {
	t := dvs.PentiumM14()
	return Config{
		Table:        t,
		Power:        dvs.DefaultPowerModel(t),
		Transition:   dvs.DefaultTransition(),
		WaitBusyFrac: 0.20,
		StartIndex:   len(t) - 1,
		Thermal:      DefaultThermal(),
	}
}

// Energy itemizes accumulated joules per component.
type Energy struct {
	CPU, Memory, NIC, Disk, Base float64
}

// Total returns the node's total joules.
func (e Energy) Total() float64 { return e.CPU + e.Memory + e.NIC + e.Disk + e.Base }

// Add returns the componentwise sum.
func (e Energy) Add(o Energy) Energy {
	return Energy{e.CPU + o.CPU, e.Memory + o.Memory, e.NIC + o.NIC, e.Disk + o.Disk, e.Base + o.Base}
}

// UtilSnapshot captures cumulative busy/total time; the daemon computes
// utilization from deltas of successive snapshots, exactly as reading
// /proc/stat twice does.
type UtilSnapshot struct {
	Busy  time.Duration
	Total sim.Time
}

// Node is a single simulated machine. All methods must be called from sim
// procs or At callbacks of the owning kernel (single-threaded by
// construction).
type Node struct {
	ID  int
	cfg Config
	k   *sim.Kernel

	opIdx      int
	transUntil sim.Time
	transOp    dvs.OperatingPoint // point whose power applies during transition

	activity  dvs.Activity
	busyFrac  float64 // current contribution rate to busy accounting
	lastT     sim.Time
	energy    Energy
	busy      time.Duration
	timeAtOp  []time.Duration // residency per operating point
	nTrans    int             // DVS transitions performed
	computing *sim.Proc       // proc whose compute phase is in flight, if any
	thermal   thermalState    // die-temperature integrator

	// remaining is the cycles the compute phase in flight has left, and
	// epochHz the rate of its armed compute sleep, 0 while none is armed
	// (see StepCompute).
	remaining float64
	epochHz   float64
}

// New creates a node bound to kernel k.
func New(k *sim.Kernel, id int, cfg Config) (*Node, error) {
	if err := cfg.Table.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Power.Validate(); err != nil {
		return nil, err
	}
	if cfg.WaitBusyFrac < 0 || cfg.WaitBusyFrac > 1 {
		return nil, fmt.Errorf("node: WaitBusyFrac %v outside [0,1]", cfg.WaitBusyFrac)
	}
	if cfg.StartIndex < 0 || cfg.StartIndex >= len(cfg.Table) {
		return nil, fmt.Errorf("node: StartIndex %d out of range", cfg.StartIndex)
	}
	if err := cfg.Thermal.Validate(); err != nil {
		return nil, err
	}
	n := &Node{
		ID:       id,
		cfg:      cfg,
		k:        k,
		opIdx:    cfg.StartIndex,
		activity: dvs.ActIdle,
		busyFrac: 0,
		lastT:    k.Now(),
		timeAtOp: make([]time.Duration, len(cfg.Table)),
		thermal:  newThermalState(cfg.Thermal),
	}
	return n, nil
}

// MustNew is New but panics on error (for tests and examples).
func MustNew(k *sim.Kernel, id int, cfg Config) *Node {
	n, err := New(k, id, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Table returns the node's operating-point table.
func (n *Node) Table() dvs.Table { return n.cfg.Table }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// OperatingPoint returns the current DVS point.
func (n *Node) OperatingPoint() dvs.OperatingPoint { return n.cfg.Table[n.opIdx] }

// OperatingIndex returns the current point's index (0 = slowest).
func (n *Node) OperatingIndex() int { return n.opIdx }

// Frequency returns the current core frequency.
func (n *Node) Frequency() dvs.MHz { return n.OperatingPoint().Frequency }

// Transitions returns how many DVS transitions the node has performed.
func (n *Node) Transitions() int { return n.nTrans }

// advance integrates power and utilization up to the current virtual time
// under the state that has held since lastT. Call before every state change.
// A DVS transition overlapping this span draws power at the higher of the
// two points and retires no work: the span is charged at transOp up to
// the transition's end, and the rest at the current point.
func (n *Node) advance() {
	now := n.k.Now()
	if n.lastT < n.transUntil {
		n.charge(n.transOp, min(n.transUntil, now))
	}
	n.charge(n.OperatingPoint(), now)
}

// charge accounts the span [lastT, until) at operating point op — energy,
// busy time, residency at the current point — and moves lastT to until.
func (n *Node) charge(op dvs.OperatingPoint, until sim.Time) {
	dt := until.Sub(n.lastT)
	if dt <= 0 {
		return
	}
	n.accumulate(op, n.activity, dt)
	n.busy += time.Duration(float64(dt) * n.busyFrac)
	n.timeAtOp[n.opIdx] += dt
	n.lastT = until
}

func (n *Node) accumulate(op dvs.OperatingPoint, a dvs.Activity, dt time.Duration) {
	m := n.cfg.Power
	cpuW := m.CPUWatts(op, a)
	n.thermal.advance(&n.cfg.Thermal, cpuW, dt)
	sec := dt.Seconds()
	n.energy.CPU += cpuW * sec
	n.energy.Memory += m.MemWatts * a.Mem * sec
	n.energy.NIC += m.NICWatts * a.NIC * sec
	n.energy.Disk += m.DiskWatts * a.Disk * sec
	n.energy.Base += m.BaseWatts * sec
}

// setState switches the accounted activity and busy weighting.
func (n *Node) setState(a dvs.Activity, busyFrac float64) {
	n.advance()
	n.activity = a
	n.busyFrac = busyFrac
}

// Energy returns the itemized joules consumed so far (up to "now").
func (n *Node) Energy() Energy {
	n.advance()
	return n.energy
}

// Util returns the cumulative busy/total accounting snapshot.
func (n *Node) Util() UtilSnapshot {
	n.advance()
	return UtilSnapshot{Busy: n.busy, Total: n.k.Now()}
}

// Utilization returns the busy fraction between two snapshots, in [0, 1].
// It returns 0 for an empty interval.
func Utilization(prev, cur UtilSnapshot) float64 {
	dt := cur.Total.Sub(prev.Total)
	if dt <= 0 {
		return 0
	}
	u := float64(cur.Busy-prev.Busy) / float64(dt)
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u
}

// TimeAt returns the residency at each operating point, slowest first.
func (n *Node) TimeAt() []time.Duration {
	n.advance()
	out := make([]time.Duration, len(n.timeAtOp))
	copy(out, n.timeAtOp)
	return out
}

// SetFrequencyIndex requests a DVS transition to the operating point with
// the given index. It may be called from any proc (the application itself,
// the cpuspeed daemon, or external control). A transition to the current
// point is a no-op. The caller does not block; the executing workload pays
// the transition stall.
func (n *Node) SetFrequencyIndex(idx int) error {
	if idx < 0 || idx >= len(n.cfg.Table) {
		return fmt.Errorf("node %d: operating point %d out of range", n.ID, idx)
	}
	if idx == n.opIdx {
		return nil
	}
	n.advance()
	old := n.cfg.Table[n.opIdx]
	next := n.cfg.Table[idx]
	n.opIdx = idx
	n.nTrans++
	// Power during the stall follows the higher-voltage point.
	n.transOp = old
	if next.Voltage > old.Voltage {
		n.transOp = next
	}
	n.transUntil = n.k.Now().Add(n.cfg.Transition.Latency)
	// A compute phase in flight must re-derive its remaining duration.
	if n.computing != nil {
		n.computing.Interrupt()
	}
	return nil
}

// SetFrequency requests a transition to the point nearest f.
func (n *Node) SetFrequency(f dvs.MHz) error {
	return n.SetFrequencyIndex(n.cfg.Table.Nearest(f))
}

// StartCompute begins a compute phase of megacycles at activity act on
// behalf of p, without blocking; StepCompute then runs it at p's wakes,
// from p itself or from a sim.Guard. Work is counted in reference cycles,
// which retire at 1 cycle per Hz: the phase stretches and shrinks with
// DVS transitions that occur mid-phase and absorbs their stalls. It
// panics if the node is already computing or megacycles is negative.
func (n *Node) StartCompute(p *sim.Proc, megacycles float64, act dvs.Activity) {
	if n.computing != nil {
		panic(fmt.Sprintf("node %d: concurrent Compute", n.ID))
	}
	if megacycles < 0 {
		panic("node: negative cycles")
	}
	n.computing = p
	n.remaining = megacycles * 1e6 // cycles
	n.epochHz = 0
	n.setState(act, 1.0)
}

// Computing reports whether a compute phase is in flight.
func (n *Node) Computing() bool { return n.computing != nil }

// StepCompute advances the compute phase p started, at one of p's wakes
// (or, first, right after StartCompute). It retires the cycles of the
// compute sleep that just ended and arms p's next wake, reporting true:
// a stall through an in-progress DVS transition (busy, no retirement),
// or an interruptible sleep for the remaining cycles at the current
// frequency, which a DVS transition interrupts to re-derive. Once a
// compute sleep runs its full length, it ends the phase and reports false.
func (n *Node) StepCompute(p *sim.Proc) bool {
	if n.epochHz != 0 {
		n.remaining -= p.Slept().Seconds() * n.epochHz
		n.epochHz = 0
		if !p.Interrupted() {
			n.remaining = 0
		}
	}
	if n.remaining > 1e-6 {
		if now := n.k.Now(); now < n.transUntil {
			p.ArmSleep(n.transUntil.Sub(now))
			return true
		}
		hz := float64(n.Frequency()) * 1e6
		d := time.Duration(n.remaining / hz * 1e9)
		if d <= 0 {
			d = time.Nanosecond
		}
		n.epochHz = hz
		p.ArmSleepInterruptible(d)
		return true
	}
	n.computing = nil
	n.setState(dvs.ActIdle, 0)
	return false
}

// BeginSpan accounts the node at activity a and busy fraction busyFrac
// until EndSpan returns it to idle. The MPI layer uses spans for memory
// stalls (dvs.ActMemory, busy), disk waits (dvs.ActDiskIO, idle: iowait
// shows as idle, so daemons see I/O phases as downshift opportunities),
// and transfer and wait periods whose length is decided elsewhere (by the
// network or by message arrival).
func (n *Node) BeginSpan(a dvs.Activity, busyFrac float64) { n.setState(a, busyFrac) }

// EndSpan closes the span BeginSpan opened: the node returns to idle.
func (n *Node) EndSpan() { n.setState(dvs.ActIdle, 0) }

// WaitBusyFrac exposes the configured utilization visibility of MPI waits.
func (n *Node) WaitBusyFrac() float64 { return n.cfg.WaitBusyFrac }

// Kernel returns the owning kernel.
func (n *Node) Kernel() *sim.Kernel { return n.k }
