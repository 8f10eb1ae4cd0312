// Package node models a single power-aware cluster node: a DVS-capable CPU
// executing one application process, a memory subsystem, a NIC, and the
// power/energy/utilization accounting the rest of the system observes.
//
// A node executes work on behalf of the proc bound to it (one MPI rank per
// node, as on the paper's NEMO cluster). Work comes in three kinds:
//
//   - Compute(cycles): duration scales inversely with the current CPU
//     frequency and re-stretches across DVS transitions mid-phase;
//   - MemoryStall(d): frequency-insensitive stall time (DRAM latency does
//     not improve when the core slows down — the source of "CPU slack");
//   - Timed activity spans used by the MPI layer for transfers and waits.
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
	computing *sim.Proc       // proc currently in Compute, if any
	thermal   *thermalState   // die-temperature integrator
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
func (n *Node) advance() {
	now := n.k.Now()
	dt := now.Sub(n.lastT)
	if dt <= 0 {
		n.lastT = now
		return
	}
	sec := dt.Seconds()
	op := n.OperatingPoint()
	// A DVS transition overlapping this span draws power at the higher of
	// the two points and retires no work; split the span if needed.
	if n.lastT < n.transUntil {
		end := n.transUntil
		if end > now {
			end = now
		}
		tsec := end.Sub(n.lastT).Seconds()
		n.accumulate(n.transOp, n.activity, tsec)
		n.busy += time.Duration(float64(end.Sub(n.lastT)) * n.busyFrac)
		n.timeAtOp[n.opIdx] += end.Sub(n.lastT)
		sec -= tsec
		if sec <= 0 {
			n.lastT = now
			return
		}
		n.timeAtOp[n.opIdx] += now.Sub(end)
		n.busy += time.Duration(float64(now.Sub(end)) * n.busyFrac)
		n.accumulate(op, n.activity, sec)
		n.lastT = now
		return
	}
	n.accumulate(op, n.activity, sec)
	n.busy += time.Duration(float64(dt) * n.busyFrac)
	n.timeAtOp[n.opIdx] += dt
	n.lastT = now
}

func (n *Node) accumulate(op dvs.OperatingPoint, a dvs.Activity, sec float64) {
	m := n.cfg.Power
	cpuW := m.CPUWatts(op, a)
	n.thermal.advance(cpuW, time.Duration(sec*1e9))
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

// Compute executes the given number of CPU cycles (at the reference meaning
// of "cycle": work that retires at 1 cycle per Hz). Duration stretches and
// shrinks with DVS transitions that occur mid-phase, and the phase absorbs
// any transition stalls. cycles is expressed in units of 1e6 cycles
// (megacycles) to keep workload tables readable.
func (n *Node) Compute(p *sim.Proc, megacycles float64) {
	n.ComputeWith(p, megacycles, dvs.ActCompute)
}

// ComputeWith is Compute with an explicit activity profile; the MPI layer
// uses it to charge per-message software overhead at communication
// activity levels.
func (n *Node) ComputeWith(p *sim.Proc, megacycles float64, act dvs.Activity) {
	if n.computing != nil {
		panic(fmt.Sprintf("node %d: concurrent Compute", n.ID))
	}
	if megacycles < 0 {
		panic("node: negative cycles")
	}
	n.computing = p
	defer func() { n.computing = nil }()
	n.setState(act, 1.0)
	remaining := megacycles * 1e6 // cycles
	for remaining > 1e-6 {
		// Stall out any in-progress transition first: busy, no retirement.
		if now := n.k.Now(); now < n.transUntil {
			p.Sleep(n.transUntil.Sub(now))
			continue
		}
		hz := float64(n.Frequency()) * 1e6
		d := time.Duration(remaining / hz * 1e9)
		if d <= 0 {
			d = time.Nanosecond
		}
		epochHz := hz
		elapsed, err := p.SleepInterruptible(d)
		remaining -= elapsed.Seconds() * epochHz
		if err == nil {
			break
		}
		// Interrupted by a DVS transition: loop with the new frequency.
	}
	n.setState(dvs.ActIdle, 0)
}

// MemoryStall spends d of frequency-insensitive stall time (memory-bound
// execution). The CPU is accounted busy.
func (n *Node) MemoryStall(p *sim.Proc, d time.Duration) {
	n.setState(dvs.ActMemory, 1.0)
	p.Sleep(d)
	n.setState(dvs.ActIdle, 0)
}

// DiskStall spends d blocked on disk I/O: frequency-insensitive, the disk
// active, the CPU asleep in iowait — which /proc-style accounting shows as
// idle, so daemons see I/O phases as downshift opportunities.
func (n *Node) DiskStall(p *sim.Proc, d time.Duration) {
	n.setState(dvs.ActDiskIO, 0)
	p.Sleep(d)
	n.setState(dvs.ActIdle, 0)
}

// Span runs fn with the node accounted at activity a and busy fraction
// busyFrac for its duration. The MPI layer uses this for transfer and wait
// periods whose length is decided elsewhere (by the network or by message
// arrival).
func (n *Node) Span(a dvs.Activity, busyFrac float64, fn func()) {
	n.setState(a, busyFrac)
	fn()
	n.setState(dvs.ActIdle, 0)
}

// WaitBusyFrac exposes the configured utilization visibility of MPI waits.
func (n *Node) WaitBusyFrac() float64 { return n.cfg.WaitBusyFrac }

// Kernel returns the owning kernel.
func (n *Node) Kernel() *sim.Kernel { return n.k }
