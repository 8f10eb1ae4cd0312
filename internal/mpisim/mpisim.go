// Package mpisim is a simulated MPI: a fixed-size world of ranks, one per
// cluster node, exchanging messages over the netsim interconnect with
// MPICH-like semantics and costs.
//
// Supported operations: blocking and nonblocking point-to-point
// (Send/Recv/Isend/Irecv/Wait/WaitAll/SendRecv), and the collectives the
// NAS Parallel Benchmarks use (Barrier, Allreduce, Alltoall, Alltoallv,
// and Allreduce on a Split communicator), implemented over point-to-point
// with the classic dissemination/binomial/recursive-doubling/pairwise
// algorithms so their cost structure (rounds × (overhead + latency +
// bandwidth)) emerges from the network model rather than being asserted.
//
// Cost model per message: the sender pays a CPU software overhead (cycles,
// so it scales with DVS frequency), occupies its uplink for the wire time,
// and — above the eager limit — waits for delivery (rendezvous). The
// receiver pays a matching overhead; a blocked receiver idles its CPU at
// communication-wait activity, which is exactly the slack the paper's DVS
// schedulers harvest.
//
// A rank's body runs ahead of simulated time: its operations go into a
// small ring per rank, and one driver runs them in order, in the sim
// kernel's dispatch loop at the rank's wakes, with the rank's proc parked
// behind a sim.Guard. The body parks only when its ring is full or when
// it reads simulated state (Now, Stats, Node, Proc, Recv's size, Split),
// which drains the ring first. Every operation starts at the (time, seq)
// slot where a body that blocked in each call would have issued it, so
// results are the same, bit for bit (DESIGN §10.1).
package mpisim

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/sim"
)

// AnySource matches a message from any sender in Recv/Irecv.
const AnySource = -1

// Config holds the MPI layer's cost parameters.
type Config struct {
	// SendOverheadMcyc / RecvOverheadMcyc are per-message CPU costs in
	// megacycles (packetization, matching, copies). ~30 µs at 1.4 GHz.
	SendOverheadMcyc float64
	RecvOverheadMcyc float64
	// OverheadPerKBMcyc is additional per-kilobyte CPU cost (memory copy).
	OverheadPerKBMcyc float64
	// EagerLimit: messages up to this size return from Send once they are
	// on the wire; larger messages use rendezvous and block to delivery.
	EagerLimit int
	// SetSpeedCostMcyc is the CPU cost of one application-level DVS
	// change: the /proc/cpufreq write plus governor path (~0.7 ms at
	// 1.4 GHz). This software cost, not the ~10 µs hardware stall, is what
	// makes fine-grained phase scheduling expensive (paper §5.3.2).
	SetSpeedCostMcyc float64
	// SpinWait makes blocked MPI calls busy-poll at full CPU activity and
	// full /proc visibility, the way MPICH builds without blocking-socket
	// support behave. It renders utilization daemons blind to
	// communication slack (they see 100 % busy) while leaving the
	// power-aware schedulers' savings intact.
	SpinWait bool
	// CheckOrdering enables runtime verification of MPI's pairwise
	// non-overtaking guarantee: every message carries a per-(src,dst)
	// sequence number and receivers panic on out-of-order matching.
	// Costs a little memory; used by tests and debugging.
	CheckOrdering bool
}

// DefaultConfig matches MPICH 1.2.5 ch_p4 over TCP.
func DefaultConfig() Config {
	return Config{
		SendOverheadMcyc:  0.042, // ≈30 µs at 1.4 GHz
		RecvOverheadMcyc:  0.042,
		OverheadPerKBMcyc: 0.001,
		EagerLimit:        128 << 10,
		SetSpeedCostMcyc:  1.0,
	}
}

// Stats aggregates a rank's time by category; the trace and calibration
// layers read these.
type Stats struct {
	Compute  time.Duration // application compute phases
	Memory   time.Duration // application memory-stall phases
	Transfer time.Duration // CPU driving sends/receives (overhead + wire)
	Wait     time.Duration // blocked in Recv/Wait/collectives
	Disk     time.Duration // blocked on disk I/O
	Messages int
	Bytes    int64
}

// CommTime returns transfer + wait.
func (s Stats) CommTime() time.Duration { return s.Transfer + s.Wait }

// EventKind labels trace events emitted by the MPI layer.
type EventKind int

const (
	EvCompute EventKind = iota
	EvMemory
	EvSend
	EvRecv
	EvWait
	EvCollective
	EvDisk
)

func (k EventKind) String() string {
	switch k {
	case EvCompute:
		return "compute"
	case EvMemory:
		return "memory"
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvWait:
		return "wait"
	case EvCollective:
		return "collective"
	case EvDisk:
		return "disk"
	}
	return "?"
}

// Tracer receives MPE-style events. Implementations must be cheap; they run
// inline with the simulation.
type Tracer interface {
	Event(rank int, kind EventKind, name string, start, end sim.Time, bytes int, peer int)
}

// PhasePolicy is the PMPI-style interposition interface: middleware (such
// as the automatic DVS scheduler in internal/autosched) installs one on a
// world and is called around application phases, on the application's own
// simulated time — any SetSpeed it issues costs real cycles, exactly like
// a profiling-library shim under a real MPI.
type PhasePolicy interface {
	// AtStart runs once per rank before the application body.
	AtStart(r *Rank)
	// BeforeCollective / AfterCollective bracket each collective call with
	// its name ("alltoall", "allreduce", ...) and payload size.
	BeforeCollective(r *Rank, name string, bytes int)
	AfterCollective(r *Rank, name string, bytes int)
}

// World is an MPI communicator spanning len(nodes) ranks.
type World struct {
	k     *sim.Kernel
	net   *netsim.Network
	nodes []*node.Node
	cfg   Config
	ranks []*Rank

	tracer   Tracer
	policy   PhasePolicy
	finished int
	started  bool
	onDone   []func()
	// splits/commSeq implement MPI_Comm_split (see comm.go).
	splits  map[int]*splitState
	commSeq int
	// FinishedAt records each rank's completion time of the launched
	// program; Elapsed() is their max.
	finishedAt []sim.Time
	// deliveries recycles in-flight message deliveries (see transmit).
	deliveries []*delivery
}

// NewWorld builds a world over the given nodes. The network must have at
// least len(nodes) ports.
func NewWorld(k *sim.Kernel, net *netsim.Network, nodes []*node.Node, cfg Config) (*World, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("mpisim: empty world")
	}
	if net.Nodes() < len(nodes) {
		return nil, fmt.Errorf("mpisim: network has %d ports for %d ranks", net.Nodes(), len(nodes))
	}
	if cfg.SendOverheadMcyc < 0 || cfg.RecvOverheadMcyc < 0 || cfg.OverheadPerKBMcyc < 0 ||
		cfg.EagerLimit < 0 || cfg.SetSpeedCostMcyc < 0 {
		return nil, fmt.Errorf("mpisim: negative cost parameter")
	}
	w := &World{k: k, net: net, nodes: nodes, cfg: cfg, finishedAt: make([]sim.Time, len(nodes))}
	for i, nd := range nodes {
		w.ranks = append(w.ranks, &Rank{world: w, id: i, node: nd, ring: ringPool.Get().(*ring)})
	}
	return w, nil
}

// SetTracer installs an event sink (nil to disable).
func (w *World) SetTracer(t Tracer) { w.tracer = t }

// SetPhasePolicy installs interposition middleware (nil to disable). It
// must be set before Launch.
func (w *World) SetPhasePolicy(p PhasePolicy) { w.policy = p }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i's handle (for stats inspection after a run).
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Node returns the node rank i runs on.
func (w *World) Node(i int) *node.Node { return w.nodes[i] }

// Launch spawns one proc per rank executing body. It may be called once
// per world.
func (w *World) Launch(name string, body func(r *Rank)) error {
	if w.started {
		return fmt.Errorf("mpisim: world already launched")
	}
	w.started = true
	for _, r := range w.ranks {
		r := r
		w.k.Spawn(name+".rank"+strconv.Itoa(r.id), func(p *sim.Proc) {
			r.proc = p
			if w.policy != nil {
				w.policy.AtStart(r)
			}
			body(r)
			r.drain()
			*r.ring = ring{} // a pooled ring keeps nothing of this world alive
			ringPool.Put(r.ring)
			r.ring = nil
			w.finishedAt[r.id] = p.Now()
			w.finished++
			if w.finished == len(w.ranks) {
				for _, fn := range w.onDone {
					fn()
				}
			}
		})
	}
	return nil
}

// OnAllDone registers fn to run (in the last rank's context) when every
// rank has returned from the launched body; schedulers use it to shut
// their daemons down so the simulation drains.
func (w *World) OnAllDone(fn func()) { w.onDone = append(w.onDone, fn) }

// Done reports whether every rank has returned from the launched body.
func (w *World) Done() bool { return w.started && w.finished == len(w.ranks) }

// Elapsed returns the latest rank finish time (valid once Done).
func (w *World) Elapsed() sim.Time {
	var m sim.Time
	for _, t := range w.finishedAt {
		if t > m {
			m = t
		}
	}
	return m
}

func (w *World) emit(rank int, kind EventKind, name string, start, end sim.Time, bytes, peer int) {
	if w.tracer != nil {
		w.tracer.Event(rank, kind, name, start, end, bytes, peer)
	}
}
