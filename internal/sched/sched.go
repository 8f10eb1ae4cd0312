// Package sched implements the paper's three distributed DVS scheduling
// strategies (§3):
//
//  1. CPUSPEED DAEMON — system-driven, external: a per-node daemon polling
//     /proc-style CPU utilization and stepping the operating point with the
//     exact threshold algorithm of §3.1. Presets reproduce version 1.1
//     (Fedora Core 2: 0.1 s interval, conservative thresholds that in
//     practice keep the CPU at top speed) and version 1.2.1 (Fedora Core 3:
//     2 s interval, retuned thresholds).
//  2. EXTERNAL — user-driven, external: the cluster's frequencies are set
//     once, before the run, homogeneously or per node.
//  3. INTERNAL — user-driven, internal: the application calls
//     mpisim.Rank.SetSpeed around code regions; this package only carries
//     the shared policy types, the calls live in the npb workload variants.
//
// Beside the cpuspeed daemon it runs three more: the ondemand governor,
// the predictive daemon and a cluster-level power cap. All four are one
// sim proc each, driven by one loop (sleep an interval, take a step,
// repeat until Stop), and retire with Err instead of panicking when an
// operating-point change fails. The three per-node daemons are policies
// over one Governor, which samples the node's utilization and applies
// the operating point its policy picks.
package sched

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/dvs"
	"repro/internal/node"
	"repro/internal/sim"
)

// CPUSpeedConfig are the daemon's tuning knobs (§3.1 pseudocode).
type CPUSpeedConfig struct {
	// Interval is the polling/adjustment period.
	Interval time.Duration
	// MinThreshold: utilization below this jumps straight to the lowest
	// operating point (S = 0).
	MinThreshold float64
	// MaxThreshold: utilization above this jumps straight to the highest
	// operating point (S = m).
	MaxThreshold float64
	// UsageThreshold is the step pivot: below it the daemon steps one
	// point down, at or above it one point up.
	UsageThreshold float64
}

// Validate checks threshold ordering.
func (c CPUSpeedConfig) Validate() error {
	if c.Interval <= 0 {
		return fmt.Errorf("sched: non-positive daemon interval")
	}
	if !(0 <= c.MinThreshold && c.MinThreshold <= c.UsageThreshold &&
		c.UsageThreshold <= c.MaxThreshold && c.MaxThreshold <= 1) {
		return fmt.Errorf("sched: thresholds must satisfy 0 ≤ min ≤ usage ≤ max ≤ 1")
	}
	return nil
}

// CPUSpeedV11 reproduces cpuspeed 1.1 (Fedora Core 2): a 0.1 s interval
// and a low step pivot, which on scientific codes "always chooses the
// highest CPU speed ... without significant energy savings" (§5.1) —
// almost every window shows enough activity to step up.
func CPUSpeedV11() CPUSpeedConfig {
	return CPUSpeedConfig{
		Interval:       100 * time.Millisecond,
		MinThreshold:   0.05,
		MaxThreshold:   0.95,
		UsageThreshold: 0.25,
	}
}

// CPUSpeedV121 reproduces cpuspeed 1.2.1 (Fedora Core 3): the interval
// default moved to 2 s and the thresholds were retuned, which is what made
// the daemon useful on NPB codes (§5.1).
func CPUSpeedV121() CPUSpeedConfig {
	return CPUSpeedConfig{
		Interval:       2 * time.Second,
		MinThreshold:   0.05,
		MaxThreshold:   0.95,
		UsageThreshold: 0.70,
	}
}

// setIndex applies an operating-point decision for every daemon; tests
// swap it to inject a failing change.
var setIndex = (*node.Node).SetFrequencyIndex

// stepper is one daemon's control law, run by loop.
type stepper interface {
	// begin runs once, at the proc's first dispatch, before any sleep.
	begin()
	// step takes one control decision; an error retires the daemon.
	step() error
}

// loop is the lifecycle every daemon shares: one sim proc that sleeps an
// interval, takes a step, and repeats until Stop.
type loop struct {
	name     string
	interval time.Duration
	s        stepper
	proc     *sim.Proc
	stopped  bool
	err      error
	// Steps counts control decisions taken.
	Steps int
}

func (l *loop) spawn(k *sim.Kernel, name string, interval time.Duration, s stepper) {
	l.name, l.interval, l.s = name, interval, s
	l.proc = k.Spawn(name, l.run)
}

func (l *loop) run(p *sim.Proc) {
	l.s.begin()
	for !l.stopped {
		if _, err := p.SleepInterruptible(l.interval); err != nil {
			return // interrupted by Stop
		}
		l.Steps++
		if err := l.s.step(); err != nil {
			// A daemon failure must not take down the whole process (in
			// dvsd, unrelated in-flight simulations share it): record the
			// error and retire; callers inspect Err after Stop.
			l.err = fmt.Errorf("%s: %w", l.name, err)
			return
		}
	}
}

// Err returns the error that retired the daemon early, if any — a failed
// operating-point change aborts the daemon's loop instead of panicking.
// Inspect it after Stop (or after the owning kernel finishes running).
func (l *loop) Err() error { return l.err }

// Stop terminates the daemon (idempotent). Safe to call from any proc or
// completion callback; the daemon proc exits at the current virtual time.
func (l *loop) Stop() {
	if l.stopped {
		return
	}
	l.stopped = true
	l.proc.Interrupt()
}

// Governor is one node's running utilization-driven daemon (cpuspeed,
// ondemand or predictive): each interval it samples the node's /proc-style
// counters and applies the operating point its policy picks.
type Governor struct {
	loop
	node   *node.Node
	policy policy
	prev   node.UtilSnapshot
	// Moves counts decisions that changed the operating point.
	Moves int
}

// policy picks a governor's operating index from one window's utilization.
type policy interface {
	next(u float64) int
}

func (g *Governor) start(k *sim.Kernel, name string, n *node.Node, interval time.Duration, p policy) *Governor {
	g.node, g.policy = n, p
	g.spawn(k, name+".n"+strconv.Itoa(n.ID), interval, g)
	return g
}

func (g *Governor) begin() { g.prev = g.node.Util() }

func (g *Governor) step() error {
	cur := g.node.Util()
	u := node.Utilization(g.prev, cur)
	g.prev = cur
	idx := g.policy.next(u)
	if idx == g.node.OperatingIndex() {
		return nil
	}
	g.Moves++
	return setIndex(g.node, idx)
}

// cpuspeed is the §3.1 policy.
type cpuspeed struct {
	Governor
	cfg CPUSpeedConfig
}

// StartCPUSpeed spawns the cpuspeed daemon for one node. It runs until Stop.
func StartCPUSpeed(k *sim.Kernel, n *node.Node, cfg CPUSpeedConfig) (*Governor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &cpuspeed{cfg: cfg}
	return d.start(k, "cpuspeed", n, cfg.Interval, d), nil
}

func (d *cpuspeed) next(u float64) int { return cpuspeedIndex(d.cfg, d.node, u) }

// cpuspeedIndex is the §3.1 decision: below MinThreshold jump to the
// bottom point, above MaxThreshold to the top, otherwise step one point
// down or up around UsageThreshold.
func cpuspeedIndex(cfg CPUSpeedConfig, n *node.Node, u float64) int {
	s, top := n.OperatingIndex(), len(n.Table())-1
	switch {
	case u < cfg.MinThreshold:
		return 0
	case u > cfg.MaxThreshold:
		return top
	case u < cfg.UsageThreshold:
		return max(s-1, 0)
	default:
		return min(s+1, top)
	}
}

// StartCluster starts one governor per node with start and returns a
// stop-all func. If any start fails, the governors already started are
// stopped.
func StartCluster[C any](k *sim.Kernel, nodes []*node.Node, start func(*sim.Kernel, *node.Node, C) (*Governor, error), cfg C) ([]*Governor, func(), error) {
	ds := make([]*Governor, 0, len(nodes))
	for _, n := range nodes {
		d, err := start(k, n, cfg)
		if err != nil {
			for _, prev := range ds {
				prev.Stop()
			}
			return nil, nil, err
		}
		ds = append(ds, d)
	}
	stop := func() {
		for _, d := range ds {
			d.Stop()
		}
	}
	return ds, stop, nil
}

// SetAll applies a homogeneous EXTERNAL setting: every node to the point
// nearest f, before the run (§3.2, "psetcpuspeed 600").
func SetAll(nodes []*node.Node, f dvs.MHz) error {
	for _, n := range nodes {
		if err := n.SetFrequency(f); err != nil {
			return err
		}
	}
	return nil
}

// SetPerNode applies a heterogeneous EXTERNAL setting from a node-ID map;
// nodes absent from the map are left unchanged.
func SetPerNode(nodes []*node.Node, freqs map[int]dvs.MHz) error {
	for _, n := range nodes {
		if f, ok := freqs[n.ID]; ok {
			if err := n.SetFrequency(f); err != nil {
				return err
			}
		}
	}
	return nil
}
