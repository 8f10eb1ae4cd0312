// Package micro implements the paper's power-performance microbenchmarks
// (§4.4): CPU-bound, memory-bound, and communication-bound probes measured
// at every static DVS operating point. The resulting database of
// energy-delay sensitivities is what the EXTERNAL and INTERNAL strategies
// consult to pick operating points for application phases a priori (§3.2,
// §3.3: "first we run a series of microbenchmarks...").
package micro

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/mpisim"
	"repro/internal/node"
	"repro/internal/npb"
)

// Kind identifies a microbenchmark category.
type Kind int

const (
	// CPUBound: dense register/cache-resident arithmetic.
	CPUBound Kind = iota
	// MemoryBound: pointer-chasing over a DRAM-resident working set.
	MemoryBound
	// CommBound: two-node ping-pong over the interconnect.
	CommBound
	// DiskBound: blocking I/O against the node's disk — the category the
	// paper left for future study ("disk-bound applications will provide
	// more opportunities to DVS for energy saving", §4.4).
	DiskBound
)

func (k Kind) String() string {
	switch k {
	case CPUBound:
		return "cpu-bound"
	case MemoryBound:
		return "memory-bound"
	case CommBound:
		return "comm-bound"
	case DiskBound:
		return "disk-bound"
	}
	return "?"
}

// Kinds lists all microbenchmark categories.
func Kinds() []Kind { return []Kind{CPUBound, MemoryBound, CommBound, DiskBound} }

// Point is one microbenchmark measurement at one operating point,
// normalized to the table's top frequency.
type Point struct {
	Kind   Kind
	Freq   dvs.MHz
	Delay  float64
	Energy float64
}

// Database is the full kind × frequency sensitivity table.
type Database struct {
	Table  dvs.Table
	Points map[Kind]map[dvs.MHz]Point
}

// run executes one microbenchmark as a 2-rank workload on the one cluster
// assembly path, every node starting at op-point index opIdx, and returns
// (seconds, joules): node 0's energy, plus node 1's for the ping-pong.
func run(kind Kind, nodeCfg node.Config, opIdx int) (float64, float64, error) {
	cfg := core.DefaultConfig()
	cfg.Node = nodeCfg
	cfg.Node.StartIndex = opIdx
	w := npb.Workload{Code: "micro", Class: npb.ClassC, Ranks: 2, Variant: kind.String(), Body: func(r *mpisim.Rank) {
		switch kind {
		case CPUBound:
			if r.ID() == 0 {
				r.Compute(1400) // 1 s at top speed
			}
		case MemoryBound:
			if r.ID() == 0 {
				r.MemoryStall(time.Second)
			}
		case CommBound:
			const msgs, bytes = 50, 125_000
			for i := 0; i < msgs; i++ {
				if r.ID() == 0 {
					r.Send(1, 0, bytes)
					r.Recv(1, 1)
				} else {
					r.Recv(0, 0)
					r.Send(0, 1, bytes)
				}
			}
		case DiskBound:
			if r.ID() == 0 {
				r.DiskIO(time.Second)
			}
		}
	}}
	res, err := core.Run(w, core.NoDVS(), cfg)
	if err != nil {
		return 0, 0, err
	}
	e := res.NodeEnergy[0].Total()
	if kind == CommBound {
		e += res.NodeEnergy[1].Total()
	}
	return res.Elapsed.Seconds(), e, nil
}

// Build measures every kind at every operating point of the node config's
// table and normalizes to the top point.
func Build(nodeCfg node.Config) (Database, error) {
	db := Database{Table: nodeCfg.Table, Points: map[Kind]map[dvs.MHz]Point{}}
	top := len(nodeCfg.Table) - 1
	for _, kind := range Kinds() {
		baseD, baseE, err := run(kind, nodeCfg, top)
		if err != nil {
			return db, fmt.Errorf("micro: %v at top: %w", kind, err)
		}
		db.Points[kind] = map[dvs.MHz]Point{}
		for i, op := range nodeCfg.Table {
			d, e := baseD, baseE
			if i != top {
				d, e, err = run(kind, nodeCfg, i)
				if err != nil {
					return db, fmt.Errorf("micro: %v at %v: %w", kind, op, err)
				}
			}
			db.Points[kind][op.Frequency] = Point{
				Kind:   kind,
				Freq:   op.Frequency,
				Delay:  d / baseD,
				Energy: e / baseE,
			}
		}
	}
	return db, nil
}

// Mix is an application's phase composition, as fractions of execution
// time at top speed (they need not sum exactly to 1; the remainder is
// treated as communication).
type Mix struct {
	CPU, Memory, Comm, Disk float64
}

// Predict composes the database linearly into an expected normalized
// (delay, energy) for an application with the given mix at frequency f —
// the a-priori model behind EXTERNAL operating-point selection.
func (db Database) Predict(m Mix, f dvs.MHz) (delay, energy float64, err error) {
	for _, kind := range Kinds() {
		p, ok := db.Points[kind][f]
		if !ok {
			return 0, 0, fmt.Errorf("micro: no point for %v at %v", kind, f)
		}
		var w float64
		switch kind {
		case CPUBound:
			w = m.CPU
		case MemoryBound:
			w = m.Memory
		case CommBound:
			w = m.Comm
		case DiskBound:
			w = m.Disk
		}
		delay += w * p.Delay
		energy += w * p.Energy
	}
	return delay, energy, nil
}

// Recommend picks the frequency minimizing energy × delayᵏ for the mix,
// preferring higher frequency on ties.
func (db Database) Recommend(m Mix, exponent int) (dvs.MHz, error) {
	bestF := dvs.MHz(0)
	bestV := 0.0
	for _, op := range db.Table {
		d, e, err := db.Predict(m, op.Frequency)
		if err != nil {
			return 0, err
		}
		v := e
		for i := 0; i < exponent; i++ {
			v *= d
		}
		if bestF == 0 || v < bestV-1e-12 {
			bestF, bestV = op.Frequency, v
		}
	}
	return bestF, nil
}
