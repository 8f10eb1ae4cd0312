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
	"repro/internal/runner"
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

// probeParams names the constants the probe bodies bake in (1 s of work;
// 50 round trips of 125 kB), completing each probe's identity so its job
// has a content address and a shared runner memoizes the grid.
const probeParams = "1s;50x125000B"

// probe is one microbenchmark as a 2-rank workload.
func probe(kind Kind) npb.Workload {
	return npb.Workload{Code: "micro", Class: npb.ClassC, Ranks: 2, Variant: kind.String(), Params: probeParams, Body: func(r *mpisim.Rank) {
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
}

// Plan returns the probe grid for the node config's table: every kind at
// every operating point, kind by kind in table order, each job's nodes
// starting at the probed point. Assemble turns the grid's results into
// the database.
func Plan(nodeCfg node.Config) []runner.Job {
	var jobs []runner.Job
	for _, kind := range Kinds() {
		w := probe(kind)
		for i := range nodeCfg.Table {
			cfg := core.DefaultConfig()
			cfg.Node = nodeCfg
			cfg.Node.StartIndex = i
			jobs = append(jobs, runner.Job{Workload: w, Strategy: core.NoDVS(), Config: cfg})
		}
	}
	return jobs
}

// Assemble builds the database from the results of Plan's jobs, in order,
// normalizing every kind to its top-point run. A probe's energy is node
// 0's, plus node 1's for the ping-pong.
func Assemble(table dvs.Table, res []core.Result) (Database, error) {
	db := Database{Table: table, Points: map[Kind]map[dvs.MHz]Point{}}
	n := len(table)
	if n == 0 || len(res) != len(Kinds())*n {
		return db, fmt.Errorf("micro: %d results for a %d-kind × %d-point grid", len(res), len(Kinds()), n)
	}
	for k, kind := range Kinds() {
		row := res[k*n : (k+1)*n]
		measure := func(r core.Result) (float64, float64) {
			e := r.NodeEnergy[0].Total()
			if kind == CommBound {
				e += r.NodeEnergy[1].Total()
			}
			return r.Elapsed.Seconds(), e
		}
		baseD, baseE := measure(row[n-1])
		db.Points[kind] = map[dvs.MHz]Point{}
		for i, op := range table {
			d, e := measure(row[i])
			db.Points[kind][op.Frequency] = Point{Kind: kind, Freq: op.Frequency, Delay: d / baseD, Energy: e / baseE}
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
		if bestF == 0 || v <= bestV+1e-12 { // the table ascends: a tie moves up
			bestF, bestV = op.Frequency, v
		}
	}
	return bestF, nil
}
