package npb

import (
	"fmt"

	"repro/internal/dvs"
	"repro/internal/mpisim"
)

// CGPolicy selects the internal-scheduling variant of CG (§5.3.2).
type CGPolicy int

const (
	// CGPlain runs every node at the externally-set speed.
	CGPlain CGPolicy = iota
	// CGHetero is the paper's Figure 13: ranks in the compute-heavy half
	// run at high speed, ranks in the communication-heavy half at low.
	CGHetero
	// CGCommSlow scales down around every communication phase — the first
	// phase-based policy the paper reports as unprofitable.
	CGCommSlow
	// CGWaitSlow scales down only while blocked in MPI_Wait — the second
	// unprofitable phase-based policy.
	CGWaitSlow
)

func (p CGPolicy) variant() string {
	switch p {
	case CGHetero:
		return "internal"
	case CGCommSlow:
		return "internal-comm"
	case CGWaitSlow:
		return "internal-wait"
	}
	return ""
}

// CG is the conjugate-gradient kernel: frequent synchronizing iterations
// of a transpose exchange plus small reductions, with asymmetric load —
// the upper half of the ranks has a larger communication-to-computation
// ratio (Figure 12, observation 4). Type III.
func CG(class Class, ranks int) (Workload, error) {
	return CGWithPolicy(class, ranks, CGPlain, 0, 0)
}

// CGInternal builds the Figure 13 heterogeneous variant.
func CGInternal(class Class, ranks int, high, low dvs.MHz) (Workload, error) {
	return CGWithPolicy(class, ranks, CGHetero, high, low)
}

// CGWithPolicy builds CG with any internal-scheduling policy.
func CGWithPolicy(class Class, ranks int, policy CGPolicy, high, low dvs.MHz) (Workload, error) {
	s, err := class.scale()
	if err != nil {
		return Workload{}, err
	}
	if ranks < 2 || ranks%2 != 0 {
		return Workload{}, fmt.Errorf("npb: CG needs an even rank count ≥ 2, got %d", ranks)
	}
	const (
		outer = 15
		inner = 25
	)
	// Class C on 8 ranks: ranks 0..n/2-1 carry the full compute share,
	// ranks n/2..n-1 about 55 % of it; everyone exchanges the same vector
	// with its transpose partner and joins two scalar reductions.
	compHeavy := 15.68 * s * 8 / float64(ranks) // Mcyc per inner iteration
	compLight := compHeavy * 0.55
	mem := 36.8 * s * 8 / float64(ranks) // ms per inner iteration
	pair := bytesScaled(680_000*8/ranks, s)
	params := ""
	if policy != CGPlain {
		params = speedParams(high, low)
	}
	return Workload{Code: "CG", Class: class, Ranks: ranks, Variant: policy.variant(), Params: params, Body: func(r *mpisim.Rank) {
		n := r.Size()
		half := n / 2
		heavy := r.ID() < half
		partner := (r.ID() + half) % n
		comp := compLight
		if heavy {
			comp = compHeavy
		}
		// Row communicator: this rank and its transpose partner — CG's
		// reduce_exch runs along processor rows, not the whole world.
		row := r.Split(1, r.ID()%half)
		if policy == CGHetero {
			if heavy {
				r.SetSpeed(high)
			} else {
				r.SetSpeed(low)
			}
		}
		for o := 0; o < outer; o++ {
			for i := 0; i < inner; i++ {
				r.Compute(comp)
				r.MemoryStall(msec(mem))
				if policy == CGCommSlow {
					r.SetSpeed(low)
				}
				// Transpose exchange, written out as Isend/Irecv/Wait so
				// the wait-scaling policy has a wait to instrument
				// (Figure 12: "Wait and Send are major events").
				rreq := r.Irecv(partner, 0)
				sreq := r.Isend(partner, 0, pair)
				r.Wait(sreq)
				if policy == CGWaitSlow {
					r.SetSpeed(low)
				}
				r.Wait(rreq)
				if policy == CGWaitSlow {
					r.SetSpeed(high)
				}
				row.Allreduce(r, 8) // rho (row-wise reduce_exch)
				r.Allreduce(8)      // residual norm
				if policy == CGCommSlow {
					r.SetSpeed(high)
				}
			}
		}
	}}, nil
}
