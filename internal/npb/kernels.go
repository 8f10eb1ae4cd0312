package npb

import (
	"fmt"
	"time"

	"repro/internal/dvs"
	"repro/internal/mpisim"
)

// msec converts scaled milliseconds to a Duration.
func msec(ms float64) time.Duration { return time.Duration(ms * 1e6) }

// bytesScaled scales a class C message size, keeping at least 1 byte for
// nonzero sizes so patterns survive tiny classes.
func bytesScaled(b int, s float64) int {
	v := int(float64(b) * s)
	if v < 1 && b > 0 {
		v = 1
	}
	return v
}

// EP is the embarrassingly-parallel kernel: pure CPU-bound random-number
// work with a few tiny reductions at the end. The paper's Type I code —
// no slack, so DVS can only lose.
func EP(class Class, ranks int) (Workload, error) {
	s, err := class.scale()
	if err != nil {
		return Workload{}, err
	}
	if err := checkRanks("EP", ranks, 2); err != nil {
		return Workload{}, err
	}
	const chunks = 16
	perChunk := 56000.0 / chunks * s // Mcyc; 40 s total at 1400 MHz, class C
	return Workload{Code: "EP", Class: class, Ranks: ranks, Body: func(r *mpisim.Rank) {
		for i := 0; i < chunks; i++ {
			r.Compute(perChunk)
		}
		for i := 0; i < 3; i++ {
			r.Allreduce(8)
		}
	}}, nil
}

// FT is the 3-D FFT kernel: per iteration a transform (compute plus memory
// traffic) followed by a large all-to-all transpose that dominates the run
// (communication : computation ≈ 2 : 1, Figure 9). Type III.
func FT(class Class, ranks int) (Workload, error) {
	return ftWorkload(class, ranks, 0, 0, "")
}

// FTInternal is FT with the paper's Figure 10 instrumentation: the CPU is
// set to low around the all-to-all phase and restored to high after.
func FTInternal(class Class, ranks int, high, low dvs.MHz) (Workload, error) {
	return ftWorkload(class, ranks, high, low, "internal")
}

func ftWorkload(class Class, ranks int, high, low dvs.MHz, variant string) (Workload, error) {
	s, err := class.scale()
	if err != nil {
		return Workload{}, err
	}
	if err := checkRanks("FT", ranks, 2); err != nil {
		return Workload{}, err
	}
	const iters = 20
	// Class C on 8 ranks: ≈2 s per iteration at 1400 MHz, one third
	// transform (compute+memory), two thirds all-to-all.
	comp := 205.0 * s * 8 / float64(ranks) // Mcyc per iteration
	mem := 470.0 * s * 8 / float64(ranks)  // ms per iteration
	pair := bytesScaled(2_375_000*8/ranks, s)
	internal := variant != ""
	params := ""
	if internal {
		params = fmt.Sprintf("%.0f/%.0f", float64(high), float64(low))
	}
	return Workload{Code: "FT", Class: class, Ranks: ranks, Variant: variant, Params: params, Body: func(r *mpisim.Rank) {
		for it := 0; it < iters; it++ {
			r.Compute(comp)
			r.MemoryStall(msec(mem))
			if internal {
				r.SetSpeed(low)
			}
			r.Alltoall(pair)
			if internal {
				r.SetSpeed(high)
			}
			r.Allreduce(16) // checksum
		}
	}}, nil
}

// IS is the integer-sort kernel: memory-bound key ranking plus one large,
// bursty MPI_Alltoallv per iteration. Type IV — delay is almost flat in
// frequency, so energy savings are nearly free.
func IS(class Class, ranks int) (Workload, error) {
	s, err := class.scale()
	if err != nil {
		return Workload{}, err
	}
	if err := checkRanks("IS", ranks, 2); err != nil {
		return Workload{}, err
	}
	const iters = 10
	comp := 168.0 * s * 8 / float64(ranks) // Mcyc
	mem := 3080.0 * s * 8 / float64(ranks) // ms
	pair := bytesScaled(1_430_000*8/ranks, s)
	return Workload{Code: "IS", Class: class, Ranks: ranks, Body: func(r *mpisim.Rank) {
		sizes := make([]int, r.Size())
		for d := range sizes {
			if d != r.ID() {
				sizes[d] = pair
			}
		}
		for it := 0; it < iters; it++ {
			r.MemoryStall(msec(mem))
			r.Compute(comp)
			r.Alltoall(1024) // bucket-size exchange
			r.Alltoallv(sizes)
			r.Allreduce(8)
		}
	}}, nil
}

// Swim models the SPEC 2000 `swim` code on a single node: the memory-bound
// stencil whose energy-delay crescendo opens the paper (Figure 2).
func Swim(class Class, ranks int) (Workload, error) {
	s, err := class.scale()
	if err != nil {
		return Workload{}, err
	}
	if ranks < 1 {
		return Workload{}, errRanks("SWIM", ranks)
	}
	const iters = 20
	comp := 262.5 * s // Mcyc per iteration
	mem := 812.5 * s  // ms per iteration
	return Workload{Code: "SWIM", Class: class, Ranks: ranks, Body: func(r *mpisim.Rank) {
		for it := 0; it < iters; it++ {
			r.Compute(comp)
			r.MemoryStall(msec(mem))
		}
	}}, nil
}

func errRanks(code string, ranks int) error {
	return checkRanks(code, ranks, 1)
}
