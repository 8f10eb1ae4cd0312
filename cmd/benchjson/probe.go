package main

import (
	"math/rand"
	"slices"
	"time"
)

// A shared host changes speed under its neighbours' load, in phases long
// enough to cover a whole benchmark run, and every ns/op moves with it.
// probeHost reads that speed with a fixed kernel no change to this
// repository can speed up or slow down: dependent loads through a random
// cycle over 4 MiB, then a sort of 16 Ki keys, run on one goroutine (as
// the benchmarks mostly are) for probeSpan. The result is in kernel
// iterations per second; only ratios between readings mean anything.
const probeSpan = time.Second

// HostProbe holds the readings taken just before and just after the
// benchmarks ran.
type HostProbe struct {
	BeforePerS float64 `json:"before_per_s"`
	AfterPerS  float64 `json:"after_per_s"`
}

// speed is the run's host speed: the mean of its two readings.
func (h *HostProbe) speed() float64 { return (h.BeforePerS + h.AfterPerS) / 2 }

type hostProbe struct {
	next []int32  // a random cycle through 1<<20 slots
	keys []uint32 // sorted afresh by every iteration
	work []uint32
}

func newHostProbe() *hostProbe {
	r := rand.New(rand.NewSource(1))
	const n = 1 << 20
	perm := r.Perm(n)
	p := &hostProbe{next: make([]int32, n), keys: make([]uint32, 1<<14), work: make([]uint32, 1<<14)}
	for i, v := range perm {
		p.next[v] = int32(perm[(i+1)%n])
	}
	for i := range p.keys {
		p.keys[i] = r.Uint32()
	}
	p.rate(probeSpan / 4) // fault the tables in
	return p
}

// rate runs the kernel for d and returns its iterations per second.
func (p *hostProbe) rate(d time.Duration) float64 {
	start := time.Now()
	n, j := 0, int32(0)
	for time.Since(start) < d {
		for i := 0; i < 1<<16; i++ {
			j = p.next[j]
		}
		copy(p.work, p.keys)
		slices.Sort(p.work)
		j ^= int32(p.work[len(p.work)/2] & 1)
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}
