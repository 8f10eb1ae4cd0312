package main

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// A shared host changes speed under its neighbours' load: on the 2-vCPU
// Xeon VM this benchmark was defined on, by 20-30% in phases a minute or
// more long, and every timing of a run moves with it. hostProbe measures
// that speed: a fixed kernel of dependent loads over 4 MiB and an
// in-place sort, run on every core. It uses only the standard library,
// and allocates nothing but a scratch buffer per measurement, so no
// change to the program can speed it up or slow it down.
type hostProbe struct {
	next []int32  // a random cycle through 1<<20 slots
	keys []uint32 // sorted afresh by every iteration
	span time.Duration
}

// probeRefPerS is the reference speed timings are reported at: the
// probe's median rate, in iterations per second over both cores, across
// 80 runs on the 2-vCPU Xeon VM the benchmark was defined on (they ranged
// from 510 to 845).
const probeRefPerS = 700

// newHostProbe builds a probe that measures for span at a time, and runs
// it once so that its tables are faulted in and cached.
func newHostProbe(span time.Duration) *hostProbe {
	r := rand.New(rand.NewSource(1))
	const n = 1 << 20
	perm := r.Perm(n)
	p := &hostProbe{next: make([]int32, n), keys: make([]uint32, 1<<14), span: span}
	for i, v := range perm {
		p.next[v] = int32(perm[(i+1)%n])
	}
	for i := range p.keys {
		p.keys[i] = r.Uint32()
	}
	p.rate(span / 4)
	return p
}

// speed is the host's speed now relative to the reference.
func (p *hostProbe) speed() float64 { return p.rate(p.span) / probeRefPerS }

// iter runs one unit of probe work with work as its scratch buffer.
func (p *hostProbe) iter(work []uint32) uint32 {
	j := int32(0)
	for i := 0; i < 1<<16; i++ {
		j = p.next[j]
	}
	copy(work, p.keys)
	slices.Sort(work)
	return uint32(j) ^ work[len(work)/2]
}

// rate runs the probe on workers goroutines for d and returns its
// iterations per second.
func (p *hostProbe) rate(d time.Duration) float64 {
	var n atomic.Int64
	var sink atomic.Uint32
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work := make([]uint32, len(p.keys))
			var x uint32
			for time.Now().Before(end) {
				x ^= p.iter(work)
				n.Add(1)
			}
			sink.Add(x)
		}()
	}
	wg.Wait()
	return float64(n.Load()) / time.Since(start).Seconds()
}
