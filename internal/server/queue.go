package server

// gate is the bounded admission queue: a counting semaphore over the
// number of requests allowed past validation and into the runner at
// once. Admission is non-blocking by design — when the gate is full the
// handler sheds the request with 429 + Retry-After instead of queueing
// it, so a burst degrades into fast, explicit backpressure rather than
// unbounded goroutines all contending for the same workers.
//
// Capacity bounds *requests*, not simulations: one admitted sweep may
// carry many jobs, which sweep.Execute places a bounded few at a time. The
// gate's job is to bound memory (decoded requests, response buffers) and
// keep admission latency flat.
type gate struct {
	slots chan struct{}
}

func newGate(capacity int) *gate {
	return &gate{slots: make(chan struct{}, capacity)}
}

// tryAcquire claims a slot without blocking; false means shed.
func (g *gate) tryAcquire() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (g *gate) release() { <-g.slots }

// depth is the number of requests currently admitted.
func (g *gate) depth() int { return len(g.slots) }

// capacity is the admission bound.
func (g *gate) capacity() int { return cap(g.slots) }
