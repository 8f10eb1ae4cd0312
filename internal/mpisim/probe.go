package mpisim

import "fmt"

// Probe-family operations and multi-request waits, completing the MPI-1
// point-to-point surface irregular codes rely on.

// Iprobe reports whether a message matching (src, tag) has been delivered
// but not yet received, without consuming it. src may be AnySource.
func (r *Rank) Iprobe(src, tag int) (ok bool, bytes int) {
	probe := Request{src: src, tag: tag}
	for _, m := range r.mailbox {
		if probe.matches(m) {
			return true, m.bytes
		}
	}
	return false, 0
}

// Probe blocks until a matching message is available, without consuming
// it; it returns the message size. The subsequent Recv is then immediate.
func (r *Rank) Probe(src, tag int) int {
	for {
		if ok, bytes := r.Iprobe(src, tag); ok {
			return bytes
		}
		// Park until any delivery arrives, then re-check the match.
		r.watch()
	}
}

// WaitAny blocks until at least one request completes and returns its
// index (the lowest-numbered completed request, matching MPI_Waitany's
// deterministic tie-break on simultaneous completion). It frees that
// request, as Wait does; the others stay live.
func (r *Rank) WaitAny(reqs ...*Request) int {
	if len(reqs) == 0 {
		panic(fmt.Sprintf("rank %d: WaitAny with no requests", r.id))
	}
	for {
		for i, req := range reqs {
			if req.owner != r {
				panic(fmt.Sprintf("rank %d: WaitAny on foreign or freed request", r.id))
			}
			if req.done {
				r.Wait(req) // charge receive overhead / trace event
				return i
			}
		}
		r.watch()
	}
}

// watch parks the rank until the next delivery or request completion.
func (r *Rank) watch() {
	r.watching = true
	r.waitSpan()
}

// notifyWatchers wakes a Probe or WaitAny parker after a delivery or
// request completion.
func (r *Rank) notifyWatchers() {
	if r.watching {
		r.watching = false
		r.q.Signal()
	}
}
