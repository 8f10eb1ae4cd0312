package mpisim

import (
	"fmt"
	"time"

	"repro/internal/dvs"
	"repro/internal/node"
	"repro/internal/sim"
)

// Rank is one MPI process, bound to a node and a sim proc. All methods
// must be called from the rank's own body function.
type Rank struct {
	world *World
	id    int
	node  *node.Node
	proc  *sim.Proc

	mailbox []message  // delivered, unmatched messages (arrival order)
	posted  []*Request // posted, unmatched Irecvs (post order)
	stats   Stats
	collSeq int // per-rank collective sequence number for internal tags
	// commColl tracks per-communicator collective sequences (comm.go).
	commColl map[int]int
	// q is the rank's one wait queue, where Wait parks; waiting is the
	// request the parked Wait needs. A completion signals q only when it
	// is the one awaited, so a proc on q always has exactly one reason to
	// wake.
	q       *sim.Queue
	waiting *Request
	// free recycles the requests Wait has released; reqs is the request
	// slice Alltoallv reuses.
	free []*Request
	reqs []*Request
	// sendSeq/recvSeq implement the CheckOrdering verifier: the next
	// sequence number per destination / the last matched per (src, tag).
	sendSeq map[int]uint64
	recvSeq map[srcTag]uint64
}

// srcTag keys the CheckOrdering verifier's per-(source, tag) sequence.
type srcTag struct{ src, tag int }

// message is a delivered payload descriptor.
type message struct {
	src, tag, bytes int
	// seq is the per-(src,dst) send sequence number, used by the
	// CheckOrdering verifier.
	seq uint64
}

// delivery is one message in flight to dst. The world recycles
// deliveries, and fn (bound once, at first allocation) is what isend
// schedules at the arrival instant, so a delivery costs no allocation.
type delivery struct {
	dst *Rank
	msg message
	fn  func()
}

// newDelivery returns a delivery from the freelist, or a new one with its
// fn bound.
func (w *World) newDelivery() *delivery {
	if n := len(w.deliveries); n > 0 {
		d := w.deliveries[n-1]
		w.deliveries = w.deliveries[:n-1]
		return d
	}
	d := &delivery{}
	d.fn = d.fire
	return d
}

// fire delivers d's message, returning d to the world's freelist first.
func (d *delivery) fire() {
	dst, m := d.dst, d.msg
	dst.world.deliveries = append(dst.world.deliveries, d)
	dst.deliver(m)
}

// Request is a nonblocking-operation handle. Wait frees it, as MPI_Wait
// sets the handle to MPI_REQUEST_NULL: the rank recycles it for a later
// Isend or Irecv, and waiting on it again panics.
type Request struct {
	owner *Rank // nil once freed
	done  bool
	bytes int
	seq   uint64 // matched message's sequence (CheckOrdering)
	// recv matching state (recv requests only)
	isRecv   bool
	src, tag int
	// complete is the Isend completion callback, bound once per Request.
	complete func()
}

// newRequest returns a cleared request owned by r, reusing a freed one
// when available.
func (r *Rank) newRequest() *Request {
	if n := len(r.free); n > 0 {
		req := r.free[n-1]
		r.free = r.free[:n-1]
		*req = Request{owner: r, complete: req.complete}
		return req
	}
	req := &Request{owner: r}
	req.complete = req.completeSend
	return req
}

// completeSend marks an Isend complete once its data has left (or, under
// rendezvous, arrived). Runs inside a kernel At callback.
func (req *Request) completeSend() {
	req.done = true
	req.owner.wake(req)
}

// wake releases the rank's proc if it is parked in Wait on req.
func (r *Rank) wake(req *Request) {
	if r.waiting == req {
		r.q.Signal()
	}
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.world.ranks) }

// Node returns the node this rank runs on.
func (r *Rank) Node() *node.Node { return r.node }

// Proc returns the rank's sim proc.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Stats returns the rank's accumulated time breakdown.
func (r *Rank) Stats() Stats { return r.stats }

// SetSpeed is the PowerPack application-level DVS API (paper §3.3,
// Figure 10/13: call set_cpuspeed around code regions). The caller pays
// the software cost of the cpufreq write at the *current* frequency, then
// the hardware transition stall is charged to subsequent work.
func (r *Rank) SetSpeed(f dvs.MHz) {
	if cost := r.world.cfg.SetSpeedCostMcyc; cost > 0 && r.proc != nil {
		r.node.ComputeWith(r.proc, cost, dvs.ActCompute)
	}
	if err := r.node.SetFrequency(f); err != nil {
		panic(fmt.Sprintf("rank %d: SetSpeed: %v", r.id, err))
	}
}

// Compute runs megacycles of CPU-bound work.
func (r *Rank) Compute(megacycles float64) {
	start := r.Now()
	r.node.Compute(r.proc, megacycles)
	end := r.Now()
	r.stats.Compute += end.Sub(start)
	r.world.emit(r.id, EvCompute, "compute", start, end, 0, -1)
}

// MemoryStall runs d of frequency-insensitive memory-bound work.
func (r *Rank) MemoryStall(d time.Duration) {
	start := r.Now()
	r.node.MemoryStall(r.proc, d)
	end := r.Now()
	r.stats.Memory += end.Sub(start)
	r.world.emit(r.id, EvMemory, "memory", start, end, 0, -1)
}

// DiskIO blocks the rank on d of disk I/O (iowait: the CPU idles, the
// disk works, and utilization accounting shows idle time).
func (r *Rank) DiskIO(d time.Duration) {
	start := r.Now()
	r.node.DiskStall(r.proc, d)
	end := r.Now()
	r.stats.Disk += end.Sub(start)
	r.world.emit(r.id, EvDisk, "disk", start, end, 0, -1)
}

// overheadMcyc returns the CPU cost of handling a message of the given size.
func (r *Rank) overheadMcyc(base float64, bytes int) float64 {
	return base + r.world.cfg.OverheadPerKBMcyc*float64(bytes)/1024
}

// transferSpan accounts a communication-active interval ending at a
// precomputed absolute time.
func (r *Rank) transferSpan(until sim.Time) {
	if until <= r.Now() {
		return
	}
	start := r.Now()
	r.node.Span(dvs.ActCommTransfer, 1.0, func() {
		r.proc.Sleep(until.Sub(start))
	})
	r.stats.Transfer += r.Now().Sub(start)
}

// waitVisibility returns how busy a blocked MPI call appears to
// /proc-style accounting under the configured wait policy.
func (r *Rank) waitVisibility() float64 {
	if r.world.cfg.SpinWait {
		return 1.0
	}
	return r.node.WaitBusyFrac()
}

// waitActivity returns the CPU activity profile of a blocked MPI call.
func (r *Rank) waitActivity() dvs.Activity {
	a := dvs.ActCommWait
	if r.world.cfg.SpinWait {
		a.CPU = 1.0
	}
	return a
}

// waitSpan parks the rank on its wait queue at communication-wait
// activity.
func (r *Rank) waitSpan() {
	start := r.Now()
	r.node.Span(r.waitActivity(), r.waitVisibility(), func() {
		r.q.Wait(r.proc)
	})
	r.stats.Wait += r.Now().Sub(start)
}

// Send transmits bytes to dst with the given tag (tag must be ≥ 0 for
// application messages). It blocks until the message is on the wire
// (eager) or delivered (rendezvous, above the eager limit).
func (r *Rank) Send(dst, tag, bytes int) {
	start := r.Now()
	txDone, completeAt := r.isend(dst, tag, bytes)
	// Uplink serialization: the CPU streams the data out.
	r.transferSpan(txDone)
	if completeAt > r.Now() {
		// Rendezvous tail: waiting for the receiver to drain.
		startW := r.Now()
		r.node.Span(r.waitActivity(), r.waitVisibility(), func() {
			r.proc.Sleep(completeAt.Sub(startW))
		})
		r.stats.Wait += r.Now().Sub(startW)
	}
	r.world.emit(r.id, EvSend, "send", start, r.Now(), bytes, dst)
}

// Isend starts a nonblocking send and returns its request, which Wait
// frees. The CPU overhead is charged immediately; the wire transfer
// proceeds in the background.
func (r *Rank) Isend(dst, tag, bytes int) *Request {
	start := r.Now()
	_, completeAt := r.isend(dst, tag, bytes)
	req := r.newRequest()
	req.bytes = bytes
	if completeAt <= r.Now() {
		req.done = true
	} else {
		r.world.k.At(completeAt, req.complete)
	}
	r.world.emit(r.id, EvSend, "isend", start, r.Now(), bytes, dst)
	return req
}

// isend charges the send overhead and puts the message on the wire,
// scheduling its delivery. It returns when the uplink finishes
// transmitting and when the send completes: txDone for eager messages,
// the arrival instant under rendezvous.
func (r *Rank) isend(dst, tag, bytes int) (txDone, completeAt sim.Time) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("rank %d: send to invalid rank %d", r.id, dst))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("rank %d: negative message size", r.id))
	}
	w := r.world
	// Software overhead: packetization and copies, at comm activity.
	startOv := r.Now()
	r.node.ComputeWith(r.proc, r.overheadMcyc(w.cfg.SendOverheadMcyc, bytes), dvs.ActCommTransfer)
	r.stats.Transfer += r.Now().Sub(startOv)
	r.stats.Messages++
	r.stats.Bytes += int64(bytes)

	txDone, arrive, err := w.net.Transfer(r.id, dst, bytes)
	if err != nil {
		panic(fmt.Sprintf("rank %d: %v", r.id, err))
	}
	// Deliver at the destination at the arrival instant.
	msg := message{src: r.id, tag: tag, bytes: bytes}
	if w.cfg.CheckOrdering {
		if r.sendSeq == nil {
			r.sendSeq = map[int]uint64{}
		}
		r.sendSeq[dst]++
		msg.seq = r.sendSeq[dst]
	}
	d := w.newDelivery()
	d.dst, d.msg = w.ranks[dst], msg
	w.k.At(arrive, d.fn)

	if bytes > w.cfg.EagerLimit {
		return txDone, arrive // rendezvous
	}
	return txDone, txDone
}

// deliver matches an arriving message against posted receives, else
// enqueues it. Runs inside a kernel At callback.
func (r *Rank) deliver(m message) {
	for i, req := range r.posted {
		if req.matches(m) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			req.completeRecv(m)
			r.wake(req)
			return
		}
	}
	r.mailbox = append(r.mailbox, m)
}

// completeRecv records the message a receive request matched.
func (req *Request) completeRecv(m message) {
	req.done = true
	req.bytes = m.bytes
	req.src = m.src
	req.seq = m.seq
}

func (req *Request) matches(m message) bool {
	return (req.src == AnySource || req.src == m.src) && req.tag == m.tag
}

// Irecv posts a nonblocking receive for a message from src (or AnySource)
// with the given tag, returning a request that Wait frees.
func (r *Rank) Irecv(src, tag int) *Request {
	if src != AnySource && (src < 0 || src >= r.Size()) {
		panic(fmt.Sprintf("rank %d: recv from invalid rank %d", r.id, src))
	}
	req := r.newRequest()
	req.isRecv, req.src, req.tag = true, src, tag
	// Match already-delivered messages first (arrival order).
	for i, m := range r.mailbox {
		if req.matches(m) {
			r.mailbox = append(r.mailbox[:i], r.mailbox[i+1:]...)
			req.completeRecv(m)
			return req
		}
	}
	r.posted = append(r.posted, req)
	return req
}

// Wait blocks until req completes, frees it (as MPI_Wait does: waiting on
// it again panics) and returns the message size (for receives). The
// blocked time is CPU slack at communication-wait activity.
func (r *Rank) Wait(req *Request) int {
	if req.owner != r {
		panic(fmt.Sprintf("rank %d: waiting on foreign or freed request", r.id))
	}
	start := r.Now()
	if !req.done {
		r.waiting = req
		r.waitSpan()
		r.waiting = nil
		if !req.done {
			panic(fmt.Sprintf("rank %d: woke with incomplete request", r.id))
		}
	}
	if req.isRecv {
		if r.world.cfg.CheckOrdering && req.seq > 0 {
			// MPI non-overtaking: same-pair messages must match in send
			// order. (Different tags may be *received* out of order by
			// the application, but a matched message must never have a
			// lower sequence than one already matched from that source
			// with the same tag — we verify per (src, tag).)
			if r.recvSeq == nil {
				r.recvSeq = map[srcTag]uint64{}
			}
			key := srcTag{req.src, req.tag}
			if last := r.recvSeq[key]; req.seq < last {
				panic(fmt.Sprintf("rank %d: ordering violation from %d tag %d: seq %d after %d",
					r.id, req.src, req.tag, req.seq, last))
			}
			r.recvSeq[key] = req.seq
		}
		// Receive-side software overhead.
		ovStart := r.Now()
		r.node.ComputeWith(r.proc, r.overheadMcyc(r.world.cfg.RecvOverheadMcyc, req.bytes), dvs.ActCommTransfer)
		r.stats.Transfer += r.Now().Sub(ovStart)
		r.stats.Messages++
		r.stats.Bytes += int64(req.bytes)
	}
	r.world.emit(r.id, EvWait, "wait", start, r.Now(), req.bytes, req.src)
	// Free the request; its fields stay readable until it is reused.
	req.owner = nil
	r.free = append(r.free, req)
	return req.bytes
}

// WaitAll waits for (and frees) every request.
func (r *Rank) WaitAll(reqs ...*Request) {
	for _, q := range reqs {
		r.Wait(q)
	}
}

// Recv blocks until a matching message is received; it returns the size.
func (r *Rank) Recv(src, tag int) int {
	start := r.Now()
	n := r.Wait(r.Irecv(src, tag))
	r.world.emit(r.id, EvRecv, "recv", start, r.Now(), n, src)
	return n
}

// SendRecv exchanges messages with a partner (send to dst, receive from
// src), overlapping the two directions like MPI_Sendrecv.
func (r *Rank) SendRecv(dst, sendBytes, src, recvBytes, tag int) {
	_ = recvBytes // size is announced by the incoming message itself
	rreq := r.Irecv(src, tag)
	sreq := r.Isend(dst, tag, sendBytes)
	r.Wait(sreq)
	r.Wait(rreq)
}
