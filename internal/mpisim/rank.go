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
	// ops are the requests of the blocking call in flight, from the one
	// whose operation runs now, nil-padded (see do). recvAt is when the
	// receive overhead in flight began.
	ops    [3]*Request
	recvAt sim.Time
	// free recycles the requests Wait has released; reqs is the request
	// slice Alltoallv reuses.
	free []*Request
	reqs []*Request
	// seqs holds the CheckOrdering verifier's sequence numbers: the last
	// sent per destination and the last matched per (source, tag).
	seqs map[seqKey]uint64
}

// seqKey keys the CheckOrdering verifier's sequences: a destination for
// sends (sent set, tag 0), a (source, tag) pair for matched receives.
type seqKey struct {
	peer, tag int
	sent      bool
}

// message is a delivered payload descriptor.
type message struct {
	src, tag, bytes int
	// seq is the per-(src,dst) send sequence number, used by the
	// CheckOrdering verifier.
	seq uint64
}

// delivery is one message in flight to dst. The world recycles
// deliveries, and fn (bound once, at first allocation) is what transmit
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
	bytes int
	seq   uint64 // matched message's sequence (CheckOrdering)
	// src and tag are a receive's matching state, and a send's
	// destination and tag: the peer its Wait's trace event names.
	src, tag int
	// since is when the request's current operation began: a send's
	// start while its overhead runs, then the start of the Wait on it.
	since sim.Time
	// complete is the Isend completion callback, bound once per Request.
	complete func()
	done     bool
	isRecv   bool
	// step is where the request's next or current operation stands.
	step uint8
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

// wake releases the rank's proc if it is parked in Wait on req. Only the
// awaited request's completion wakes it, so the parked proc always has
// exactly one reason to wake.
func (r *Rank) wake(req *Request) {
	if req.step == stepWaiting {
		r.proc.Wake()
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
	r.node.BeginSpan(dvs.ActCommTransfer, 1.0)
	r.proc.Sleep(until.Sub(start))
	r.node.EndSpan()
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

// Send transmits bytes to dst with the given tag (tag must be ≥ 0 for
// application messages). It blocks until the message is on the wire
// (eager) or delivered (rendezvous, above the eager limit).
func (r *Rank) Send(dst, tag, bytes int) {
	r.checkSend(dst, bytes)
	start := r.Now()
	r.node.ComputeWith(r.proc, r.sendOverhead(bytes), dvs.ActCommTransfer)
	txDone, completeAt := r.transmit(dst, tag, bytes, start)
	// Uplink serialization: the CPU streams the data out.
	r.transferSpan(txDone)
	if completeAt > r.Now() {
		// Rendezvous tail: waiting for the receiver to drain.
		startW := r.Now()
		r.node.BeginSpan(r.waitActivity(), r.waitVisibility())
		r.proc.Sleep(completeAt.Sub(startW))
		r.node.EndSpan()
		r.stats.Wait += r.Now().Sub(startW)
	}
	r.world.emit(r.id, EvSend, "send", start, r.Now(), bytes, dst)
}

// Isend starts a nonblocking send and returns its request, which Wait
// frees. The CPU overhead is charged immediately; the wire transfer
// proceeds in the background.
func (r *Rank) Isend(dst, tag, bytes int) *Request {
	req := r.sendRequest(dst, tag, bytes)
	r.do(req)
	return req
}

// checkSend panics on an invalid destination or size. It runs in the
// proc before a send starts, so the network accepts every send that
// reaches transmit.
func (r *Rank) checkSend(dst, bytes int) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("rank %d: send to invalid rank %d", r.id, dst))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("rank %d: negative message size", r.id))
	}
}

// sendOverhead returns the CPU cost of sending bytes, in megacycles.
func (r *Rank) sendOverhead(bytes int) float64 {
	return r.overheadMcyc(r.world.cfg.SendOverheadMcyc, bytes)
}

// sendRequest checks a send and returns its request, its Isend still to
// run.
func (r *Rank) sendRequest(dst, tag, bytes int) *Request {
	r.checkSend(dst, bytes)
	req := r.newRequest()
	req.bytes, req.src, req.tag = bytes, dst, tag
	req.step = stepSend
	return req
}

// post puts a send request's message on the wire once its overhead is
// paid and schedules the send's completion. A Wait is the request's next
// operation.
func (r *Rank) post(req *Request) {
	_, completeAt := r.transmit(req.src, req.tag, req.bytes, req.since)
	req.step = stepWait
	if completeAt <= r.Now() {
		req.done = true
	} else {
		r.world.k.At(completeAt, req.complete)
	}
	r.world.emit(r.id, EvSend, "isend", req.since, r.Now(), req.bytes, req.src)
}

// transmit accounts a send whose overhead ran from start to now and puts
// the message on the wire, scheduling its delivery. It returns when the
// uplink finishes transmitting and when the send completes: txDone for
// eager messages, the arrival instant under rendezvous.
func (r *Rank) transmit(dst, tag, bytes int, start sim.Time) (txDone, completeAt sim.Time) {
	w := r.world
	r.stats.Transfer += r.Now().Sub(start)
	r.stats.Messages++
	r.stats.Bytes += int64(bytes)

	txDone, arrive, err := w.net.Transfer(r.id, dst, bytes)
	if err != nil {
		panic(fmt.Sprintf("rank %d: %v", r.id, err))
	}
	// Deliver at the destination at the arrival instant.
	msg := message{src: r.id, tag: tag, bytes: bytes}
	if w.cfg.CheckOrdering {
		if r.seqs == nil {
			r.seqs = map[seqKey]uint64{}
		}
		key := seqKey{peer: dst, sent: true}
		r.seqs[key]++
		msg.seq = r.seqs[key]
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
	r.do(req)
	return req.bytes
}

// misordered returns the CheckOrdering violation that matching req would
// be, or "" if there is none. MPI non-overtaking: same-pair messages must
// match in send order. (Different tags may be *received* out of order by
// the application, but a matched message must never have a lower
// sequence than one already matched from that source with the same tag —
// we verify per (src, tag).)
func (r *Rank) misordered(req *Request) string {
	if !r.world.cfg.CheckOrdering || req.seq == 0 {
		return ""
	}
	if last := r.seqs[seqKey{peer: req.src, tag: req.tag}]; req.seq < last {
		return fmt.Sprintf("rank %d: ordering violation from %d tag %d: seq %d after %d",
			r.id, req.src, req.tag, req.seq, last)
	}
	return ""
}

// recvOverhead records a checked receive's match for the ordering
// verifier and returns the CPU cost of the receive, in megacycles.
func (r *Rank) recvOverhead(req *Request) float64 {
	if r.world.cfg.CheckOrdering && req.seq > 0 {
		if r.seqs == nil {
			r.seqs = map[seqKey]uint64{}
		}
		r.seqs[seqKey{peer: req.src, tag: req.tag}] = req.seq
	}
	return r.overheadMcyc(r.world.cfg.RecvOverheadMcyc, req.bytes)
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
// src), overlapping the two directions like MPI_Sendrecv. It is Irecv,
// Isend, Wait on the send and Wait on the receive, run as one blocking
// call, so the rank's proc blocks at most once.
func (r *Rank) SendRecv(dst, sendBytes, src, recvBytes, tag int) {
	_ = recvBytes // size is announced by the incoming message itself
	rreq := r.Irecv(src, tag)
	sreq := r.sendRequest(dst, tag, sendBytes)
	r.do(sreq, sreq, rreq)
}

// The steps of a request's operation. A request starts at stepWait, its
// Wait next, except that a send request starts at stepSend, its Isend
// next; post then puts it at stepWait.
const (
	stepWait         uint8 = iota // a Wait is next
	stepSend                      // an Isend is next
	stepSendOverhead              // the send's CPU overhead runs
	stepWaiting                   // the Wait waits for the request to complete
	stepWaited                    // the Wait is over: check and finish it
	stepRecvOverhead              // the receive's CPU overhead runs
)

// do runs a blocking call: the next operation of each listed request, in
// order, which is an Isend on a fresh send request and a Wait otherwise.
// SendRecv is do(sreq, sreq, rreq). The rank's proc runs the operations
// until one must wait for a wake, then parks once, with the rank as its
// sim.Guard: the rest run in the dispatch loop at the rank's wakes, where
// the proc would have run them. So a call measures the same whether its
// operations are grouped with others or not (DESIGN §10.1). An Isend
// must come first, so that its StartCompute checks run in the proc.
func (r *Rank) do(reqs ...*Request) {
	copy(r.ops[:], reqs)
	if r.run() {
		r.proc.Park((*driver)(r))
	}
	req := r.ops[0]
	if req == nil {
		return
	}
	// The driver stopped at a Wait whose checks fail: repeat them here,
	// where they panic in the rank's own body.
	r.ops = [3]*Request{}
	if !req.done {
		panic(fmt.Sprintf("rank %d: woke with incomplete request", r.id))
	}
	if msg := r.misordered(req); msg != "" {
		panic(msg)
	}
	// What is left is the node computing for another proc, which
	// StartCompute reports in its own words.
	r.node.StartCompute(r.proc, r.recvOverhead(req), dvs.ActCommTransfer)
}

// driver is a Rank seen as the sim.Guard of its blocking call in flight.
type driver Rank

// Wake runs the call at one of the rank's wakes and resumes the rank's
// proc once the call no longer waits.
func (d *driver) Wake(*sim.Proc) bool { return !(*Rank)(d).run() }

// run drives the call in flight from its current step until a step must
// wait for a wake, which it arms, reporting true. It reports false once
// the call is over (r.ops is all nil), or when a Wait's request fails its
// checks (r.ops[0] is that request), so that the proc repeats them.
func (r *Rank) run() bool {
	for r.ops[0] != nil {
		req := r.ops[0]
		switch req.step {
		case stepSend:
			req.since = r.Now()
			r.node.StartCompute(r.proc, r.sendOverhead(req.bytes), dvs.ActCommTransfer)
			req.step = stepSendOverhead
		case stepSendOverhead:
			if r.node.StepCompute(r.proc) {
				return true
			}
			r.post(req)
			r.next()
		case stepWait:
			req.since = r.Now()
			req.step = stepWaited
			if !req.done {
				// Idle at communication-wait activity until req's
				// completion wakes the rank.
				r.node.BeginSpan(r.waitActivity(), r.waitVisibility())
				req.step = stepWaiting
				return true
			}
		case stepWaiting:
			r.node.EndSpan()
			r.stats.Wait += r.Now().Sub(req.since)
			req.step = stepWaited
		case stepWaited:
			if !req.done || req.isRecv && (r.misordered(req) != "" || r.node.Computing()) {
				return false
			}
			if req.isRecv {
				r.node.StartCompute(r.proc, r.recvOverhead(req), dvs.ActCommTransfer)
				r.recvAt = r.Now()
				req.step = stepRecvOverhead
			} else {
				r.finishWait(req)
			}
		case stepRecvOverhead:
			if r.node.StepCompute(r.proc) {
				return true
			}
			r.stats.Transfer += r.Now().Sub(r.recvAt)
			r.stats.Messages++
			r.stats.Bytes += int64(req.bytes)
			r.finishWait(req)
		}
	}
	return false
}

// finishWait traces the finished Wait on req, frees req (its fields stay
// readable until it is reused) and moves the call on to its next
// operation.
func (r *Rank) finishWait(req *Request) {
	r.world.emit(r.id, EvWait, "wait", req.since, r.Now(), req.bytes, req.src)
	req.owner = nil
	r.free = append(r.free, req)
	r.next()
}

// next moves the call in flight on to its next operation.
func (r *Rank) next() { r.ops = [3]*Request{r.ops[1], r.ops[2]} }
