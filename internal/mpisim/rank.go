package mpisim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dvs"
	"repro/internal/node"
	"repro/internal/sim"
)

// Rank is one MPI process, bound to a node and a sim proc. All methods
// must be called from the rank's own body function, or once it has
// returned.
//
// The body runs ahead of simulated time. Its operations (Compute,
// MemoryStall, DiskIO, SetSpeed, the point-to-point calls and the
// collectives' messages) go into the rank's ring and run in order at the
// simulated instants the body would have reached them, mostly in the sim
// kernel's dispatch loop (see Rank.issue). Calls that read simulated
// state (Now, Stats, Node, Proc, Recv's size, Split's membership) first
// wait for every issued operation to finish.
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
	// ring holds the operations the body has issued and the driver has
	// not finished; nil once the body has returned.
	ring *ring
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
// Isend or Irecv once the Wait has run, and waiting on it again panics.
type Request struct {
	owner *Rank // nil once a Wait on it is issued
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
	// An Isend completes once its data has left (or, under rendezvous,
	// arrived), inside a kernel At callback.
	req.complete = func() {
		req.done = true
		r.wake(req)
	}
	return req
}

// wake wakes the rank if the Wait in flight waits for req. Only the
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

// Node returns the node this rank runs on, once the rank's operations
// have finished.
func (r *Rank) Node() *node.Node {
	r.drain()
	return r.node
}

// Proc returns the rank's sim proc, once the rank's operations have
// finished.
func (r *Rank) Proc() *sim.Proc {
	r.drain()
	return r.proc
}

// Now returns the current virtual time, once the rank's operations have
// finished.
func (r *Rank) Now() sim.Time {
	r.drain()
	return r.now()
}

// now is the current virtual time, for the driver.
func (r *Rank) now() sim.Time { return r.world.k.Now() }

// Stats returns the rank's accumulated time breakdown, once the rank's
// operations have finished.
func (r *Rank) Stats() Stats {
	r.drain()
	return r.stats
}

// SetSpeed is the PowerPack application-level DVS API (paper §3.3,
// Figure 10/13: call set_cpuspeed around code regions). The caller pays
// the software cost of the cpufreq write at the *current* frequency, then
// the hardware transition stall is charged to subsequent work.
func (r *Rank) SetSpeed(f dvs.MHz) {
	idx := r.node.Table().Nearest(f)
	if r.proc == nil {
		// Before launch there is no proc to pay the cost; an index from
		// the node's own table is in range.
		_ = r.node.SetFrequencyIndex(idx)
		return
	}
	r.issue(op{kind: opSetSpeed, arg: int64(idx)})
}

// Compute runs megacycles of CPU-bound work, which stretches and shrinks
// with DVS transitions mid-phase.
func (r *Rank) Compute(megacycles float64) {
	if megacycles < 0 {
		panic("node: negative cycles")
	}
	r.issue(op{kind: opCompute, arg: int64(math.Float64bits(megacycles))})
}

// MemoryStall runs d of frequency-insensitive memory-bound work.
func (r *Rank) MemoryStall(d time.Duration) { r.stall(opMemory, d) }

// DiskIO blocks the rank on d of disk I/O (iowait: the CPU idles, the
// disk works, and utilization accounting shows idle time).
func (r *Rank) DiskIO(d time.Duration) { r.stall(opDisk, d) }

// stall issues a memory or disk stall of d.
func (r *Rank) stall(kind opKind, d time.Duration) {
	if d < 0 {
		panic("sim: negative duration")
	}
	r.issue(op{kind: kind, arg: int64(d)})
}

// overheadMcyc returns the CPU cost of handling a message of the given size.
func (r *Rank) overheadMcyc(base float64, bytes int) float64 {
	return base + r.world.cfg.OverheadPerKBMcyc*float64(bytes)/1024
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
	r.issue(op{kind: opSend, arg: int64(bytes), dst: int32(dst), tag: tag})
}

// Isend starts a nonblocking send and returns its request, which Wait
// frees. The CPU overhead is charged immediately; the wire transfer
// proceeds in the background.
func (r *Rank) Isend(dst, tag, bytes int) *Request {
	r.checkSend(dst, bytes)
	req := r.sendRequest(dst, tag, bytes)
	r.issue(op{kind: opIsend, req: req})
	return req
}

// checkSend panics on an invalid destination or size. It runs in the
// proc when the send is issued, so the network accepts every send that
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

// sendRequest returns a checked send's request, its Isend still to run.
func (r *Rank) sendRequest(dst, tag, bytes int) *Request {
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
	if completeAt <= r.now() {
		req.done = true
	} else {
		r.world.k.At(completeAt, req.complete)
	}
	r.world.emit(r.id, EvSend, "isend", req.since, r.now(), req.bytes, req.src)
}

// transmit accounts a send whose overhead ran from start to now and puts
// the message on the wire, scheduling its delivery. It returns when the
// uplink finishes transmitting and when the send completes: txDone for
// eager messages, the arrival instant under rendezvous.
func (r *Rank) transmit(dst, tag, bytes int, start sim.Time) (txDone, completeAt sim.Time) {
	w := r.world
	r.stats.Transfer += r.now().Sub(start)
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
	r.checkRecv(src)
	req := r.recvRequest(src, tag)
	r.issue(op{kind: opIrecv, req: req})
	return req
}

// checkRecv panics on an invalid source, when the receive is issued.
func (r *Rank) checkRecv(src int) {
	if src != AnySource && (src < 0 || src >= r.Size()) {
		panic(fmt.Sprintf("rank %d: recv from invalid rank %d", r.id, src))
	}
}

// recvRequest returns a checked receive's request, not yet posted.
func (r *Rank) recvRequest(src, tag int) *Request {
	req := r.newRequest()
	req.isRecv, req.src, req.tag = true, src, tag
	return req
}

// postRecv matches a receive request against the delivered messages, in
// arrival order, or else posts it.
func (r *Rank) postRecv(req *Request) {
	for i, m := range r.mailbox {
		if req.matches(m) {
			r.mailbox = append(r.mailbox[:i], r.mailbox[i+1:]...)
			req.completeRecv(m)
			return
		}
	}
	r.posted = append(r.posted, req)
}

// Wait blocks until req completes. It frees req at once, as MPI_Wait
// sets the handle to MPI_REQUEST_NULL, so waiting on it again panics. The
// blocked time is CPU slack at communication-wait activity.
func (r *Rank) Wait(req *Request) {
	if req.owner != r {
		panic(fmt.Sprintf("rank %d: waiting on foreign or freed request", r.id))
	}
	req.owner = nil
	r.issue(op{kind: opWait, req: req})
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
	r.checkRecv(src)
	req := r.recvRequest(src, tag)
	r.issue(op{kind: opRecv, req: req, src: int32(src), tag: tag})
	r.drain()
	return req.bytes
}

// recv is Recv without its size, for the collectives: it does not drain.
func (r *Rank) recv(src, tag int) {
	r.checkRecv(src)
	r.issue(op{kind: opRecv, src: int32(src), tag: tag})
}

// SendRecv exchanges messages with a partner (send to dst, receive from
// src), overlapping the two directions like MPI_Sendrecv. It is Irecv,
// Isend, Wait on the send and Wait on the receive, run as one operation
// whose requests are made when it starts.
func (r *Rank) SendRecv(dst, sendBytes, src, recvBytes, tag int) {
	_ = recvBytes // size is announced by the incoming message itself
	r.checkRecv(src)
	r.checkSend(dst, sendBytes)
	r.issue(op{kind: opSendRecv, arg: int64(sendBytes), dst: int32(dst), src: int32(src), tag: tag})
}
