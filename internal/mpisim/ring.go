package mpisim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dvs"
	"repro/internal/sim"
)

// ringDepth is how many operations a rank's body may have issued that
// have not finished: the one in flight and those queued behind it. The
// body parks once per ringDepth operations, when the ring is full.
const ringDepth = 16

// opKind names a rank operation.
type opKind uint8

const (
	opCompute opKind = iota
	opMemory
	opDisk
	opSetSpeed
	opSend
	opIsend
	opIrecv
	opWait
	opSendRecv
	opRecv // a blocking receive: Irecv and Wait, traced as "recv"
)

// op is one issued rank operation and its arguments, checked when it was
// issued.
type op struct {
	// req is the request of an Isend, Irecv or Wait, and of a Recv once
	// it has started.
	req *Request
	// arg is a send's size in bytes, a stall's duration, SetSpeed's
	// operating-point index, or Compute's megacycles as float64 bits.
	arg      int64
	tag      int
	dst, src int32
	kind     opKind
}

// The phases of the operation in flight.
const (
	phStart     uint8 = iota // not started
	phComputing              // its compute phase runs (Compute, SetSpeed's cost, Send's overhead)
	phSpan                   // a stall, or a blocking Send's transfer or rendezvous, runs
	phRequests               // its requests' steps run
)

// ring holds a rank's issued operations and the state of the one in
// flight. A rank takes one from ringPool in NewWorld and returns it when
// its body has returned, so steady-state worlds allocate none.
type ring struct {
	ops     [ringDepth]op
	head, n uint8 // ops[head] is in flight while n > 0
	phase   uint8
	// reqs are the requests of the operation in flight, from the one
	// whose step runs now, nil-padded (see phRequests).
	reqs [3]*Request
	// began is when the operation in flight, or its receive overhead,
	// began; until is when a blocking Send's rendezvous ends; stat is the
	// Stats field the span in flight adds its time to.
	began, until sim.Time
	stat         *time.Duration
}

var ringPool = sync.Pool{New: func() any { return new(ring) }}

// issue appends o to the rank's ring. An operation that finds the rank
// idle starts at once, in the body's own (time, seq) slot; one issued
// behind others starts in the dispatch loop, at the wake where the one
// before it finishes — where the body, had it waited, would have issued
// it. So operations measure the same however far the body runs ahead
// (DESIGN §10.1). A full ring drains first.
func (r *Rank) issue(o op) {
	q := r.ring
	if q.n == ringDepth {
		r.drain()
	}
	q.ops[(q.head+q.n)%ringDepth] = o
	q.n++
	if q.n == 1 && !r.run() && q.n > 0 {
		r.fail()
	}
}

// drain parks the rank's proc until every operation it issued has
// finished, with the rank as its sim.Guard, so that the body reads the
// state they leave. Calls that read simulated state drain first.
func (r *Rank) drain() {
	if q := r.ring; q != nil && q.n > 0 {
		r.proc.Park((*driver)(r))
		if q.n > 0 {
			r.fail()
		}
	}
}

// driver is a Rank seen as the sim.Guard of its operations in flight.
type driver Rank

// Wake runs the rank's operations at one of its wakes and resumes the
// rank's proc once they are all done, or one fails its checks.
func (d *driver) Wake(*sim.Proc) bool { return !(*Rank)(d).run() }

// fail repeats, in the rank's own body, the check that stopped the
// driver, where it panics with its own message.
func (r *Rank) fail() {
	if req := r.ring.reqs[0]; req != nil && req.step == stepWaited {
		if !req.done {
			panic(fmt.Sprintf("rank %d: woke with incomplete request", r.id))
		}
		if msg := r.misordered(req); msg != "" {
			panic(msg)
		}
	}
	// What is left is the node computing for another proc, which
	// StartCompute reports in its own words.
	r.node.StartCompute(r.proc, 0, dvs.ActCompute)
	panic(fmt.Sprintf("rank %d: driver stopped on a check that holds", r.id))
}

// run drives the rank's operations from where they stand until one must
// wait for a wake, which it arms, reporting true. It reports false once
// the ring is empty, or when a check fails, leaving the failing
// operation at the head for fail.
func (r *Rank) run() bool {
	q := r.ring
	for q.n > 0 {
		o := &q.ops[q.head]
		switch q.phase {
		case phStart:
			if armed, ok := r.start(o); armed || !ok {
				return armed
			}
		case phComputing:
			if r.node.StepCompute(r.proc) || r.computed(o) {
				return true
			}
		case phSpan:
			r.node.EndSpan()
			*q.stat += r.proc.Slept()
			if o.kind == opSend {
				if r.rendezvous(o) {
					return true
				}
				continue
			}
			kind := EvMemory
			if o.kind == opDisk {
				kind = EvDisk
			}
			r.world.emit(r.id, kind, kind.String(), q.began, r.now(), 0, -1)
			r.pop()
		case phRequests:
			req := q.reqs[0]
			if req == nil {
				if o.kind == opRecv {
					r.world.emit(r.id, EvRecv, "recv", o.req.since, r.now(), o.req.bytes, int(o.src))
				}
				r.pop()
				continue
			}
			if armed, ok := r.step(req); armed || !ok {
				return armed
			}
		}
	}
	return false
}

// start begins the operation at the head, reporting whether it armed a
// wake. It reports ok false, leaving the operation unstarted, if the node
// is computing for another proc.
func (r *Rank) start(o *op) (armed, ok bool) {
	q := r.ring
	switch o.kind {
	case opCompute:
		return false, r.startCompute(math.Float64frombits(uint64(o.arg)), dvs.ActCompute)
	case opSetSpeed:
		if cost := r.world.cfg.SetSpeedCostMcyc; cost > 0 {
			return false, r.startCompute(cost, dvs.ActCompute)
		}
		r.setSpeed(o)
	case opSend:
		return false, r.startCompute(r.sendOverhead(int(o.arg)), dvs.ActCommTransfer)
	case opMemory:
		q.began = r.now()
		r.span(dvs.ActMemory, 1.0, sim.Duration(o.arg), &r.stats.Memory)
		return true, true
	case opDisk:
		// iowait: the CPU idles, the disk works.
		q.began = r.now()
		r.span(dvs.ActDiskIO, 0, sim.Duration(o.arg), &r.stats.Disk)
		return true, true
	case opIrecv:
		r.postRecv(o.req)
		r.pop()
	case opIsend, opWait:
		q.reqs[0] = o.req
		q.phase = phRequests
	case opSendRecv:
		rreq := r.recvRequest(int(o.src), o.tag)
		r.postRecv(rreq)
		sreq := r.sendRequest(int(o.dst), o.tag, int(o.arg))
		q.reqs = [3]*Request{sreq, sreq, rreq}
		q.phase = phRequests
	case opRecv:
		if o.req == nil {
			o.req = r.recvRequest(int(o.src), o.tag)
		}
		r.postRecv(o.req)
		q.reqs[0] = o.req
		q.phase = phRequests
	}
	return false, true
}

// startCompute begins the operation's compute phase, unless the node is
// computing for another proc.
func (r *Rank) startCompute(megacycles float64, act dvs.Activity) bool {
	if r.node.Computing() {
		return false
	}
	r.ring.began = r.now()
	r.node.StartCompute(r.proc, megacycles, act)
	r.ring.phase = phComputing
	return true
}

// computed finishes the compute phase of the operation in flight,
// reporting whether the operation then armed a wake.
func (r *Rank) computed(o *op) bool {
	switch o.kind {
	case opCompute:
		r.stats.Compute += r.now().Sub(r.ring.began)
		r.world.emit(r.id, EvCompute, "compute", r.ring.began, r.now(), 0, -1)
		r.pop()
	case opSetSpeed:
		r.setSpeed(o)
	case opSend:
		txDone, completeAt := r.transmit(int(o.dst), o.tag, int(o.arg), r.ring.began)
		r.ring.until = completeAt
		if txDone > r.now() {
			// Uplink serialization: the CPU streams the data out.
			r.span(dvs.ActCommTransfer, 1.0, txDone.Sub(r.now()), &r.stats.Transfer)
			return true
		}
		return r.rendezvous(o)
	}
	return false
}

// setSpeed makes SetSpeed's transition and retires it. The index came
// from the node's own table, so the transition cannot fail.
func (r *Rank) setSpeed(o *op) {
	_ = r.node.SetFrequencyIndex(int(o.arg))
	r.pop()
}

// span holds the node at activity a and busy fraction busyFrac for d,
// which it adds to *stat once the armed sleep ends.
func (r *Rank) span(a dvs.Activity, busyFrac float64, d sim.Duration, stat *time.Duration) {
	r.node.BeginSpan(a, busyFrac)
	r.proc.ArmSleep(d)
	r.ring.stat = stat
	r.ring.phase = phSpan
}

// rendezvous waits, once a blocking Send's transfer is over, for a
// message above the eager limit to be delivered, reporting whether it
// armed a wake; otherwise it traces and retires the Send.
func (r *Rank) rendezvous(o *op) bool {
	if until := r.ring.until; until > r.now() {
		r.span(r.waitActivity(), r.waitVisibility(), until.Sub(r.now()), &r.stats.Wait)
		return true
	}
	r.world.emit(r.id, EvSend, "send", r.ring.began, r.now(), int(o.arg), int(o.dst))
	r.pop()
	return false
}

// pop retires the operation at the head; the next one starts afresh.
func (r *Rank) pop() {
	q := r.ring
	q.ops[q.head] = op{}
	q.head = (q.head + 1) % ringDepth
	q.n--
	q.phase = phStart
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

// step runs the next step of req, the first of the requests in flight.
// Isend, Wait and SendRecv are lists of request operations: an Isend on
// a fresh send request and a Wait otherwise, and SendRecv is an Isend on
// its send request, a Wait on it and a Wait on its receive. step reports
// whether it armed a wake, and ok false when a check fails.
func (r *Rank) step(req *Request) (armed, ok bool) {
	q := r.ring
	switch req.step {
	case stepSend:
		if r.node.Computing() {
			return false, false
		}
		req.since = r.now()
		r.node.StartCompute(r.proc, r.sendOverhead(req.bytes), dvs.ActCommTransfer)
		req.step = stepSendOverhead
	case stepSendOverhead:
		if r.node.StepCompute(r.proc) {
			return true, true
		}
		r.post(req)
		r.next()
	case stepWait:
		req.since = r.now()
		req.step = stepWaited
		if !req.done {
			// Idle at communication-wait activity until req's
			// completion wakes the rank.
			r.node.BeginSpan(r.waitActivity(), r.waitVisibility())
			req.step = stepWaiting
			return true, true
		}
	case stepWaiting:
		r.node.EndSpan()
		r.stats.Wait += r.now().Sub(req.since)
		req.step = stepWaited
	case stepWaited:
		if !req.done || req.isRecv && (r.misordered(req) != "" || r.node.Computing()) {
			return false, false
		}
		if req.isRecv {
			r.node.StartCompute(r.proc, r.recvOverhead(req), dvs.ActCommTransfer)
			q.began = r.now()
			req.step = stepRecvOverhead
		} else {
			r.finishWait(req)
		}
	case stepRecvOverhead:
		if r.node.StepCompute(r.proc) {
			return true, true
		}
		r.stats.Transfer += r.now().Sub(q.began)
		r.stats.Messages++
		r.stats.Bytes += int64(req.bytes)
		r.finishWait(req)
	}
	return false, true
}

// finishWait traces the finished Wait on req and recycles req (its fields
// stay readable until it is reused), moving on to the next request.
func (r *Rank) finishWait(req *Request) {
	r.world.emit(r.id, EvWait, "wait", req.since, r.now(), req.bytes, req.src)
	r.free = append(r.free, req)
	r.next()
}

// next moves on to the next request of the operation in flight.
func (r *Rank) next() {
	q := r.ring
	q.reqs = [3]*Request{q.reqs[1], q.reqs[2]}
}
