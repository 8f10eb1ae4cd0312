// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel owns a virtual clock and an event heap. Simulated activities
// are written as ordinary Go functions ("procs") that call blocking
// primitives such as Sleep and Queue.Wait; under the hood each proc runs in
// its own goroutine, but the kernel guarantees that exactly one goroutine
// (the Run caller or a single proc) executes at any instant, so
// simulations are fully deterministic: same program, same seed, same result.
//
// Events with equal timestamps fire in the order they were scheduled
// (FIFO tie-break by sequence number).
//
// Scheduling uses direct continuation handoff (DESIGN §10): there is no
// dedicated executive goroutine. Whichever goroutine holds the "baton"
// runs the dispatch loop; when the next event resumes another proc the
// baton moves with a single channel send, and when it resumes the proc
// whose goroutine is already running the loop, the proc simply returns
// from its own dispatch call — zero goroutine switches.
package sim

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration re-exports time.Duration for convenience; virtual durations use
// the same nanosecond resolution as wall-clock durations.
type Duration = time.Duration

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Add returns t shifted by d, saturating at MaxTime.
func (t Time) Add(d Duration) Time {
	if d < 0 {
		panic("sim: negative duration")
	}
	s := t + Time(d)
	if s < t {
		return MaxTime
	}
	return s
}

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// wakeKind tells a blocked proc why it was woken.
type wakeKind int

const (
	wakeNormal      wakeKind = iota // timer fired or Signal delivered
	wakeInterrupted                 // another proc called Interrupt
	wakeAborted                     // kernel is shutting down after an error
)

// event is a single entry in the kernel's event heap. Exactly one of proc
// or fn is set: proc events resume a blocked proc, fn events run a callback
// inside the kernel loop (used for Signal delivery and At callbacks).
// Events are pooled per kernel (see Kernel.alloc/release): the simulator's
// hottest path is schedule→pop, and recycling events through a freelist
// keeps it allocation-free in steady state.
type event struct {
	t        Time
	seq      uint64
	proc     *Proc
	kind     wakeKind
	fn       func()
	canceled bool
}

// eventHeap is a binary min-heap ordered by (time, seq). It deliberately
// does not implement container/heap: the interface-based API boxes every
// element through `any` on Push/Pop, which costs an allocation per event.
// The concrete sift-up/sift-down below keep the hot path boxing-free.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	// Sift up.
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() *event {
	s := *h
	n := len(s) - 1
	e := s[0]
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return e
}

// Kernel is the simulation executive. The zero value is not usable; create
// one with NewKernel.
type Kernel struct {
	now    Time
	seq    uint64
	limit  Time // exclusive horizon of the current Run call
	events eventHeap
	free   []*event // recycled events; see alloc/release
	// done returns the baton to the Run caller when the loop finishes in
	// a proc goroutine, and to the abort coordinator when an aborted proc
	// finishes unwinding. Exactly one goroutine ever waits on it.
	done    chan struct{}
	procs   map[*Proc]struct{}
	running *Proc
	inRun   bool
	err     error
	// cbPanic records a panic raised by an At callback while the loop was
	// running; Run re-raises it in its caller after aborting the procs.
	cbPanic *callbackPanic
}

// callbackPanic carries an At-callback panic from whichever goroutine ran
// the dispatch loop back to the Run caller.
type callbackPanic struct {
	value any
}

// eventPrealloc sizes the event heap and freelist at construction so
// steady-state simulations never grow either backing array.
const eventPrealloc = 64

// NewKernel returns a kernel with the clock at zero and no pending events.
func NewKernel() *Kernel {
	return &Kernel{
		events: make(eventHeap, 0, eventPrealloc),
		free:   make([]*event, 0, eventPrealloc),
		done:   make(chan struct{}),
		procs:  make(map[*Proc]struct{}),
	}
}

// alloc returns a zeroed event, reusing a previously released one when
// available. Together with release it makes the schedule/pop hot path
// allocation-free in steady state.
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &event{}
}

// release recycles a dispatched (or canceled-and-popped) event. The caller
// must guarantee no live pointer to e remains: the dispatch loop releases
// an event only after it has been popped and its fields copied out, and
// procs drop their pendingWake reference before the wake is delivered.
func (k *Kernel) release(e *event) {
	*e = event{}
	k.free = append(k.free, e)
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// schedule inserts an event at absolute time t.
func (k *Kernel) schedule(e *event) *event {
	if e.t < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", e.t, k.now))
	}
	e.seq = k.seq
	k.seq++
	k.events.push(e)
	return e
}

// At schedules fn to run inside the kernel loop at time t. fn must not
// block; it may spawn procs, signal queues, and schedule further events.
func (k *Kernel) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: At with nil fn")
	}
	e := k.alloc()
	e.t, e.fn = t, fn
	k.schedule(e)
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Duration, fn func()) { k.At(k.now.Add(d), fn) }

// Err returns the first error (proc panic) encountered during Run, if any.
func (k *Kernel) Err() error { return k.err }

// DeadlockError is returned by Run when the event heap drains while procs
// are still blocked on queues: they are waiting for signals that can never
// arrive.
type DeadlockError struct {
	Time    Time
	Blocked []string // names of blocked procs
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d procs blocked: %v", e.Time, len(e.Blocked), e.Blocked)
}

// PanicError wraps a panic raised inside a proc.
type PanicError struct {
	Proc  string
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v", e.Proc, e.Value)
}

// loopStatus reports how a dispatch-loop invocation ended.
type loopStatus int

const (
	// loopFinished: the heap drained, the limit was reached, or an error
	// stopped dispatch. The calling goroutine still holds the baton and
	// must hand it to the Run caller (via k.done) unless it is the Run
	// caller.
	loopFinished loopStatus = iota
	// loopHandedOff: the baton was sent to another proc's goroutine; the
	// caller must not touch kernel state again until it is next resumed.
	loopHandedOff
	// loopSelf: the next event resumes the calling proc itself — the
	// zero-switch fast path. Only possible when self != nil.
	loopSelf
)

// loop dispatches events in the calling goroutine until the baton leaves
// it or the simulation cannot proceed. self is the proc whose goroutine is
// running the loop (nil when the Run caller runs it); an event resuming
// self short-circuits to loopSelf instead of a channel round-trip.
func (k *Kernel) loop(self *Proc) (loopStatus, wakeKind) {
	k.running = nil
	for len(k.events) > 0 && k.err == nil && k.cbPanic == nil {
		e := k.events.pop()
		if e.canceled {
			k.release(e)
			continue
		}
		if e.t >= k.limit {
			// Put it back for a future Run call and stop.
			k.events.push(e)
			k.now = k.limit
			return loopFinished, 0
		}
		k.now = e.t
		if e.fn != nil {
			fn := e.fn
			k.release(e)
			fn()
			continue
		}
		p, kind := e.proc, e.kind
		k.release(e)
		p.pendingWake = nil
		k.running = p
		if p == self {
			return loopSelf, kind
		}
		p.wake <- kind
		return loopHandedOff, 0
	}
	return loopFinished, 0
}

// runLoop is loop behind a panic firewall. A panic escaping an At callback
// must not unwind into the proc body that happened to be running the loop:
// it would run that proc's defers and be misattributed as a proc panic. It
// is captured here and re-raised by Run in its caller's goroutine — the
// same place it surfaced when a dedicated executive goroutine ran the loop.
func (k *Kernel) runLoop(self *Proc) (st loopStatus, kind wakeKind) {
	defer func() {
		if r := recover(); r != nil {
			if k.cbPanic == nil {
				k.cbPanic = &callbackPanic{value: r}
			}
			st, kind = loopFinished, 0
		}
	}()
	return k.loop(self)
}

// Run executes events until the heap is empty or until (exclusive) limit.
// Pass MaxTime to run to completion. It returns the first proc panic as a
// *PanicError, or a *DeadlockError if procs remain blocked with no pending
// events. On error the kernel aborts all live procs before returning so no
// goroutines are leaked. A panic raised by an At callback aborts the procs
// and is then re-raised in Run's caller.
func (k *Kernel) Run(limit Time) error {
	if k.inRun {
		panic("sim: Run reentered")
	}
	k.inRun = true
	defer func() { k.inRun = false }()
	k.limit = limit

	if st, _ := k.runLoop(nil); st == loopHandedOff {
		// A proc goroutine carries the simulation now; wait for the baton
		// to come back when dispatch can no longer proceed.
		<-k.done
	}
	if cp := k.cbPanic; cp != nil {
		// cbPanic stays set through abortAll so unwinding procs that
		// re-enter the loop (via defers) finish immediately.
		k.abortAll()
		k.cbPanic = nil
		panic(cp.value)
	}
	if k.err != nil {
		k.abortAll()
		return k.err
	}
	if len(k.events) > 0 {
		// Stopped at the limit with events still pending.
		return nil
	}
	if len(k.procs) > 0 {
		names := make([]string, 0, len(k.procs))
		for p := range k.procs {
			names = append(names, p.name)
		}
		sort.Strings(names)
		err := &DeadlockError{Time: k.now, Blocked: names}
		k.err = err
		k.abortAll()
		return err
	}
	return nil
}

// abortAll force-wakes every live proc with wakeAborted so their goroutines
// unwind and exit. It runs in the Run caller's goroutine, which holds the
// baton; each aborted proc hands it back through k.done when its unwind
// completes. Callers must have k.err or k.cbPanic set so any dispatch loop
// entered during unwind (e.g. by a proc defer) stops immediately.
func (k *Kernel) abortAll() {
	for len(k.procs) > 0 {
		var p *Proc
		for q := range k.procs {
			p = q
			break
		}
		// Cancel any pending timer so it cannot fire later.
		if p.pendingWake != nil {
			p.pendingWake.canceled = true
			p.pendingWake = nil
		}
		if p.queue != nil {
			p.queue.remove(p)
		}
		k.running = p
		p.wake <- wakeAborted
		<-k.done
		k.running = nil
	}
	// Drain remaining events so a subsequent Run doesn't fire callbacks of
	// a dead simulation. The pops leave len(k.events) == 0 while keeping
	// the heap's backing array and the freelist, so a kernel reused after
	// an error schedules allocation-free again instead of regrowing both
	// from scratch.
	for len(k.events) > 0 {
		k.release(k.events.pop())
	}
}
