// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel owns a virtual clock and an event heap. Simulated activities
// are written as ordinary Go functions ("procs") that call blocking
// primitives such as Sleep and Park; under the hood each proc body
// runs as a coroutine (iter.Pull), and the kernel guarantees that exactly
// one of them (or the Run caller) executes at any instant, so simulations
// are fully deterministic: same program, same seed, same result.
//
// Events with equal timestamps fire in the order they were scheduled
// (FIFO tie-break by sequence number).
//
// Scheduling uses direct continuation handoff (DESIGN §10): there is no
// dedicated executive. Whoever holds the "baton" runs the dispatch loop;
// when the next event resumes another proc, the blocking proc yields that
// proc to the Run caller's trampoline, which switches to it — two
// coroutine switches, with no trip through the Go scheduler. When the
// next event resumes the proc that is running the loop, the proc simply
// returns from its own dispatch call — zero switches. A proc parked with a
// Guard costs no switch at all until its guard lets it go: the loop runs
// the guard at each of the proc's wakes instead of resuming the proc
// (DESIGN §10, "Guarded wakes").
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
type wakeKind uint8

const (
	wakeNormal      wakeKind = iota // timer fired, proc started, or Wake delivered
	wakeInterrupted                 // another proc called Interrupt
	wakeAborted                     // kernel is shutting down after an error
)

// event is a single entry in the kernel's event heap. Exactly one of proc
// or fn is set: proc events resume a blocked proc, fn events run a callback
// inside the kernel loop (At callbacks).
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
	// head and tail delimit the live procs, linked in spawn order so that
	// abortAll unwinds them in a deterministic order.
	head, tail *Proc
	running    *Proc
	inRun      bool
	err        error
	// cbPanic records a panic raised by an At callback while the loop was
	// running; Run re-raises it in its caller after aborting the procs.
	cbPanic *callbackPanic
	stats   Stats
}

// Stats counts a kernel's dispatch work since it was made.
type Stats struct {
	// Events counts the events dispatched: callbacks run and proc wakes
	// delivered, canceled timers excluded.
	Events int
	// Handoffs counts the wakes that moved the baton to another proc's
	// coroutine: the switches a wake costs when its proc is not the one
	// running the loop.
	Handoffs int
	// Absorbed counts the wakes a Guard ran in the loop, leaving its
	// proc parked.
	Absorbed int
}

// Stats returns the kernel's dispatch counters.
func (k *Kernel) Stats() Stats { return k.stats }

// callbackPanic carries an At-callback panic from whichever coroutine ran
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
	}
}

// link appends p to the live list.
func (k *Kernel) link(p *Proc) {
	p.prev = k.tail
	if k.tail != nil {
		k.tail.next = p
	} else {
		k.head = p
	}
	k.tail = p
}

// unlink removes p from the live list.
func (k *Kernel) unlink(p *Proc) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		k.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		k.tail = p.prev
	}
	p.prev, p.next = nil, nil
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
// block; it may spawn procs, wake parked ones, and schedule further events.
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
// are still parked with nothing armed: they are waiting for a Wake that
// can never come.
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
	// stopped dispatch. A proc that gets it yields nil so the driver
	// returns to Run.
	loopFinished loopStatus = iota
	// loopHandedOff: the next event resumes k.running, another proc. The
	// caller must hand it the baton and not touch kernel state again
	// until it is next resumed.
	loopHandedOff
	// loopSelf: the next event resumes the calling proc itself — the
	// zero-switch fast path. Only possible when self != nil.
	loopSelf
)

// loop dispatches events until the baton leaves the caller or the
// simulation cannot proceed. self is the proc running the loop (nil for
// the driver); an event resuming self short-circuits to loopSelf instead
// of a coroutine round-trip. The resumed proc finds why it was woken in
// its kind field. A wake of a proc parked with a guard runs the guard
// here, at the wake's (time, seq) position, with the proc as k.running
// as if it had been resumed; the proc is resumed only once the guard
// returns true.
func (k *Kernel) loop(self *Proc) loopStatus {
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
			return loopFinished
		}
		k.now = e.t
		k.stats.Events++
		if e.fn != nil {
			fn := e.fn
			k.release(e)
			fn()
			continue
		}
		p := e.proc
		p.kind = e.kind
		k.release(e)
		p.pendingWake = nil
		p.interruptible = false
		k.running = p
		if g := p.guard; g != nil {
			if !g.Wake(p) {
				k.running = nil
				k.stats.Absorbed++
				continue
			}
			p.guard = nil
		}
		if p == self {
			return loopSelf
		}
		k.stats.Handoffs++
		return loopHandedOff
	}
	return loopFinished
}

// runLoop is loop behind a panic firewall. A panic escaping an At callback
// must not unwind into the proc body that happened to be running the loop:
// it would run that proc's defers and be misattributed as a proc panic. It
// is captured here and re-raised by Run in its caller's goroutine — the
// same place it surfaced when a dedicated executive goroutine ran the loop.
func (k *Kernel) runLoop(self *Proc) (st loopStatus) {
	defer func() {
		if r := recover(); r != nil {
			if k.cbPanic == nil {
				k.cbPanic = &callbackPanic{value: r}
			}
			st = loopFinished
		}
	}()
	return k.loop(self)
}

// drive carries the baton for the Run caller. It runs the dispatch loop
// and, whenever the loop hands off, trampolines from proc to proc: each
// resumed proc runs until it blocks and yields the proc that runs next.
// A proc that yields nil has found that dispatch cannot proceed. One that
// yields exited has returned from its body, and drive dispatches again
// on its behalf.
func (k *Kernel) drive() {
	for k.runLoop(nil) == loopHandedOff {
		p := k.running
		for p != nil && p != exited {
			p = p.resume()
		}
		if p == nil {
			return
		}
	}
}

// Run executes events until the heap is empty or until (exclusive) limit.
// Pass MaxTime to run to completion. It returns the first proc panic as a
// *PanicError, or a *DeadlockError if procs remain blocked with no pending
// events. On error the kernel aborts all live procs before returning so no
// coroutines are leaked. A panic raised by an At callback aborts the procs
// and is then re-raised in Run's caller. Do not call Run or Spawn from a
// goroutine locked to its OS thread (runtime.LockOSThread): procs run on
// coroutines shared by all kernels, and the runtime refuses to switch to
// a coroutine across a thread-lock mismatch.
func (k *Kernel) Run(limit Time) error {
	if k.inRun {
		panic("sim: Run reentered")
	}
	k.inRun = true
	defer func() { k.inRun = false }()
	k.limit = limit

	k.drive()
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
	if k.head != nil {
		var names []string
		for p := k.head; p != nil; p = p.next {
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

// abortAll force-wakes every live proc with wakeAborted, in spawn order,
// so their bodies unwind and their coroutines return to the idle pool. It
// runs in the Run caller, which holds the baton; each aborted proc yields
// it back when its unwind completes. Callers must have k.err or k.cbPanic
// set so any dispatch loop entered during unwind (e.g. by a proc defer)
// stops immediately. A proc that blocks again in a defer stays at the
// head of the list and is aborted again.
func (k *Kernel) abortAll() {
	for p := k.head; p != nil; p = k.head {
		// Cancel any pending timer so it cannot fire later, and drop the
		// guard so the unwind happens in the proc.
		p.guard = nil
		if p.pendingWake != nil {
			p.pendingWake.canceled = true
			p.pendingWake = nil
		}
		k.running = p
		p.kind = wakeAborted
		p.resume()
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
