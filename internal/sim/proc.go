package sim

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrInterrupted is returned by SleepInterruptible when another proc
// called Interrupt on the sleeping proc.
var ErrInterrupted = errors.New("sim: interrupted")

// errAborted is panicked inside proc primitives during kernel shutdown; it
// is caught by the proc wrapper and never escapes to user code.
var errAborted = errors.New("sim: aborted")

// Proc is a simulated process. A Proc's body function runs cooperatively:
// it executes only between the kernel's event dispatches, and yields
// whenever it calls a blocking primitive (Sleep, SleepInterruptible, Park).
//
// A Proc must only be used from its own body function, except for
// Interrupt and Wake, which other procs (or kernel At callbacks) may call,
// and the arming methods and accessors a Guard calls on the proc it runs
// for.
type Proc struct {
	k    *Kernel
	name string
	// co runs the body; nil once the body has returned.
	co *coro
	// prev and next link the kernel's live procs in spawn order.
	prev, next *Proc

	// pendingWake is the event that will resume this proc, if one is
	// scheduled: its start, a timer, or a Wake. Interrupt cancels it.
	pendingWake *event
	// guard runs this proc's wakes while it is parked with one.
	guard Guard
	// armedAt is when the proc last armed a wake; Slept measures from it.
	armedAt Time
	// kind tells the proc why it was last woken. Whoever resumes the proc
	// sets it: the dispatch loop, or abortAll.
	kind wakeKind
	// interruptible marks whether the armed wake may be interrupted.
	interruptible bool
}

// Guard runs a parked proc's wakes inside the dispatch loop. A proc that
// parks with a guard is not switched to when one of its wakes fires: the
// loop calls the guard's Wake at that wake's (time, seq) position
// instead, so whatever the guard does happens exactly where the proc
// would have done it. Wake either arms the proc's next wake (ArmSleep,
// ArmSleepInterruptible, or nothing, to wait for a Proc.Wake) and returns
// false, keeping the proc parked, or returns true to resume it, and Park
// returns. Wake must not block, and it must not panic: a panic in the
// loop surfaces in Run's caller rather than as the proc's PanicError, so
// a check that may fail belongs in the proc, before it parks or after
// Park returns.
type Guard interface {
	Wake(p *Proc) bool
}

// Spawn creates a proc named name whose body is fn and schedules it to
// start at the current virtual time. It may be called before Run or from
// inside other procs and At callbacks.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt schedules the proc to start at absolute time t.
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	if fn == nil {
		panic("sim: Spawn with nil fn")
	}
	p := &Proc{k: k, name: name}
	p.co = bindCoro(p, fn)
	k.link(p)
	p.wakeAt(t, wakeNormal)
	return p
}

// exited is what a coroutine yields once its proc's body has returned: the
// baton is back with the driver, which must dispatch the next event itself.
var exited = &Proc{name: "exited"}

// run executes fn as the proc's body inside its coroutine. A body panic
// becomes k.err, so the next dispatch loop finishes at once and the Run
// caller aborts the remaining procs; the errAborted panic of an abort
// unwind is swallowed. Either way the proc leaves the live list, and its
// coroutine then yields exited.
func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); (!ok || !errors.Is(err, errAborted)) && p.k.err == nil {
				p.k.err = &PanicError{Proc: p.name, Value: r, Stack: string(debug.Stack())}
			}
		}
		p.k.unlink(p)
	}()
	if p.kind == wakeAborted {
		return
	}
	fn(p)
}

// resume switches to p's coroutine and runs it until it gives the baton
// up. It returns the proc to resume next, nil when dispatch cannot
// proceed, or exited when p's body has returned; in that last case p's
// coroutine goes back to the idle pool. Only the baton holder outside
// any proc body — the driver or abortAll — calls it.
func (p *Proc) resume() *Proc {
	q, _ := p.co.next()
	if q == exited {
		p.co.release()
		p.co = nil
	}
	return q
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// yield blocks the calling proc and returns the wake kind when it is next
// resumed. Instead of waking an executive, the blocking proc runs the
// dispatch loop inline: if the next runnable event resumes this very proc
// (a Sleep in a compute loop, a daemon poll tick), yield returns without
// a single switch; otherwise the proc's coroutine yields the next proc to
// the driver, which switches to it.
func (p *Proc) yield() wakeKind {
	if p.k.running != p {
		panic(fmt.Sprintf("sim: proc %q yielding while not running", p.name))
	}
	switch p.k.runLoop(p) {
	case loopSelf:
		// Zero-switch fast path: we popped our own wake event.
	case loopHandedOff:
		p.co.yield(p.k.running)
	case loopFinished:
		// Dispatch cannot proceed; return the baton to the driver and
		// park until a future Run (or abortAll) resumes us.
		p.co.yield(nil)
	}
	if p.kind == wakeAborted {
		panic(errAborted)
	}
	return p.kind
}

// wakeAt schedules p's next wake at t, of the given kind.
func (p *Proc) wakeAt(t Time, kind wakeKind) {
	ev := p.k.alloc()
	ev.t, ev.proc, ev.kind = t, p, kind
	p.k.schedule(ev)
	p.pendingWake = ev
}

// arm schedules p's next wake at d from now.
func (p *Proc) arm(d Duration, interruptible bool) {
	p.wakeAt(p.k.now.Add(d), wakeNormal)
	p.armedAt = p.k.now
	p.interruptible = interruptible
}

// ArmSleep arms p's next wake d of virtual time from now without
// blocking; the wake cannot be interrupted. Sleep is ArmSleep then Park.
func (p *Proc) ArmSleep(d Duration) { p.arm(d, false) }

// ArmSleepInterruptible is ArmSleep for a wake that Interrupt may bring
// forward; Interrupted tells the woken proc (or its guard) which came.
func (p *Proc) ArmSleepInterruptible(d Duration) { p.arm(d, true) }

// Park blocks the proc until a wake resumes it: one it armed, or a Wake
// from elsewhere. With a nil guard the first such wake resumes it. With a
// guard, each wake runs g.Wake in the dispatch loop instead, and the proc
// resumes when Wake returns true. A proc parked with no armed wake that
// nothing Wakes stays parked, and Run names it in its DeadlockError.
func (p *Proc) Park(g Guard) {
	p.guard = g
	p.yield()
}

// Interrupted reports whether p's latest wake came from Interrupt rather
// than from the timer it armed.
func (p *Proc) Interrupted() bool { return p.kind == wakeInterrupted }

// Slept returns the virtual time since p last armed a wake: once that
// wake has come, the time it actually slept.
func (p *Proc) Slept() Duration { return p.k.now.Sub(p.armedAt) }

// Sleep suspends the proc for d of virtual time. It cannot be interrupted.
func (p *Proc) Sleep(d Duration) {
	p.ArmSleep(d)
	p.yield()
}

// SleepInterruptible suspends the proc for up to d. It returns the virtual
// time actually slept and ErrInterrupted if another proc cut the sleep
// short via Interrupt; otherwise err is nil and elapsed == d.
func (p *Proc) SleepInterruptible(d Duration) (elapsed Duration, err error) {
	p.ArmSleepInterruptible(d)
	if p.yield() == wakeInterrupted {
		return p.Slept(), ErrInterrupted
	}
	return p.Slept(), nil
}

// Interrupt wakes p immediately if it is blocked in an interruptible
// sleep. It reports whether an interrupt was delivered. Interrupting a
// proc that is running, done, or in a non-interruptible block is a no-op.
func (p *Proc) Interrupt() bool {
	if p.co == nil || !p.interruptible || p.k.running == p {
		return false
	}
	if p.pendingWake != nil {
		p.pendingWake.canceled = true
	}
	p.wakeAt(p.k.now, wakeInterrupted)
	return true
}

// Wake schedules a wake at the current time for p if p is parked with
// nothing armed, and reports whether it did. For any other proc (one that
// is running, sleeping, already woken, finished or not yet started) it
// schedules nothing and returns false. A guarded proc's Wake runs its
// guard, like any other wake.
func (p *Proc) Wake() bool {
	if p.co == nil || p.pendingWake != nil || p.k.running == p {
		return false
	}
	p.wakeAt(p.k.now, wakeNormal)
	return true
}
