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
// whenever it calls a blocking primitive (Sleep, Queue.Wait, ...).
//
// A Proc must only be used from its own body function, except for
// Interrupt, which other procs (or kernel At callbacks) may call.
type Proc struct {
	k    *Kernel
	name string
	// co runs the body; nil once the body has returned.
	co *coro
	// kind tells the proc why it was last woken. Whoever resumes the proc
	// sets it: the dispatch loop, or abortAll.
	kind wakeKind
	// prev and next link the kernel's live procs in spawn order.
	prev, next *Proc

	// pendingWake is the timer event that will resume this proc, if it is
	// sleeping; Interrupt cancels it.
	pendingWake *event
	// queue is the wait queue this proc is blocked on, if any.
	queue *Queue
	// interruptible marks whether the current block may be interrupted.
	interruptible bool
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
	ev := k.alloc()
	ev.t, ev.proc = t, p
	k.schedule(ev)
	p.pendingWake = ev
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

// Sleep suspends the proc for d of virtual time. It cannot be interrupted.
func (p *Proc) Sleep(d Duration) {
	ev := p.k.alloc()
	ev.t, ev.proc = p.k.now.Add(d), p
	p.k.schedule(ev)
	p.pendingWake = ev
	p.yield()
}

// SleepInterruptible suspends the proc for up to d. It returns the virtual
// time actually slept and ErrInterrupted if another proc cut the sleep
// short via Interrupt; otherwise err is nil and elapsed == d.
func (p *Proc) SleepInterruptible(d Duration) (elapsed Duration, err error) {
	start := p.k.now
	ev := p.k.alloc()
	ev.t, ev.proc = p.k.now.Add(d), p
	p.k.schedule(ev)
	p.pendingWake = ev
	p.interruptible = true
	kind := p.yield()
	p.interruptible = false
	elapsed = p.k.now.Sub(start)
	if kind == wakeInterrupted {
		return elapsed, ErrInterrupted
	}
	return elapsed, nil
}

// Interrupt wakes p immediately if it is blocked in SleepInterruptible. It
// reports whether an interrupt was delivered. Interrupting a proc that is
// running, done, or in a non-interruptible block is a no-op.
func (p *Proc) Interrupt() bool {
	if p.co == nil || !p.interruptible || p.k.running == p {
		return false
	}
	if p.pendingWake != nil {
		p.pendingWake.canceled = true
		p.pendingWake = nil
	}
	ev := p.k.alloc()
	ev.t, ev.proc, ev.kind = p.k.now, p, wakeInterrupted
	p.k.schedule(ev)
	p.pendingWake = ev
	return true
}
