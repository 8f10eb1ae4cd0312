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
	wake chan wakeKind

	// pendingWake is the timer event that will resume this proc, if it is
	// sleeping; Interrupt cancels it.
	pendingWake *event
	// queue is the wait queue this proc is blocked on, if any.
	queue *Queue
	// interruptible marks whether the current block may be interrupted.
	interruptible bool
	// done is set after the body returns.
	done bool
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
	p := &Proc{k: k, name: name, wake: make(chan wakeKind)}
	k.procs[p] = struct{}{}
	go p.run(fn)
	ev := k.alloc()
	ev.t, ev.proc = t, p
	k.schedule(ev)
	p.pendingWake = ev
	return p
}

// run is the goroutine body wrapping fn with the baton protocol: after the
// body returns (or panics) this goroutine still holds the baton, so it
// keeps dispatching events until the baton moves to another proc or the
// loop finishes and the baton returns to the Run caller.
func (p *Proc) run(fn func(p *Proc)) {
	kind := <-p.wake // wait for the start event
	defer func() {
		aborting := kind == wakeAborted
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, errAborted) {
				aborting = true
			} else if p.k.err == nil {
				p.k.err = &PanicError{Proc: p.name, Value: r, Stack: string(debug.Stack())}
			}
		}
		p.done = true
		delete(p.k.procs, p)
		if aborting {
			// Hand the baton back to the abort coordinator (abortAll).
			p.k.done <- struct{}{}
			return
		}
		// Normal exit or body panic: keep the simulation moving. On a
		// body panic k.err is set, so the loop finishes immediately and
		// the Run caller takes over to abort the remaining procs.
		if st, _ := p.k.runLoop(nil); st == loopFinished {
			p.k.done <- struct{}{}
		}
	}()
	if kind == wakeAborted {
		return
	}
	fn(p)
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// yield blocks the calling proc and returns the wake kind when it is next
// resumed. Instead of waking an executive goroutine, the blocking proc
// runs the dispatch loop inline: if the next runnable event resumes this
// very proc (a Sleep in a compute loop, a daemon poll tick), yield returns
// without a single goroutine switch; otherwise the baton moves straight to
// the next proc's goroutine and this one parks on its wake channel.
func (p *Proc) yield() wakeKind {
	if p.k.running != p {
		panic(fmt.Sprintf("sim: proc %q yielding while not running", p.name))
	}
	st, kind := p.k.runLoop(p)
	switch st {
	case loopSelf:
		// Zero-switch fast path: we popped our own wake event.
	case loopHandedOff:
		kind = <-p.wake
	case loopFinished:
		// Dispatch cannot proceed; return the baton to the Run caller
		// and park until a future Run (or abortAll) resumes us.
		p.k.done <- struct{}{}
		kind = <-p.wake
	}
	if kind == wakeAborted {
		panic(errAborted)
	}
	return kind
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
	if p.done || !p.interruptible || p.k.running == p {
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
