//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// coro is a reusable coroutine that runs proc bodies. next switches into
// it until the running proc gives the baton up; inside, yield switches
// back and passes the proc to resume next (or nil, or exited). Once a
// body has returned, the coroutine parks at yield(exited) and can be
// bound to another proc instead of being torn down: iter.Pull costs about
// a dozen allocations per coroutine, more than the rest of a proc.
type coro struct {
	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool
	// p and fn are the bound proc and its body; both are cleared when the
	// body returns so an idle coroutine keeps no simulation alive.
	p  *Proc
	fn func(*Proc)
}

func (c *coro) loop(yield func(*Proc) bool) {
	c.yield = yield
	for {
		c.p.run(c.fn)
		c.p, c.fn = nil, nil
		if !yield(exited) {
			return
		}
	}
}

// coroPoolCap bounds the idle coroutines kept for reuse. Each one is a
// parked goroutine, so the cap is also the most goroutines the kernel
// leaves behind once every simulation has finished.
const coroPoolCap = 256

// coroPool is the process-wide LIFO of idle coroutines, shared by every
// kernel. A coroutine only enters it after its proc's body has returned.
var coroPool = struct {
	sync.Mutex
	idle []*coro
}{idle: make([]*coro, 0, coroPoolCap)}

// bindCoro returns a coroutine that runs fn as p's body when first
// resumed, taking an idle one when there is one.
func bindCoro(p *Proc, fn func(*Proc)) *coro {
	var c *coro
	coroPool.Lock()
	if n := len(coroPool.idle); n > 0 {
		c = coroPool.idle[n-1]
		coroPool.idle[n-1] = nil
		coroPool.idle = coroPool.idle[:n-1]
	}
	coroPool.Unlock()
	if c == nil {
		c = new(coro)
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.p, c.fn = p, fn
	return c
}

// release returns c to the idle pool, or stops it when the pool is full.
// c must have yielded exited: before that its body may still be running.
func (c *coro) release() {
	coroPool.Lock()
	pooled := len(coroPool.idle) < coroPoolCap
	if pooled {
		coroPool.idle = append(coroPool.idle, c)
	}
	coroPool.Unlock()
	if !pooled {
		c.stop()
	}
}
