package sim

// Queue is a FIFO wait queue: procs block on it with Wait and are released
// one at a time by Signal. It is the kernel's condition-variable analogue
// and the building block for mailboxes and barriers in higher layers.
//
// A Queue belongs to a single kernel and, like all sim types, must only be
// used from proc bodies and At callbacks of that kernel.
type Queue struct {
	k *Kernel
	// waiters is a power-of-two ring buffer: head indexes the
	// longest-waiting proc and n counts the blocked procs. A ring makes
	// Signal O(1) and, once grown, the enqueue/release cycle
	// allocation-free.
	waiters []*Proc
	head, n int
}

// NewQueue creates a wait queue.
func (k *Kernel) NewQueue() *Queue {
	return &Queue{k: k}
}

// Len returns the number of procs currently blocked on the queue.
func (q *Queue) Len() int { return q.n }

// enqueue appends p at the ring's tail, growing the buffer when full.
func (q *Queue) enqueue(p *Proc) {
	if q.n == len(q.waiters) {
		q.grow()
	}
	q.waiters[(q.head+q.n)&(len(q.waiters)-1)] = p
	q.n++
}

// grow doubles the ring, unrolling it so head restarts at zero. The ring
// starts small: most queues only ever hold a single waiter.
func (q *Queue) grow() {
	c := len(q.waiters) * 2
	if c == 0 {
		c = 2
	}
	buf := make([]*Proc, c)
	for i := 0; i < q.n; i++ {
		buf[i] = q.waiters[(q.head+i)&(len(q.waiters)-1)]
	}
	q.waiters, q.head = buf, 0
}

// Wait blocks the calling proc until a Signal releases it. It cannot be
// interrupted.
func (q *Queue) Wait(p *Proc) {
	q.enqueue(p)
	p.queue = q
	p.yield()
	p.queue = nil
}

// Signal releases the longest-waiting proc, scheduling it to resume at the
// current virtual time. It reports whether a proc was released.
func (q *Queue) Signal() bool {
	if q.n == 0 {
		return false
	}
	p := q.waiters[q.head]
	q.waiters[q.head] = nil
	q.head = (q.head + 1) & (len(q.waiters) - 1)
	q.n--
	ev := q.k.alloc()
	ev.t, ev.proc = q.k.now, p
	q.k.schedule(ev)
	p.pendingWake = ev
	return true
}

// remove deletes p from the queue without waking it (used by kernel
// shutdown), closing the gap so later waiters keep FIFO order.
func (q *Queue) remove(p *Proc) {
	mask := len(q.waiters) - 1
	for i := 0; i < q.n; i++ {
		if q.waiters[(q.head+i)&mask] != p {
			continue
		}
		for j := i; j < q.n-1; j++ {
			q.waiters[(q.head+j)&mask] = q.waiters[(q.head+j+1)&mask]
		}
		q.waiters[(q.head+q.n-1)&mask] = nil
		q.n--
		return
	}
}
