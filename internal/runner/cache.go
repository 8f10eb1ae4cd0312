package runner

import (
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/mpisim"
	"repro/internal/node"
)

// DefaultMaxEntries is the memo-cache bound when Options.MaxEntries is
// not positive. At about 2 KB per eight-node result this caps resident
// cache memory near ten megabytes — far beyond any single paper
// artifact's working set, small enough to hold steady under multi-tenant
// service traffic.
const DefaultMaxEntries = 4096

// entry is a memo-cache slot; done is closed once res/err are final, so
// concurrent identical jobs coalesce onto one simulation. res and err are
// published by the done close; everything else is guarded by Runner.mu.
type entry struct {
	key  string
	done chan struct{}
	res  core.Result
	err  error
	// completed flips once finalize ran; only completed entries may be
	// evicted, so coalescing waiters never lose an in-flight entry.
	completed bool
	// size is the entry's approximate resident payload, charged to
	// Runner.bytes while the entry is linked.
	size int64
	link lru.Elem[*entry] // recency ring element; Value points back here
}

// oldestCompleted returns the least-recently-used evictable entry,
// walking past in-flight entries (they cannot be evicted), or nil if
// none. Runner.mu held.
func (r *Runner) oldestCompleted() *entry {
	for l := r.lru.Oldest(); l != nil; l = r.lru.Newer(l) {
		if l.Value.completed {
			return l.Value
		}
	}
	return nil
}

// lookup returns the live entry for key and refreshes its recency, or nil
// on a miss. Runner.mu held.
func (r *Runner) lookup(key string) *entry {
	e, ok := r.cache[key]
	if !ok {
		return nil
	}
	r.lru.MoveToFront(&e.link)
	return e
}

// insert links a fresh entry at the front of the recency ring. The key
// must be absent. Runner.mu held.
func (r *Runner) insert(e *entry) {
	r.cache[e.key] = e
	e.link.Value = e
	r.lru.PushFront(&e.link)
}

// remove drops an entry from the cache and recency ring, refunding its
// byte charge. Waiters already holding the *entry are unaffected: its
// done/res/err stay readable after removal. Runner.mu held.
func (r *Runner) remove(e *entry) {
	if cur, ok := r.cache[e.key]; ok && cur == e {
		delete(r.cache, e.key)
	}
	r.lru.Remove(&e.link)
	r.bytes -= e.size
	e.size = 0
}

// evictOverBound drops least-recently-used completed entries until the
// cache is within its bound. In-flight entries are skipped — the cache
// may transiently exceed the bound while many cells simulate at once and
// settles back as they complete. Runner.mu held.
func (r *Runner) evictOverBound() {
	for len(r.cache) > r.maxEntries {
		victim := r.oldestCompleted()
		if victim == nil {
			return
		}
		r.remove(victim)
		r.stats.Evictions++
	}
}

// finalize publishes a freshly-run entry's outcome, applies the failure
// policy, and wakes coalesced waiters. Called exactly once per entry
// created by run (exec's panic containment guarantees the caller reaches
// it), so every waiter's done channel always closes.
func (r *Runner) finalize(e *entry, res core.Result, err error) {
	r.mu.Lock()
	e.res, e.err = res, err
	e.completed = true
	if err == nil {
		e.size = int64(len(e.key)) + resultSize(res)
		r.bytes += e.size
		r.evictOverBound()
	} else {
		// Never memoize failures: only waiters already coalesced onto
		// this run observe the error; the next identical job re-runs.
		r.stats.Poisoned++
		r.remove(e)
	}
	r.mu.Unlock()
	close(e.done)
}

// resultSize approximates a result's resident bytes from its in-memory
// shape: the struct itself, its strings, and each slice's elements. It
// encodes nothing, so pricing a finished cell costs no allocation.
func resultSize(res core.Result) int64 {
	n := int(unsafe.Sizeof(res)) + len(res.Name) + len(res.Strategy) +
		len(res.NodeEnergy)*int(unsafe.Sizeof(node.Energy{})) +
		len(res.RankStats)*int(unsafe.Sizeof(mpisim.Stats{})) +
		len(res.TimeAtOp)*int(unsafe.Sizeof([]time.Duration(nil))) +
		len(res.Thermal)*int(unsafe.Sizeof(node.ThermalStats{}))
	for _, row := range res.TimeAtOp {
		n += len(row) * int(unsafe.Sizeof(time.Duration(0)))
	}
	return int64(n)
}
