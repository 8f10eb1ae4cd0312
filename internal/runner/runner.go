// Package runner is the memo cache and single-job engine behind every
// in-process simulation: Do runs one core.Run on the calling goroutine,
// and a content-addressed cache keyed by Job.Key memoizes it. Every
// simulation is a pure function of its (workload, strategy, config)
// inputs, so overlapping experiments (Table 2 → Figures 5–8 → Figure 11)
// never re-simulate the same cell, and identical jobs submitted
// concurrently coalesce onto one in-flight run.
//
// The runner owns no worker pool. Every sweep runs through sweep.Execute
// over sweep.Local, which calls DoKey from a bounded worker set sized by
// the runner's Workers; outcomes land at their submission index, so
// results depend only on the job list, never on the parallelism.
//
// The runner is crash-safe in the shape a long-lived service needs:
//
//   - Panic containment: a panic out of core.Run or a workload body is
//     recovered and converted to a *PanicError outcome for that job
//     alone. Coalesced waiters on the panicking job always unblock; the
//     process stays up.
//   - Failure policy: error outcomes are never memoized, so a transient
//     failure never poisons the cache for future identical jobs.
//   - Bounded cache: the memo cache is an LRU capped at
//     Options.MaxEntries completed entries; eviction never touches an
//     in-flight entry, so coalescing stays correct under churn. A cache
//     can be snapshotted to disk and reloaded (see SaveCache/LoadCache)
//     to keep its hit rate across process restarts.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/npb"
	"repro/internal/obs"
)

// Job is one independent simulation: a grid cell, comparison arm, or
// ablation point.
type Job struct {
	Workload npb.Workload
	Strategy core.Strategy
	Config   core.Config
}

// Outcome is one job's result.
type Outcome struct {
	Result core.Result
	Err    error
	// Cached reports that the result came from the memo cache (including
	// coalescing onto an identical in-flight job) rather than a fresh
	// simulation.
	Cached bool
}

// Stats counts the runner's work and the memo cache's occupancy.
type Stats struct {
	Runs int // simulations actually executed
	Hits int // jobs satisfied from the cache (or coalesced in-flight)
	// Panics counts panics recovered from simulations; each became an
	// error outcome instead of a process crash.
	Panics int
	// Poisoned counts error outcomes the failure policy dropped instead
	// of memoizing.
	Poisoned int
	// Evictions counts completed entries dropped by the LRU bound.
	Evictions int
	// Entries is the resident cache size (completed + in-flight), and
	// Bytes its approximate resident payload (keys + in-memory result
	// sizes). Both are gauges, not counters.
	Entries int
	Bytes   int64
}

// PanicError is the outcome error of a simulation that panicked. The
// runner contains the panic so one poisoned cell cannot take down a whole
// sweep — or the dvsd process hosting it.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // goroutine stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: simulation panicked: %v", e.Value)
}

// Options configures a Runner beyond its parallelism.
type Options struct {
	// Workers is the in-process capacity sweeps run this runner at (the
	// sweep.ExecOptions.Parallel callers pass); <= 0 selects GOMAXPROCS,
	// 1 is the serial reference configuration.
	Workers int
	// MaxEntries bounds the memo cache; <= 0 selects DefaultMaxEntries.
	MaxEntries int
}

// Runner is the memo cache and single-job engine. It is safe for
// concurrent use; a single Runner shared across experiments shares one
// memo cache.
type Runner struct {
	workers    int
	maxEntries int // resolved: > 0

	mu    sync.Mutex
	cache map[string]*entry
	lru   lru.Ring[*entry]
	bytes int64
	stats Stats
}

// New returns a runner with the given capacity and default cache
// policy; workers <= 0 selects GOMAXPROCS.
func New(workers int) *Runner {
	return NewWithOptions(Options{Workers: workers})
}

// NewWithOptions returns a runner with an explicit cache bound. The zero Options value matches New(0).
func NewWithOptions(opts Options) *Runner {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	max := opts.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	return &Runner{
		workers:    workers,
		maxEntries: max,
		cache:      map[string]*entry{},
	}
}

// Workers returns the runner's in-process capacity.
func (r *Runner) Workers() int { return r.workers }

// Stats returns a snapshot of the runner's counters and cache gauges.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Entries = len(r.cache)
	st.Bytes = r.bytes
	return st
}

// Do executes one job through the memo cache on the calling goroutine,
// reporting cache provenance in the outcome. Cancellation is observed at
// job boundaries only: if ctx is done before the simulation starts (or
// while waiting on a coalesced in-flight identical job), Do returns
// ctx.Err() without simulating; a simulation that has started always runs
// to completion, since core.Run has no cancellation points.
func (r *Runner) Do(ctx context.Context, j Job) Outcome {
	key, _ := j.Key()
	return r.DoKey(ctx, j, key)
}

// DoKey is Do for a caller that already holds the job's content address
// — j.Key()'s key, "" for an uncacheable job — such as a sweep cell, so
// the job is not hashed a second time. Any other key files the result
// under the wrong address.
func (r *Runner) DoKey(ctx context.Context, j Job, key string) Outcome {
	return r.run(ctx, j, key)
}

// coreRun is the simulation entry point, indirected so crash-containment
// tests can inject panics at the exact call site a real failure would hit.
// The context carries only tracing state; core's phase spans hang off it.
var coreRun = core.RunContext

// exec runs one simulation with panic containment: a panic out of
// core.Run or the workload body is recovered and converted to a
// *PanicError, so the caller always gets an (result, error) pair and —
// via finalize — coalescing entries always close their done channel.
func (r *Runner) exec(ctx context.Context, j Job) (res core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			r.stats.Panics++
			r.mu.Unlock()
			res, err = core.Result{}, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return coreRun(ctx, j.Workload, j.Strategy, j.Config)
}

// run executes or memo-resolves a single job under its content key ("":
// uncacheable). Cancellation is checked before starting work and while
// blocked on a coalesced in-flight entry; cancelled jobs resolve to
// ctx.Err() and touch neither cache nor stats. Cache provenance is
// recorded on the caller's active span (if any): cache.hit / cache.miss
// events, and a cache.wait span for the time spent coalesced behind an
// identical in-flight job.
func (r *Runner) run(ctx context.Context, j Job, key string) Outcome {
	if err := ctx.Err(); err != nil {
		return Outcome{Err: err}
	}
	if key == "" {
		r.mu.Lock()
		r.stats.Runs++
		r.mu.Unlock()
		res, err := r.exec(ctx, j)
		return Outcome{Result: res, Err: err}
	}
	r.mu.Lock()
	if e := r.lookup(key); e != nil {
		r.mu.Unlock()
		var wsp *obs.Span
		select {
		case <-e.done: // completed entries have done already closed
		default: // in flight elsewhere: this wait is worth a span
			_, wsp = obs.Start(ctx, "cache.wait")
		}
		select {
		case <-e.done:
			wsp.End()
			obs.SpanFrom(ctx).Event("cache.hit")
			r.mu.Lock()
			r.stats.Hits++
			r.mu.Unlock()
			return Outcome{Result: e.res, Err: e.err, Cached: true}
		case <-ctx.Done():
			wsp.End()
			return Outcome{Err: ctx.Err()}
		}
	}
	e := &entry{key: key, done: make(chan struct{})}
	r.insert(e)
	r.stats.Runs++
	r.mu.Unlock()
	obs.SpanFrom(ctx).Event("cache.miss")
	res, err := r.exec(ctx, j)
	r.finalize(e, res, err)
	return Outcome{Result: res, Err: err}
}
