// Package runner is the parallel sweep engine: it fans independent
// core.Run invocations — the cells of a profile grid, the arms of a
// strategy comparison, the points of an ablation sweep — across a
// work-stealing worker pool and returns results in deterministic
// submission order.
//
// Every simulation is a pure function of its (workload, strategy, config)
// inputs, so the engine also memoizes completed runs in a content-addressed
// cache: overlapping experiments (Table 2 → Figures 5–8 → Figure 11) never
// re-simulate the same cell, whether they execute concurrently within one
// sweep or across separate calls sharing a Runner.
//
// The engine is crash-safe in the shape a long-lived service needs:
//
//   - Panic containment: a panic out of core.Run or a workload body is
//     recovered — in the serial path and in every sweep worker — and
//     converted to a *PanicError outcome for that cell alone. Coalesced
//     waiters on the panicking cell always unblock; the process stays up.
//   - Failure policy: error outcomes are not memoized by default, so a
//     transient failure never poisons the cache for future identical
//     jobs. Options.ErrorTTL enables bounded negative caching instead.
//   - Bounded cache: the memo cache is an LRU capped at
//     Options.MaxEntries completed entries; eviction never touches an
//     in-flight entry, so coalescing stays correct under churn. A cache
//     can be snapshotted to disk and reloaded (see SaveCache/LoadCache)
//     to keep its hit rate across process restarts.
//
// Determinism guarantee: because each core.Run builds its own simulation
// kernel and shares no mutable state, Sweep's output depends only on the
// job list — never on the worker count or on scheduling order. Rendered
// tables are byte-identical at Workers: 1 and Workers: N; the serial
// configuration exists purely for bisection and baseline benchmarking.
package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
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

// Key returns the job's content address and whether the job is cacheable.
// A job is uncacheable when its inputs are not fully value-identified: a
// tracer is attached (side effects), middleware is installed, or the
// workload is a variant that did not declare its closure parameters
// (npb.Workload.ID).
func (j Job) Key() (string, bool) {
	id, ok := j.Workload.ID()
	if !ok || j.Config.Tracer != nil || j.Workload.Body == nil {
		return "", false
	}
	// %#v, not %+v: it never invokes String() methods (core.Strategy's
	// Stringer collapses distinct daemon configs to "auto"), and fmt
	// prints maps sorted by key, so the rendering is deterministic.
	h := sha256.New()
	fmt.Fprintf(h, "w=%s|strat=%#v|node=%#v|net=%#v|mpi=%#v",
		id, j.Strategy, j.Config.Node, j.Config.Net, j.Config.MPI)
	return hex.EncodeToString(h.Sum(nil)), true
}

// Outcome is one job's result, aligned index-for-index with the submitted
// job list.
type Outcome struct {
	Result core.Result
	Err    error
	// Cached reports that the result came from the memo cache (including
	// coalescing onto an identical in-flight job) rather than a fresh
	// simulation.
	Cached bool
}

// Stats counts the engine's work and the memo cache's occupancy.
type Stats struct {
	Runs int // simulations actually executed
	Hits int // jobs satisfied from the cache (or coalesced in-flight)
	// Panics counts panics recovered from simulations (and, as a
	// backstop, from sweep observers); each became an error outcome
	// instead of a process crash.
	Panics int
	// Poisoned counts error outcomes withheld from durable memoization
	// by the failure policy (dropped outright, or negative-cached with a
	// TTL when Options.ErrorTTL is set).
	Poisoned int
	// Evictions counts completed entries dropped by the LRU bound.
	Evictions int
	// Entries is the resident cache size (completed + in-flight), and
	// Bytes its approximate resident payload (keys + JSON-encoded
	// results). Both are gauges, not counters.
	Entries int
	Bytes   int64
}

// PanicError is the outcome error of a simulation that panicked. The
// engine contains the panic so one poisoned cell cannot take down a whole
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
	// Workers is the pool size; <= 0 selects GOMAXPROCS, 1 is the serial
	// reference configuration.
	Workers int
	// MaxEntries bounds the memo cache. 0 selects DefaultMaxEntries;
	// negative disables the bound (the pre-service, in-process sweep
	// behaviour).
	MaxEntries int
	// ErrorTTL is the failure policy. Zero (the default) never memoizes
	// an error outcome: the entry is dropped the moment it completes, so
	// only waiters already coalesced onto the in-flight run observe the
	// failure. A positive TTL negative-caches errors for that long —
	// useful in the service, where hammering a known-bad cell should not
	// re-simulate it on every request.
	ErrorTTL time.Duration
}

// Runner is the sweep engine. It is safe for concurrent use; a single
// Runner shared across experiments shares one memo cache.
type Runner struct {
	workers    int
	maxEntries int // resolved: > 0, or < 0 for unbounded
	errTTL     time.Duration
	now        func() time.Time // test hook for ErrorTTL expiry

	mu    sync.Mutex
	cache map[string]*entry
	lru   lruList
	bytes int64
	stats Stats
}

// New returns an engine with the given parallelism and default cache
// policy; workers <= 0 selects GOMAXPROCS.
func New(workers int) *Runner {
	return NewWithOptions(Options{Workers: workers})
}

// NewWithOptions returns an engine with explicit cache and failure
// policy. The zero Options value matches New(0).
func NewWithOptions(opts Options) *Runner {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	max := opts.MaxEntries
	if max == 0 {
		max = DefaultMaxEntries
	}
	r := &Runner{
		workers:    workers,
		maxEntries: max,
		errTTL:     opts.ErrorTTL,
		now:        time.Now,
		cache:      map[string]*entry{},
	}
	r.lru.init()
	return r
}

// Workers returns the engine's parallelism.
func (r *Runner) Workers() int { return r.workers }

// Stats returns a snapshot of the engine's counters and cache gauges.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Entries = len(r.cache)
	st.Bytes = r.bytes
	return st
}

// Run executes one job through the memo cache on the calling goroutine.
func (r *Runner) Run(w npb.Workload, strat core.Strategy, cfg core.Config) (core.Result, error) {
	return r.RunContext(context.Background(), w, strat, cfg)
}

// RunContext is Run with cancellation: if ctx is done before the
// simulation starts (or while waiting on a coalesced in-flight identical
// job), it returns ctx.Err() without simulating. A simulation that has
// already started always runs to completion — core.Run is a pure function
// with no cancellation points — so cancellation is only observed at job
// boundaries.
func (r *Runner) RunContext(ctx context.Context, w npb.Workload, strat core.Strategy, cfg core.Config) (core.Result, error) {
	out := r.Do(ctx, Job{Workload: w, Strategy: strat, Config: cfg})
	return out.Result, out.Err
}

// Do executes one job through the memo cache on the calling goroutine,
// reporting cache provenance in the outcome — the single-job analogue of
// SweepContext for callers (like the dvsd service) that surface whether
// a result was served from cache.
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

// runCell executes one sweep cell into out[i] and notifies the observer.
// The deferred recover is a backstop for panics that escape r.run's own
// containment — an observer callback blowing up, say — so a sweep worker
// never dies mid-loop and the cells behind it still run.
func (r *Runner) runCell(ctx context.Context, j Job, i int, out []Outcome, emit func(int, Outcome)) {
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			r.stats.Panics++
			r.mu.Unlock()
			if out[i].Err == nil && out[i].Result.Name == "" {
				out[i] = Outcome{Err: &PanicError{Value: v, Stack: debug.Stack()}}
			}
		}
	}()
	out[i] = r.Do(ctx, j)
	emit(i, out[i])
}

// deque is one worker's mutex-guarded job queue (indices into the sweep's
// job slice). The owner pops from the back; thieves take from the front,
// so steals grab the work farthest from what the owner touches next.
type deque struct {
	mu   sync.Mutex
	jobs []int
}

func (d *deque) pop() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.jobs)
	if n == 0 {
		return 0, false
	}
	i := d.jobs[n-1]
	d.jobs = d.jobs[:n-1]
	return i, true
}

// steal moves up to half the victim's jobs (front half) into grab,
// returning them. It returns nil when the victim has nothing to give.
func (d *deque) steal() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.jobs)
	if n == 0 {
		return nil
	}
	take := (n + 1) / 2
	grab := make([]int, take)
	copy(grab, d.jobs[:take])
	d.jobs = append(d.jobs[:0], d.jobs[take:]...)
	return grab
}

func (d *deque) push(jobs []int) {
	d.mu.Lock()
	d.jobs = append(d.jobs, jobs...)
	d.mu.Unlock()
}

// Sweep executes all jobs across the worker pool and returns outcomes in
// submission order, independent of worker count and scheduling. Identical
// jobs within a sweep simulate once and coalesce.
func (r *Runner) Sweep(jobs []Job) []Outcome {
	return r.SweepContext(context.Background(), jobs)
}

// SweepContext is Sweep with cancellation: once ctx is done, queued
// not-yet-started jobs resolve to Outcome{Err: ctx.Err()} instead of
// simulating, so an abandoned caller stops burning workers at the next
// job boundary. Every job still gets an outcome at its submission index.
func (r *Runner) SweepContext(ctx context.Context, jobs []Job) []Outcome {
	return r.SweepFunc(ctx, jobs, nil)
}

// SweepFunc is SweepContext with a streaming observer: if fn is non-nil
// it is called once per job, as that job completes, with the job's
// submission index and outcome. Calls to fn are serialized (never
// concurrent) but arrive in completion order, which depends on
// scheduling; the returned slice is still in submission order.
func (r *Runner) SweepFunc(ctx context.Context, jobs []Job, fn func(i int, o Outcome)) []Outcome {
	out := make([]Outcome, len(jobs))
	var emitMu sync.Mutex
	emit := func(i int, o Outcome) {
		if fn == nil {
			return
		}
		emitMu.Lock()
		// Deferred, not inline: a panicking observer must release the
		// serialization lock on its way up to runCell's backstop, or
		// every later cell's emit would deadlock.
		defer emitMu.Unlock()
		fn(i, o)
	}
	workers := r.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, j := range jobs {
			r.runCell(ctx, j, i, out, emit)
		}
		return out
	}

	// Deal contiguous chunks to per-worker deques; workers that drain
	// their own deque steal half of a victim's remainder. No job creates
	// new jobs, so the sweep is done when every deque is empty.
	deques := make([]*deque, workers)
	for w := 0; w < workers; w++ {
		deques[w] = &deque{}
	}
	for i := range jobs {
		d := deques[i*workers/len(jobs)]
		d.jobs = append(d.jobs, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				i, ok := deques[self].pop()
				if !ok {
					stolen := false
					for v := 1; v < workers; v++ {
						if grab := deques[(self+v)%workers].steal(); grab != nil {
							deques[self].push(grab)
							stolen = true
							break
						}
					}
					if !stolen {
						return
					}
					continue
				}
				r.runCell(ctx, jobs[i], i, out, emit)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// FirstErr returns the first error among outcomes, in submission order.
func FirstErr(outs []Outcome) error {
	for i := range outs {
		if outs[i].Err != nil {
			return outs[i].Err
		}
	}
	return nil
}
