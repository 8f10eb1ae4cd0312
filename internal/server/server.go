// Package server is the HTTP frontend of both daemons — dvsd, which runs
// cells in-process, and dvsgw (internal/fleet), which shards them across
// dvsd backends — and dvsd itself. The frontend (frontend.go) owns the
// request path; a daemon supplies the sweep.Placer that resolves cells
// and the few things it does differently (Daemon). One long-lived
// runner.Runner backs every dvsd request, so the content-addressed memo
// cache warms across clients: repeated grid cells are answered from
// cache, fresh cells pay one simulation.
//
// Endpoints:
//
//	POST /simulate  one (workload, strategy, config) job → JSON result
//	POST /sweep     a job list or workloads×strategies grid → NDJSON,
//	                one record per cell as it completes, then a trailer
//	GET  /healthz   liveness + queue snapshot
//	GET  /metrics   Prometheus text format
//
// Production shape: strict typed validation (spec.go) of a bounded body,
// a bounded admission gate that sheds with 429 + Retry-After (queue.go),
// per-request deadlines propagated into placement as context
// cancellation, and graceful shutdown that drains in-flight requests.
// Both commands share one process shell (shell.go): the service flags,
// their validation, and the serve→drain lifecycle of Frontend.Run.
package server

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sweep"
)

// Options configures the service.
type Options struct {
	// Runner executes the simulations; nil builds one with default
	// parallelism. Sharing a Runner across servers shares its cache.
	Runner *runner.Runner
	// MaxInflight bounds concurrently admitted requests; beyond it the
	// server sheds with 429. Default 8.
	MaxInflight int
	// MaxJobs bounds the cells of a single sweep request, and with them
	// the request body's bytes. Default 4096.
	MaxJobs int
	// DefaultTimeout applies when a request carries no timeout_ms.
	// Default 2 minutes.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts. Default 15 minutes.
	MaxTimeout time.Duration
	// Tracer records per-request spans (admission, runner cache
	// resolution, sim phases) into the /debug/traces ring, joining the
	// caller's trace when the request carries a traceparent header. Nil
	// disables tracing at zero cost.
	Tracer *obs.Tracer
	// CheckpointDir, when set, journals each sweep's completed cells so
	// re-posting an interrupted sweep replays them instead of
	// recomputing. Empty disables checkpointing.
	CheckpointDir string
	// CheckpointFS is the filesystem the journal runs on; nil means the
	// real one. Fault-injection tests (internal/chaos) substitute a faulty
	// FS to drive torn writes and crash-at-op-N through the journal.
	CheckpointFS sweep.FS
}

func (o Options) withDefaults() Options {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 8
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 2 * time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 15 * time.Minute
	}
	return o
}

// Server is the dvsd HTTP service: the frontend over sweep.Local.
type Server struct {
	*Frontend
	runner *runner.Runner
}

// New builds a service from opts (zero value is usable).
func New(opts Options) *Server {
	r := opts.Runner
	if r == nil {
		r = runner.New(0)
	}
	s := &Server{runner: r}
	s.Frontend = NewFrontend(opts, Daemon{
		Name:         "dvsd",
		Placer:       sweep.Local{Runner: r},
		Parallel:     r.Workers(),
		SimulateSpan: "dvsd.simulate",
		SweepSpan:    "dvsd.sweep",
		Health: func(w io.Writer) {
			st := r.Stats()
			fmt.Fprintf(w, `,"workers":%d,"cache_entries":%d,"cache_bytes":%d`, r.Workers(), st.Entries, st.Bytes)
		},
	})

	// Runner series, sampled from its Stats at render time.
	reg := s.Registry()
	for _, m := range []struct {
		family     func(name, help string, labels ...string) *obs.Family
		name, help string
		value      func(runner.Stats) float64
	}{
		{reg.Counter, "dvsd_runner_runs_total", "Simulations actually executed by the shared runner.",
			func(st runner.Stats) float64 { return float64(st.Runs) }},
		{reg.Counter, "dvsd_runner_cache_hits_total", "Jobs satisfied from the memo cache.",
			func(st runner.Stats) float64 { return float64(st.Hits) }},
		{reg.Gauge, "dvsd_runner_cache_hit_rate", "Hits / (hits + runs) over the runner lifetime.",
			func(st runner.Stats) float64 { return float64(st.Hits) / max(1, float64(st.Runs+st.Hits)) }},
		{reg.Counter, "dvsd_runner_panics_recovered_total", "Simulation panics contained by the engine and converted to error outcomes.",
			func(st runner.Stats) float64 { return float64(st.Panics) }},
		{reg.Counter, "dvsd_runner_poisoned_total", "Error outcomes withheld from durable memoization by the failure policy.",
			func(st runner.Stats) float64 { return float64(st.Poisoned) }},
		{reg.Counter, "dvsd_runner_cache_evictions_total", "Completed memo entries dropped by the LRU bound.",
			func(st runner.Stats) float64 { return float64(st.Evictions) }},
		{reg.Gauge, "dvsd_runner_cache_entries", "Resident memo-cache entries (completed + in-flight).",
			func(st runner.Stats) float64 { return float64(st.Entries) }},
		{reg.Gauge, "dvsd_runner_cache_bytes", "Approximate resident memo-cache payload bytes.",
			func(st runner.Stats) float64 { return float64(st.Bytes) }},
	} {
		m.family(m.name, m.help).Set(obs.Func(func() float64 { return m.value(r.Stats()) }))
	}
	return s
}

// Runner returns the shared engine (its Stats feed /metrics).
func (s *Server) Runner() *runner.Runner { return s.runner }
