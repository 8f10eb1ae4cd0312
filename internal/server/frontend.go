package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// Daemon is what sets one daemon's frontend apart from another's; the
// request handling itself is shared.
type Daemon struct {
	// Name prefixes the daemon's metric names and log lines ("dvsd",
	// "dvsgw").
	Name string
	// Placer resolves every cell: the one cell of a /simulate and each
	// cell of a /sweep.
	Placer sweep.Placer
	// Parallel bounds a sweep's concurrently placed cells.
	Parallel int
	// SimulateSpan names the root span of a /simulate request.
	SimulateSpan string
	// SweepSpan names the one root span of a /sweep request. Empty leaves
	// the roots to the placer: the sweep context carries the tracer and
	// QueuedSince, and each cell may root a trace of its own.
	SweepSpan string
	// Health writes the daemon's extra /healthz fields, each as
	// `,"name":value`. Optional.
	Health func(w io.Writer)
	// Start runs when Serve begins; Stop runs first thing in Shutdown.
	// Both optional.
	Start, Stop func()
}

// bodyBytesPerJob is the request-body allowance per job: a fully
// specified, pretty-printed job spec is well under it. A request may
// carry MaxJobs+1 of them (the grid form's workload and strategy lists
// together, plus config and deadline).
const bodyBytesPerJob = 4 << 10

// retryAfter is the backoff hint attached to 429 responses.
const retryAfter = time.Second

// Frontend is the HTTP service both daemons are made of: decode and
// validate, admit or shed, apply the deadline, open the request span and
// the checkpoint journal, place the cells, encode the response. It serves
// POST /simulate, POST /sweep, GET /healthz, GET /metrics and
// GET /debug/traces.
type Frontend struct {
	opts Options
	d    Daemon
	gate *gate
	mux  *http.ServeMux

	reg                     obs.Registry
	requests, latency       *obs.Family
	cells, resumed, ckptErr *obs.Counter

	hs *http.Server
}

// NewFrontend builds the frontend for one daemon. Of opts it uses the
// admission, deadline, tracing and checkpoint fields; Runner is dvsd's
// own concern.
func NewFrontend(opts Options, d Daemon) *Frontend {
	opts = opts.withDefaults()
	f := &Frontend{opts: opts, d: d, gate: newGate(opts.MaxInflight)}
	p := d.Name + "_"
	f.requests = f.reg.Counter(p+"requests_total", "Requests served, by path and status.", "path", "status")
	f.latency = f.reg.Histogram(p+"request_seconds", "Request latency, by path.", "path")
	f.cells = f.reg.Counter(p+"sweep_cells_total", "Sweep grid cells streamed.").Counter()
	f.resumed = f.reg.Counter(p+"resumed_cells_total", "Sweep cells replayed from a checkpoint journal instead of re-executed.").Counter()
	f.ckptErr = f.reg.Counter(p+"checkpoint_errors_total", "Checkpoint journals that could not be opened (the sweep ran uncheckpointed).").Counter()
	f.reg.Gauge(p+"queue_depth", "Requests currently admitted.").Set(obs.Func(func() float64 { return float64(f.gate.depth()) }))
	f.reg.Gauge(p+"queue_capacity", "Admission queue bound.").Set(obs.Func(func() float64 { return float64(f.gate.capacity()) }))

	f.mux = http.NewServeMux()
	f.mux.HandleFunc("/simulate", f.instrument("/simulate", f.handleSimulate))
	f.mux.HandleFunc("/sweep", f.instrument("/sweep", f.handleSweep))
	f.mux.HandleFunc("/healthz", f.handleHealthz)
	f.mux.HandleFunc("/metrics", f.handleMetrics)
	f.mux.Handle("/debug/traces", opts.Tracer.DebugHandler())
	f.hs = &http.Server{Handler: f.mux, ReadHeaderTimeout: 10 * time.Second}
	return f
}

// Handler returns the routed handler, for embedding and httptest.
func (f *Frontend) Handler() http.Handler { return f.mux }

// Registry is the daemon's /metrics registry, for its own extra series.
func (f *Frontend) Registry() *obs.Registry { return &f.reg }

// Resumed counts sweep cells replayed from checkpoint journals.
func (f *Frontend) Resumed() int64 { return f.resumed.Load() }

// CheckpointErrors counts checkpoint journals that failed to open.
func (f *Frontend) CheckpointErrors() int64 { return f.ckptErr.Load() }

// Run serves on addr until ctx is done, then drains: it stops accepting
// connections and waits up to drain for in-flight requests, streaming
// sweeps included, to finish. A non-empty debugAddr serves pprof and
// /debug/traces on a side listener, off the service port and its
// admission gate, for as long as Run does; a failure there is reported
// on stderr and does not stop the service. A failed listen or serve is
// returned as is, an overrun drain as "shutdown: …"; a clean drain
// returns nil.
func (f *Frontend) Run(ctx context.Context, addr, debugAddr string, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if debugAddr != "" {
		dbg := &http.Server{Addr: debugAddr, Handler: f.opts.Tracer.DebugMux(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbg.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "%s: debug listener: %v\n", f.d.Name, err)
			}
		}()
		defer dbg.Close()
	}
	served := make(chan error, 1)
	go func() { served <- f.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := f.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return <-served
}

// Serve runs the daemon's Start hook and serves on ln until Shutdown; a
// clean shutdown returns nil.
func (f *Frontend) Serve(ln net.Listener) error {
	if f.d.Start != nil {
		f.d.Start()
	}
	if err := f.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown runs the daemon's Stop hook, stops accepting connections and
// drains in-flight requests (including streaming sweeps) until they
// finish or ctx expires. A Serve that starts after Shutdown returns nil
// at once.
func (f *Frontend) Shutdown(ctx context.Context) error {
	if f.d.Stop != nil {
		f.d.Stop()
	}
	return f.hs.Shutdown(ctx)
}

// statusWriter captures the response status for metrics and forwards
// Flush so NDJSON streaming survives the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument wraps a handler with request counting and latency
// observation.
func (f *Frontend) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	lat := f.latency.Histogram(path)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		lat.Observe(time.Since(start))
		f.requests.Counter(path, strconv.Itoa(sw.status)).Add(1)
	}
}

// decodeBody strictly parses a JSON body of at most MaxJobs+1 job
// allowances into v. Unknown fields are typed errors, not silently dropped — a misspelled
// knob must not run a default-configured simulation — and an oversize
// body is a typed 413, read no further than the bound.
func (f *Frontend) decodeBody(w http.ResponseWriter, r *http.Request, v any) *sweep.APIError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(f.opts.MaxJobs+1)*bodyBytesPerJob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return sweep.Errf(sweep.CodeBodyTooLarge, "",
				"request body exceeds %d bytes", tooLarge.Limit)
		}
		return sweep.Errf(sweep.CodeBadRequest, "", "invalid JSON body: %v", err)
	}
	return nil
}

// timeoutFor resolves a request's timeout_ms against the bounds.
func (f *Frontend) timeoutFor(ms float64) time.Duration {
	if ms <= 0 {
		return f.opts.DefaultTimeout
	}
	d := time.Duration(ms * float64(time.Millisecond))
	if d > f.opts.MaxTimeout {
		return f.opts.MaxTimeout
	}
	return d
}

// methodNotAllowed renders the typed 405 naming the verb to use.
func methodNotAllowed(w http.ResponseWriter, method string) {
	sweep.WriteError(w, sweep.Errf(sweep.CodeMethodNotAllowed, "",
		"use %s", method))
}

func (f *Frontend) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req SimulateRequest
	if ae := f.decodeBody(w, r, &req); ae != nil {
		sweep.WriteError(w, ae)
		return
	}
	cell, err := req.JobSpec.Cell()
	if err != nil {
		sweep.WriteError(w, sweep.InField(err, ""))
		return
	}
	if !f.gate.tryAcquire() {
		sweep.WriteError(w, sweep.QueueFull(retryAfter))
		return
	}
	defer f.gate.release()

	ctx, cancel := context.WithTimeout(r.Context(), f.timeoutFor(req.TimeoutMS))
	defer cancel()
	// Root span of this process's part of the trace; a traceparent sent
	// by a caller (a gateway's route span) stitches it under the caller's.
	ctx, sp := f.opts.Tracer.StartRequest(ctx, f.d.SimulateSpan, r.Header.Get("traceparent"))
	if sp != nil {
		sp.SetAttr("queue_depth", strconv.Itoa(f.gate.depth()))
		sp.SetAttr("key", cell.Key)
	}
	o := sweep.Place(ctx, f.d.Placer, 0, cell)
	buf := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(buf)
	if o.Err == nil {
		var err error
		if *buf, err = sweep.AppendResponse((*buf)[:0], &sweep.SimulateResponse{Cached: o.Cached, Result: *o.ResultJSON()}); err != nil {
			o = sweep.Outcome{Err: sweep.OutcomeError(err)}
		}
	}
	if o.Err != nil {
		sp.SetAttr("error", o.Err.Code)
		sp.End()
		sweep.WriteError(w, o.Err)
		return
	}
	sp.SetAttr("cached", strconv.FormatBool(o.Cached))
	sp.End()
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(*buf)
}

// bodyBufs holds the buffers /simulate bodies are appended into, so a
// response allocates no buffer of its own.
var bodyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func (f *Frontend) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req SweepRequest
	if ae := f.decodeBody(w, r, &req); ae != nil {
		sweep.WriteError(w, ae)
		return
	}
	plan, err := req.Plan(f.opts.MaxJobs)
	if err != nil {
		sweep.WriteError(w, sweep.InField(err, ""))
		return
	}
	if !f.gate.tryAcquire() {
		sweep.WriteError(w, sweep.QueueFull(retryAfter))
		return
	}
	defer f.gate.release()

	ctx, cancel := context.WithTimeout(r.Context(), f.timeoutFor(req.TimeoutMS))
	defer cancel()
	if f.d.SweepSpan != "" {
		// One trace per sweep request: cells show up as child spans.
		var sp *obs.Span
		ctx, sp = f.opts.Tracer.StartRequest(ctx, f.d.SweepSpan, r.Header.Get("traceparent"))
		sp.SetAttr("jobs", strconv.Itoa(plan.Len()))
		defer sp.End()
	}
	ckpt := f.openCheckpoint(ctx, plan)

	// Stream: one record per cell in completion order, then a trailer.
	// The header commits status 200 before results exist; per-cell
	// failures travel in-band as error records. Resumed-cell counts go to
	// /metrics, never the trailer — a resumed sweep's stream must be
	// byte-compatible with an uninterrupted one.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if f.d.SweepSpan == "" && f.opts.Tracer != nil {
		// Carry the tracer, not a request span, and the moment the cells
		// start queueing for placement: each cell may root its own trace.
		ctx = context.WithValue(obs.WithTracer(ctx, f.opts.Tracer), queuedKey{}, time.Now())
	}
	enc := sweep.NewEncoder(w)
	_, sum := sweep.Execute(ctx, plan, f.d.Placer, sweep.ExecOptions{
		Parallel:   f.d.Parallel,
		OnRecord:   enc.Record, // Execute serializes observer calls
		Checkpoint: ckpt,
	})
	enc.Trailer(sum)
	f.cells.Add(int64(plan.Len()))
	f.resumed.Add(int64(sum.Resumed))
}

type queuedKey struct{}

// QueuedSince returns when the traced sweep carrying ctx began queueing
// its cells for placement; zero unless the sweep leaves its trace roots
// to the placer.
func QueuedSince(ctx context.Context) time.Time {
	t, _ := ctx.Value(queuedKey{}).(time.Time)
	return t
}

// openCheckpoint opens the sweep's journal when checkpointing is on.
// Checkpointing is best-effort: a journal that cannot be opened must not
// fail the sweep, it only costs re-execution after a crash. The failure
// is still surfaced — logged, counted, and marked on the request span —
// because a sweep that silently runs uncheckpointed is a resume that
// silently won't work.
func (f *Frontend) openCheckpoint(ctx context.Context, plan *sweep.Plan) *sweep.Checkpoint {
	if f.opts.CheckpointDir == "" {
		return nil
	}
	ckpt, err := sweep.OpenCheckpointFS(f.opts.CheckpointFS, sweep.CheckpointPath(f.opts.CheckpointDir, plan), plan)
	if err != nil {
		f.ckptErr.Add(1)
		obs.SpanFrom(ctx).Event("checkpoint.open_failed")
		log.Printf("%s: sweep running uncheckpointed: %v", f.d.Name, err)
	}
	return ckpt
}

func (f *Frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","queue_depth":%d,"queue_capacity":%d`, f.gate.depth(), f.gate.capacity())
	if f.d.Health != nil {
		f.d.Health(w)
	}
	io.WriteString(w, "}\n")
}

func (f *Frontend) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	f.reg.WriteText(w)
}
