// Package fleet is the scale-out layer over dvsd: a gateway that fans a
// sweep's cells across a pool of dvsd backends and merges the results
// back into the service's streaming NDJSON contract.
//
// The unit of distribution is one sweep cell, forwarded as an ordinary
// POST /simulate body — the cell-level wire contract — so any dvsd
// instance is a valid backend with no fleet-specific endpoint. Placement
// is a consistent hash of the cell's content-addressed cache key onto
// the backend ring: a repeated cell lands on the backend whose memo
// cache (LRU and persistent snapshot alike) already holds it, so the
// fleet's aggregate hit rate approaches a single warm node's instead of
// decaying with 1/N random placement.
//
// Failure handling is a degradation ladder, each rung preserving the
// client contract of the rung above:
//
//  1. route   — the cell's home backend on the ring
//  2. retry   — bounded attempts with exponential backoff + jitter,
//     failing over along the ring; backend 429s are treated
//     as backpressure (wait, don't burn an attempt)
//  3. hedge   — optionally, a duplicate request to the next backend
//     when the home one is a straggler; first answer wins
//  4. local   — in-process execution on the gateway's own runner, so a
//     gateway with zero live backends degrades to exactly
//     today's single-node dvsd behaviour instead of failing
//
// Liveness is probed (GET /healthz per backend on an interval) with
// ejection after consecutive failures and re-admission on the next
// successful probe; data-path failures feed the same counter so a
// backend that dies mid-sweep is ejected by the cells it broke.
package fleet

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/dvsclient"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sweep"
)

// Options configures a Gateway.
type Options struct {
	// Peers are the backend base URLs (e.g. "http://10.0.0.7:8377").
	// Membership is fixed for the gateway's lifetime; liveness within the
	// set is probed.
	Peers []string
	// Local executes last-resort fallback cells in-process; nil builds a
	// default runner.
	Local *runner.Runner
	// Client issues backend requests; nil builds one with a transport
	// sized for per-cell fan-out.
	Client *http.Client

	// MaxInflight bounds concurrently admitted gateway requests (shed
	// with 429 beyond it). Default 8.
	MaxInflight int
	// MaxJobs bounds the cells of a single sweep request. Default 4096.
	MaxJobs int
	// DefaultTimeout applies when a request carries no timeout_ms.
	// Default 2 minutes. MaxTimeout clamps client-requested timeouts
	// (default 15 minutes).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// Fanout bounds concurrently in-flight cells per sweep. Default 16.
	Fanout int
	// MaxAttempts bounds forwarding attempts per cell (first try
	// included). Default 3.
	MaxAttempts int
	// Backoff is the base retry delay; attempt n waits Backoff·2ⁿ⁻¹ plus
	// up to 50% jitter. Default 50ms.
	Backoff time.Duration
	// MaxBackoff caps the doubled retry delay. Default 5s. Fault-injection
	// tests shrink it so retry storms resolve in milliseconds.
	MaxBackoff time.Duration
	// HedgeAfter launches a duplicate request to the next backend on the
	// ring when the home backend hasn't answered within this delay; the
	// first answer wins. 0 disables hedging.
	HedgeAfter time.Duration
	// ShedBudget caps the cumulative time one cell may spend waiting out
	// backend 429 backpressure. Once spent, further sheds are charged to
	// the attempt budget, so a permanently saturated backend degrades to
	// local fallback instead of the cell waiting forever (or until a
	// request deadline that may not exist). Default 30s.
	ShedBudget time.Duration

	// Tracer records per-cell spans (route/retry/shed/hedge/local and the
	// forwarded backend's stitched trace) into the /debug/traces ring.
	// Nil disables tracing at zero cost.
	Tracer *obs.Tracer

	// CheckpointDir, when set, journals each sweep's completed cells to an
	// NDJSON file in this directory (named by the plan fingerprint). A
	// gateway killed mid-sweep and restarted with the same directory
	// replays finished cells from the journal and executes only the
	// remainder when the same sweep is re-posted. Empty disables
	// checkpointing.
	CheckpointDir string
	// CheckpointFS is the filesystem the journal runs on; nil means the
	// real one. Fault-injection tests (internal/chaos) substitute a faulty
	// FS to drive torn writes and crash-at-op-N through the journal.
	CheckpointFS sweep.FS

	// ProbeInterval is the health-check period (default 2s); ProbeTimeout
	// bounds one probe (default 1s); FailAfter is the consecutive-failure
	// count that ejects a backend (default 2).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailAfter     int
}

// withDefaults fills each zero ladder knob with its default; New also
// builds Local and Client when they are nil.
func (o Options) withDefaults() Options {
	if o.Fanout <= 0 {
		o.Fanout = 16
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.ShedBudget <= 0 {
		o.ShedBudget = 30 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 2
	}
	return o
}

// Flags registers the ladder's flags on fs, bound onto o and defaulting
// to withDefaults' values, and returns the check that rejects
// out-of-range values after parsing.
func (o *Options) Flags(fs *flag.FlagSet) (check func() error) {
	d := Options{}.withDefaults()
	fs.IntVar(&o.Fanout, "fanout", d.Fanout, "concurrently in-flight cells per sweep")
	fs.IntVar(&o.MaxAttempts, "retries", d.MaxAttempts, "forwarding attempts per cell before local fallback (first try included)")
	fs.DurationVar(&o.Backoff, "backoff", d.Backoff, "base retry delay (doubles per attempt, plus jitter)")
	fs.DurationVar(&o.HedgeAfter, "hedge-after", 0, "duplicate a cell to the next backend if the home one hasn't answered within this delay (0 = no hedging)")
	fs.DurationVar(&o.ShedBudget, "shed-budget", d.ShedBudget, "cumulative 429-backpressure wait per cell before sheds burn failover attempts (degrades a saturated fleet to local execution)")
	fs.DurationVar(&o.ProbeInterval, "probe-interval", d.ProbeInterval, "backend health-check period")
	fs.DurationVar(&o.ProbeTimeout, "probe-timeout", d.ProbeTimeout, "per-probe deadline")
	fs.IntVar(&o.FailAfter, "fail-after", d.FailAfter, "consecutive failures (probe or data path) that eject a backend")
	return func() error {
		for _, c := range []struct {
			name string
			ok   bool
		}{
			{"fanout", o.Fanout > 0}, {"retries", o.MaxAttempts > 0}, {"fail-after", o.FailAfter > 0},
			{"backoff", o.Backoff > 0}, {"probe-interval", o.ProbeInterval > 0},
			{"probe-timeout", o.ProbeTimeout > 0}, {"shed-budget", o.ShedBudget > 0},
		} {
			if !c.ok {
				return fmt.Errorf("invalid -%s %s: want > 0", c.name, fs.Lookup(c.name).Value)
			}
		}
		if o.HedgeAfter < 0 {
			return fmt.Errorf("invalid -hedge-after %v: want >= 0 (0 = no hedging)", o.HedgeAfter)
		}
		return nil
	}
}

// Gateway is the fleet front end: the same HTTP frontend as a single
// dvsd backend — POST /simulate, POST /sweep, GET /healthz,
// GET /metrics — placing cells through the degradation ladder, so
// clients (and load balancers) cannot tell the difference, except for
// throughput.
type Gateway struct {
	*server.Frontend
	opts Options
	pool *Pool
	met  gwMetrics
}

// gwMetrics are the ladder's counters, the programmatic source of the
// dvsgw_* series below and of Counters.
type gwMetrics struct {
	retried  *obs.Counter // cell attempts beyond a cell's first
	hedged   *obs.Counter // hedge requests launched
	shedWait *obs.Counter // waits on a backend 429 (backpressure, not failure)
	local    *obs.Counter // cells executed in-process (degradation floor)
}

// New builds a gateway over at least one peer.
func New(opts Options) (*Gateway, error) {
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("fleet: no peers")
	}
	opts = opts.withDefaults()
	if opts.Local == nil {
		opts.Local = runner.New(0)
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        128,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	g := &Gateway{
		opts: opts,
		pool: newPool(opts.Peers, opts.FailAfter, opts.ProbeTimeout, opts.Client),
	}
	g.Frontend = server.NewFrontend(server.Options{
		MaxInflight:    opts.MaxInflight,
		MaxJobs:        opts.MaxJobs,
		DefaultTimeout: opts.DefaultTimeout,
		MaxTimeout:     opts.MaxTimeout,
		Tracer:         opts.Tracer,
		CheckpointDir:  opts.CheckpointDir,
		CheckpointFS:   opts.CheckpointFS,
	}, server.Daemon{
		Name:         "dvsgw",
		Placer:       g,
		Parallel:     opts.Fanout,
		SimulateSpan: "gw.simulate",
		// The gateway is healthy even with zero live backends — the local
		// fallback still serves — so status stays "ok" and the live count
		// carries the fleet's actual state.
		Health: func(w io.Writer) {
			fmt.Fprintf(w, `,"backends_live":%d,"backends_total":%d`, g.pool.live(), len(g.pool.backends))
		},
		Start: g.Start,
		Stop:  g.pool.stopClose,
	})

	reg := g.Registry()
	g.met = gwMetrics{
		retried:  reg.Counter("dvsgw_requests_retried_total", "Cell attempts beyond each cell's first (failover and error retries).").Counter(),
		hedged:   reg.Counter("dvsgw_hedged_requests_total", "Hedge requests launched against straggler cells.").Counter(),
		shedWait: reg.Counter("dvsgw_shed_waits_total", "Backoff waits taken on a backend queue_full shed.").Counter(),
		local:    reg.Counter("dvsgw_local_fallback_cells_total", "Cells executed in-process because no backend could serve them.").Counter(),
	}
	// Per-backend series, read from the pool's live state.
	up := reg.Gauge("dvsgw_backend_up", "Probe state: 1 = admitted, 0 = ejected.", "backend")
	requests := reg.Counter("dvsgw_backend_requests_total", "Cell forwards attempted, by backend.", "backend")
	failures := reg.Counter("dvsgw_backend_failures_total", "Cell forwards that failed (transport error or shed), by backend.", "backend")
	probes := reg.Counter("dvsgw_backend_probes_total", "Health probes sent, by backend.", "backend")
	probeErr := reg.Counter("dvsgw_backend_probe_failures_total", "Health probes failed, by backend.", "backend")
	cellSeconds := reg.Histogram("dvsgw_backend_cell_seconds", "Successful cell forward latency, by backend.", "backend")
	load := func(c *atomic.Int64) obs.Func { return func() float64 { return float64(c.Load()) } }
	for _, b := range g.pool.backends {
		up.Set(obs.Func(func() float64 {
			if b.up.Load() {
				return 1
			}
			return 0
		}), b.url)
		requests.Set(load(&b.requests), b.url)
		failures.Set(load(&b.failures), b.url)
		probes.Set(load(&b.probes), b.url)
		probeErr.Set(load(&b.probeErr), b.url)
		cellSeconds.Set(&b.lat, b.url)
	}
	return g, nil
}

// Start launches the health-probe loop: one synchronous round, then one
// per ProbeInterval. Serve calls it; call it directly when using
// Handler with an external listener.
func (g *Gateway) Start() { g.pool.start(g.opts.ProbeInterval) }

// Counters is a point-in-time snapshot of the gateway's fleet-level
// counters — the programmatic twin of the dvsgw_* Prometheus series, so
// invariant checkers (internal/chaos) can assert fault accounting
// without scraping the text exposition.
type Counters struct {
	Retried          int64 // attempts beyond each cell's first
	Hedged           int64 // hedge requests launched
	ShedWaits        int64 // waits taken on backend 429 backpressure
	Local            int64 // cells run in-process (degradation floor)
	Resumed          int64 // cells replayed from a checkpoint journal
	CheckpointErrors int64 // journals that could not be opened
}

// Counters snapshots the fleet-level counters. Each field is read
// atomically; the snapshot is not a consistent cut across fields, which
// is fine for monotone counters read at quiescence.
func (g *Gateway) Counters() Counters {
	return Counters{
		Retried:          g.met.retried.Load(),
		Hedged:           g.met.hedged.Load(),
		ShedWaits:        g.met.shedWait.Load(),
		Local:            g.met.local.Load(),
		Resumed:          g.Resumed(),
		CheckpointErrors: g.CheckpointErrors(),
	}
}

// Place resolves one cell through the degradation ladder; it makes the
// gateway a sweep.Placer. A /simulate cell runs under its request span.
// A sweep cell roots its own trace, so /debug/traces answers "why was
// THIS cell slow" directly: the trace starts when the sweep's cells
// began queueing, and records the fanout wait as its first child so
// queueing delay is visible separately from execution.
func (g *Gateway) Place(ctx context.Context, i int, c sweep.Cell) sweep.Outcome {
	var root *obs.Span
	if obs.SpanFrom(ctx) == nil {
		queued := server.QueuedSince(ctx)
		ctx, root = obs.StartAt(ctx, "gw.cell", queued)
		if root != nil {
			root.SetAttr("index", strconv.Itoa(i))
			root.SetAttr("key", c.Key)
			_, qsp := obs.StartAt(ctx, "queue", queued)
			qsp.End()
		}
	}
	out := g.runCell(ctx, c)
	if out.Err != nil {
		root.SetAttr("error", out.Err.Code)
	} else {
		root.SetAttr("cached", strconv.FormatBool(out.Cached))
	}
	root.End()
	return out
}

// forward POSTs one cell to one backend via the shared wire client and
// folds the classification into the fleet's liveness bookkeeping.
// Context cancellation is never charged to the backend: our deadline
// expiring (or a hedge race being lost) is not evidence the backend is
// down. The attempt is recorded as a "route" span whose traceparent is
// injected on the wire, so the backend's own spans stitch beneath it;
// span and latency histogram observe the same request interval, so
// traces and /metrics agree on where the time went.
func (g *Gateway) forward(ctx context.Context, b *backend, body []byte) dvsclient.Result {
	b.requests.Add(1)
	_, sp := obs.Start(ctx, "route")
	sp.SetAttr("backend", b.url)
	start := time.Now()
	res := dvsclient.Do(ctx, g.opts.Client, b.url, body, obs.Traceparent(sp))
	switch {
	case res.Ok:
		b.markSuccess()
		b.lat.Observe(time.Since(start))
		sp.SetAttr("outcome", "ok")
	case res.AE != nil:
		// A typed rejection proves the backend is alive and talking.
		b.markSuccess()
		sp.SetAttr("outcome", "relay:"+res.AE.Code)
	case res.Shed:
		b.markSuccess()
		sp.SetAttr("outcome", "shed")
	default:
		// Transport failure or a non-wire-format response; charged to the
		// backend unless our own context ended the attempt.
		if ctx.Err() == nil {
			b.failures.Add(1)
			b.markFailure(g.pool.failAfter)
		}
		if res.Transport {
			sp.SetAttr("outcome", "transport")
		} else {
			sp.SetAttr("outcome", "retry")
		}
	}
	sp.End()
	return res
}

// sleepCtx waits d or until ctx is done; false means ctx won.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// backoff is the delay before retry number n (1-based): Backoff·2ⁿ⁻¹
// capped at MaxBackoff, plus up to 50% jitter so a fleet-wide failure
// does not resynchronize every cell's retry. Doubling stops at the cap
// instead of shifting blindly: a naive Backoff<<(n-1) wraps negative for
// the large n a user-set -retries allows, sails under the cap check, and
// feeds rand.Int63n a non-positive argument (a panic).
func (g *Gateway) backoff(n int) time.Duration {
	maxDelay := g.opts.MaxBackoff
	d := g.opts.Backoff
	for i := 1; i < n && d < maxDelay; i++ {
		d <<= 1
	}
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// runCell resolves one cell through the degradation ladder: route to the
// ring's home backend, fail over with bounded backoff retries, hedge the
// first attempt if configured, and finally fall back to in-process
// execution when no backend could serve it. Every rung records a span
// under the cell's trace, so a slow cell explains itself at
// /debug/traces.
func (g *Gateway) runCell(ctx context.Context, c sweep.Cell) sweep.Outcome {
	body := c.Body()
	failedAttempts := 0
	var shedSpent time.Duration
	for body != nil { // wire-inexpressible cells go straight to local fallback
		if ctx.Err() != nil {
			return sweep.Outcome{Err: sweep.OutcomeError(ctx.Err())}
		}
		if failedAttempts >= g.opts.MaxAttempts {
			break
		}
		// Re-read liveness every attempt so mid-cell ejections and
		// re-admissions take effect immediately.
		prefs := g.pool.order(c.Key)
		if len(prefs) == 0 {
			break
		}
		b := prefs[failedAttempts%len(prefs)]
		var res dvsclient.Result
		if failedAttempts == 0 && g.opts.HedgeAfter > 0 && len(prefs) > 1 {
			res = g.forwardHedged(ctx, b, prefs[1], body)
		} else {
			res = g.forward(ctx, b, body)
		}
		switch {
		case res.Ok:
			r := res.Resp.Result
			return sweep.Outcome{Cached: res.Resp.Cached, Wire: &r}
		case res.AE != nil:
			return sweep.Outcome{Err: res.AE}
		case res.Shed:
			// Backpressure, not failure: the backend asked us to come
			// back, so waiting doesn't burn a failover attempt. But the
			// wait is bounded by ShedBudget — a request context need not
			// carry a deadline, and even one that does should degrade to
			// local fallback rather than time the whole cell out against
			// a permanently saturated backend.
			wait := res.WaitHint
			if wait <= 0 {
				wait = g.backoff(1)
			}
			if rem := g.opts.ShedBudget - shedSpent; wait > rem {
				wait = rem
			}
			if wait <= 0 {
				// Budget exhausted: backpressure is no longer free and
				// each further shed is charged as a failed attempt.
				obs.SpanFrom(ctx).Event("shed.budget_exhausted")
				failedAttempts++
				continue
			}
			shedSpent += wait
			g.met.shedWait.Add(1)
			_, ssp := obs.Start(ctx, "shed.wait")
			ssp.SetAttr("backend", b.url)
			ssp.SetAttr("wait_ms", fmt.Sprint(wait.Milliseconds()))
			sleepCtx(ctx, wait)
			ssp.End()
		default:
			failedAttempts++
			// A retry follows only when the cell's own context is still
			// live: a body cut short by our deadline or cancellation is
			// not a backend failure, and the loop top returns it.
			if failedAttempts < g.opts.MaxAttempts && ctx.Err() == nil {
				g.met.retried.Add(1)
				_, bsp := obs.Start(ctx, "retry.backoff")
				bsp.SetAttr("attempt", fmt.Sprint(failedAttempts))
				sleepCtx(ctx, g.backoff(failedAttempts))
				bsp.End()
			}
		}
	}
	if ctx.Err() != nil {
		return sweep.Outcome{Err: sweep.OutcomeError(ctx.Err())}
	}
	// Degradation floor: no backend could serve the cell — zero live, or
	// the attempt budget burned down — so run it here, exactly as a
	// single-node dvsd would.
	g.met.local.Add(1)
	lctx, lsp := obs.Start(ctx, "local")
	out := g.opts.Local.DoKey(lctx, c.Job, c.Key)
	lsp.End()
	return sweep.FromRunner(out)
}

// forwardHedged races the home backend against a delayed duplicate on
// the failover target: the first decisive answer (success or terminal
// rejection) wins and the loser's request is cancelled. Indecisive
// results (both retryable) surface the primary's, so the caller's retry
// ladder proceeds as if unhedged.
func (g *Gateway) forwardHedged(ctx context.Context, primary, secondary *backend, body []byte) dvsclient.Result {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan dvsclient.Result, 2)
	go func() { ch <- g.forward(hctx, primary, body) }()
	t := time.NewTimer(g.opts.HedgeAfter)
	defer t.Stop()
	timerC := t.C
	launched, received := 1, 0
	var first dvsclient.Result
	for {
		select {
		case res := <-ch:
			received++
			if res.Ok || res.AE != nil {
				return res
			}
			if received == 1 {
				first = res
			}
			if received == launched {
				if launched == 1 {
					// Primary failed before the hedge delay: no point
					// hedging now, the retry ladder handles failover.
					return res
				}
				return first
			}
		case <-timerC:
			timerC = nil
			launched = 2
			g.met.hedged.Add(1)
			sctx, hsp := obs.Start(hctx, "hedge")
			hsp.SetAttr("backend", secondary.url)
			go func() {
				res := g.forward(sctx, secondary, body)
				hsp.End()
				ch <- res
			}()
		}
	}
}
