package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sweep"
)

// startBackend runs a real dvsd service over HTTP and returns it with
// its base URL.
func startBackend(t *testing.T) (*server.Server, string) {
	t.Helper()
	s := server.New(server.Options{Runner: runner.New(2)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// newGateway builds a gateway with test-friendly timings (fast backoff,
// quick ejection) over the given peers.
func newGateway(t *testing.T, opts Options) *Gateway {
	t.Helper()
	if opts.Backoff == 0 {
		opts.Backoff = time.Millisecond
	}
	if opts.Local == nil {
		opts.Local = runner.New(2)
	}
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func postGW(g *Gateway, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	return rec
}

func getGW(g *Gateway, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	return rec
}

// rawRecord keeps cell results raw for byte-level comparison.
type rawRecord struct {
	Index  int             `json:"index"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  *sweep.APIError `json:"error"`
	// trailer fields
	Done        bool `json:"done"`
	Jobs        int  `json:"jobs"`
	CachedCells int  `json:"cached_cells"`
	Errors      int  `json:"errors"`
}

func parseNDJSON(t *testing.T, body *bytes.Buffer) (recs []rawRecord, trailer rawRecord) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []rawRecord
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r rawRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line is not JSON: %v\n%s", err, sc.Text())
		}
		lines = append(lines, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty NDJSON stream")
	}
	last := lines[len(lines)-1]
	if !last.Done {
		t.Fatalf("stream not terminated by a done trailer: %+v", last)
	}
	return lines[:len(lines)-1], last
}

const sweepGrid = `{"workloads":[{"code":"FT","class":"S","ranks":2}],
	"strategies":[{"kind":"nodvs"},{"kind":"external","freq_mhz":600},
	              {"kind":"external","freq_mhz":800},{"kind":"daemon"}]}`

// cellsByIndex collapses a sweep's records into index → result bytes,
// failing on duplicates, gaps, or error records.
func cellsByIndex(t *testing.T, recs []rawRecord, n int) map[int]string {
	t.Helper()
	out := make(map[int]string, n)
	for _, r := range recs {
		if r.Error != nil {
			t.Fatalf("cell %d failed: %+v", r.Index, r.Error)
		}
		if _, dup := out[r.Index]; dup {
			t.Fatalf("cell %d streamed twice", r.Index)
		}
		if r.Index < 0 || r.Index >= n {
			t.Fatalf("cell index %d out of range", r.Index)
		}
		out[r.Index] = string(r.Result)
	}
	if len(out) != n {
		t.Fatalf("got %d distinct cells, want %d", len(out), n)
	}
	return out
}

// TestSweepFanoutMatchesSingleBackend is the acceptance criterion: a
// sweep fanned across two backends returns the same cell set as a
// single-backend run — order-insensitive, byte-identical per cell.
func TestSweepFanoutMatchesSingleBackend(t *testing.T) {
	_, urlA := startBackend(t)
	_, urlB := startBackend(t)
	g := newGateway(t, Options{Peers: []string{urlA, urlB}})

	rec := postGW(g, "/sweep", sweepGrid)
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d body=%s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type=%q", ct)
	}
	recs, trailer := parseNDJSON(t, rec.Body)
	if trailer.Jobs != 4 || trailer.Errors != 0 {
		t.Fatalf("trailer=%+v, want jobs=4 errors=0", trailer)
	}
	got := cellsByIndex(t, recs, 4)

	// Single-backend reference: the same sweep against one dvsd.
	ref, refURL := startBackend(t)
	_ = ref
	resp, err := http.Post(refURL+"/sweep", "application/json", strings.NewReader(sweepGrid))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	refRecs, _ := parseNDJSON(t, &buf)
	want := cellsByIndex(t, refRecs, 4)
	for i := 0; i < 4; i++ {
		if got[i] != want[i] {
			t.Fatalf("cell %d differs from single-backend run:\ngot  %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestSweepCacheAffinity: repeating a sweep must route every cell back
// to the backend that simulated it — the whole second pass is served
// from backend caches, and no cell was simulated twice anywhere.
func TestSweepCacheAffinity(t *testing.T) {
	sA, urlA := startBackend(t)
	sB, urlB := startBackend(t)
	g := newGateway(t, Options{Peers: []string{urlA, urlB}})

	if rec := postGW(g, "/sweep", sweepGrid); rec.Code != http.StatusOK {
		t.Fatalf("first sweep: status=%d", rec.Code)
	}
	rec := postGW(g, "/sweep", sweepGrid)
	if rec.Code != http.StatusOK {
		t.Fatalf("second sweep: status=%d", rec.Code)
	}
	_, trailer := parseNDJSON(t, rec.Body)
	if trailer.CachedCells != 4 {
		t.Fatalf("second sweep cached %d/4 cells; affinity routing broken (trailer=%+v)",
			trailer.CachedCells, trailer)
	}
	runs := sA.Runner().Stats().Runs + sB.Runner().Stats().Runs
	if runs != 4 {
		t.Fatalf("backends simulated %d cells for 4 distinct jobs; placement not stable", runs)
	}
	if g.met.local.Load() != 0 {
		t.Fatalf("healthy fleet fell back to local execution %d times", g.met.local.Load())
	}
}

// sweepCells expands sweepGrid the way the gateway does, for tests that
// need the cells' placement keys or a Job to run directly.
func sweepCells(t *testing.T) []sweep.Cell {
	t.Helper()
	var req server.SweepRequest
	if err := json.Unmarshal([]byte(sweepGrid), &req); err != nil {
		t.Fatal(err)
	}
	plan, err := req.Plan(64)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Cells()
}

// gatewayWithDeadHome builds a gateway over one dead peer plus urlLive,
// re-rolling the dead peer's port until at least one sweepGrid cell
// homes on it. Ring placement hashes the backend URL, so a single roll
// is only a 15-in-16 bet that any of the grid's four cells routes to
// the dead backend — re-rolling makes failover tests deterministic.
func gatewayWithDeadHome(t *testing.T, urlLive string, opts Options) *Gateway {
	t.Helper()
	cells := sweepCells(t)
	for try := 0; ; try++ {
		if try > 64 {
			t.Fatal("no dead port owned a grid cell after 64 rolls")
		}
		dead := deadURL(t)
		opts.Peers = []string{dead, urlLive}
		g := newGateway(t, opts)
		for _, c := range cells {
			if ord := g.pool.order(c.Key); len(ord) > 0 && ord[0].url == dead {
				return g
			}
		}
	}
}

// deadURL reserves a port and closes it: connections are refused fast.
func deadURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	u := "http://" + ln.Addr().String()
	ln.Close()
	return u
}

// TestFailoverDeadBackend: with one dead peer, every cell still
// completes via ring failover, the dead backend is ejected by data-path
// feedback, and the retries are visible in metrics.
func TestFailoverDeadBackend(t *testing.T) {
	_, urlLive := startBackend(t)
	g := gatewayWithDeadHome(t, urlLive, Options{})

	rec := postGW(g, "/sweep", sweepGrid)
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d", rec.Code)
	}
	recs, trailer := parseNDJSON(t, rec.Body)
	if trailer.Errors != 0 || trailer.Jobs != 4 {
		t.Fatalf("trailer=%+v, want jobs=4 errors=0", trailer)
	}
	cellsByIndex(t, recs, 4)
	if g.met.retried.Load() == 0 {
		t.Fatal("failover left no retry trace in metrics")
	}
	metrics := getGW(g, "/metrics").Body.String()
	if !strings.Contains(metrics, "dvsgw_requests_retried_total") {
		t.Fatalf("metrics missing retried counter:\n%s", metrics)
	}
}

// TestAllBackendsDownLocalFallback is the degradation floor: zero
// serviceable backends must degrade to in-process execution, not
// failure.
func TestAllBackendsDownLocalFallback(t *testing.T) {
	g := newGateway(t, Options{
		Peers:       []string{deadURL(t), deadURL(t)},
		MaxAttempts: 2,
		FailAfter:   1, // eject on first refused connection
	})
	rec := postGW(g, "/sweep", sweepGrid)
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d", rec.Code)
	}
	recs, trailer := parseNDJSON(t, rec.Body)
	if trailer.Errors != 0 || trailer.Jobs != 4 {
		t.Fatalf("trailer=%+v, want jobs=4 errors=0", trailer)
	}
	cellsByIndex(t, recs, 4)
	if got := g.met.local.Load(); got != 4 {
		t.Fatalf("local fallback served %d cells, want 4", got)
	}
	if live := g.pool.live(); live != 0 {
		t.Fatalf("%d dead backends still admitted", live)
	}
}

const simFTS2 = `{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"external","freq_mhz":600}}`

// TestShedBackpressure: a backend 429 is backpressure, not failure — the
// gateway waits out the hint and re-asks the same backend instead of
// burning a failover attempt or ejecting it.
func TestShedBackpressure(t *testing.T) {
	s := server.New(server.Options{Runner: runner.New(2)})
	var sheds atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/simulate" && sheds.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"queue_full","message":"full","retry_after_ms":1}}`))
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	g := newGateway(t, Options{Peers: []string{ts.URL}})
	rec := postGW(g, "/simulate", simFTS2)
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d body=%s", rec.Code, rec.Body.String())
	}
	if got := g.met.shedWait.Load(); got != 2 {
		t.Fatalf("shed waits=%d, want 2", got)
	}
	if got := g.met.retried.Load(); got != 0 {
		t.Fatalf("shed waits consumed %d retry attempts; backpressure must not burn the failover budget", got)
	}
	if g.pool.live() != 1 {
		t.Fatal("shedding backend was ejected")
	}
}

// fakeResponse builds a wire-shaped /simulate success body whose result
// name identifies the backend that served it.
func fakeResponse(name string) string {
	resp := sweep.SimulateResponse{Result: sweep.ResultJSON{Name: name, Strategy: "600"}}
	b, _ := json.Marshal(resp)
	return string(b)
}

// TestHedgedRequestWinsOnStraggler: with hedging enabled, a straggling
// home backend is raced by its ring successor and the fast answer wins.
func TestHedgedRequestWinsOnStraggler(t *testing.T) {
	// Two switchable fake backends; which one is "home" for the cell
	// depends on their ephemeral URLs, so wire the slow handler to
	// whichever the ring picks first.
	mk := func() (*httptest.Server, *atomic.Pointer[http.HandlerFunc]) {
		var h atomic.Pointer[http.HandlerFunc]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*h.Load())(w, r)
		}))
		return ts, &h
	}
	tsA, hA := mk()
	defer tsA.Close()
	tsB, hB := mk()
	defer tsB.Close()

	g := newGateway(t, Options{Peers: []string{tsA.URL, tsB.URL}, HedgeAfter: 10 * time.Millisecond})

	var req server.SimulateRequest
	if err := json.Unmarshal([]byte(simFTS2), &req); err != nil {
		t.Fatal(err)
	}
	cell, err := req.JobSpec.Cell()
	if err != nil {
		t.Fatal(err)
	}
	home := g.pool.order(cell.Key)[0].url

	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
		w.Write([]byte(fakeResponse("slow")))
	})
	fast := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(fakeResponse("fast")))
	})
	if home == tsA.URL {
		hA.Store(&slow)
		hB.Store(&fast)
	} else {
		hA.Store(&fast)
		hB.Store(&slow)
	}

	start := time.Now()
	rec := postGW(g, "/simulate", simFTS2)
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d body=%s", rec.Code, rec.Body.String())
	}
	var resp sweep.SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.Name != "fast" {
		t.Fatalf("served by %q, want the hedge winner", resp.Result.Name)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge did not cut straggler latency: %v", elapsed)
	}
	if g.met.hedged.Load() != 1 {
		t.Fatalf("hedged=%d, want 1", g.met.hedged.Load())
	}
}

// TestGatewayValidationParity: the gateway rejects malformed requests
// with the same typed errors and field paths as a backend, without
// contacting any backend.
func TestGatewayValidationParity(t *testing.T) {
	_, url := startBackend(t)
	g := newGateway(t, Options{Peers: []string{url}})

	body := `{"jobs":[` + simFTS2 + `,{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"external","freq_mhz":700}}]}`
	rec := postGW(g, "/sweep", body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status=%d", rec.Code)
	}
	var env struct {
		Error *sweep.APIError `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("not an error envelope: %s", rec.Body.String())
	}
	if env.Error.Code != sweep.CodeInvalidStrategy || env.Error.Field != "jobs[1].strategy.freq_mhz" {
		t.Fatalf("error=%+v, want invalid_strategy at jobs[1].strategy.freq_mhz", env.Error)
	}
	if got := g.pool.backends[0].requests.Load(); got != 0 {
		t.Fatalf("invalid request reached a backend %d times", got)
	}
}

// TestGatewaySimulatePassthrough: a /simulate through the gateway is
// byte-identical to the backend's own response.
func TestGatewaySimulatePassthrough(t *testing.T) {
	_, url := startBackend(t)
	g := newGateway(t, Options{Peers: []string{url}})

	direct, err := http.Post(url+"/simulate", "application/json", strings.NewReader(simFTS2))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Body.Close()
	var want bytes.Buffer
	if _, err := want.ReadFrom(direct.Body); err != nil {
		t.Fatal(err)
	}

	rec := postGW(g, "/simulate", simFTS2)
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d body=%s", rec.Code, rec.Body.String())
	}
	// The backend has now seen the job once, so the gateway's answer is
	// the cached variant of the same result.
	var viaGW, ref sweep.SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &viaGW); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	if !viaGW.Cached {
		t.Fatal("repeat of a backend-warm cell not served from its cache")
	}
	if viaGW.Result != ref.Result {
		t.Fatalf("result differs through gateway:\ngot  %+v\nwant %+v", viaGW.Result, ref.Result)
	}
}

// TestGatewayHealthzAndMetrics checks the surface contract: healthz
// reports fleet state, metrics exposes the per-backend series.
func TestGatewayHealthzAndMetrics(t *testing.T) {
	_, urlA := startBackend(t)
	g := newGateway(t, Options{Peers: []string{urlA, deadURL(t)}, FailAfter: 1})
	g.pool.probeAll()

	rec := getGW(g, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status=%d", rec.Code)
	}
	var h struct {
		Status        string `json:"status"`
		BackendsLive  int    `json:"backends_live"`
		BackendsTotal int    `json:"backends_total"`
		QueueDepth    int    `json:"queue_depth"`
		QueueCapacity int    `json:"queue_capacity"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.BackendsLive != 1 || h.BackendsTotal != 2 || h.QueueCapacity != 8 {
		t.Fatalf("healthz=%+v", h)
	}

	if rec := postGW(g, "/simulate", simFTS2); rec.Code != http.StatusOK {
		t.Fatalf("simulate status=%d", rec.Code)
	}
	body := getGW(g, "/metrics").Body.String()
	for _, want := range []string{
		`dvsgw_requests_total{path="/simulate",status="200"} 1`,
		`dvsgw_backend_up{backend="` + urlA + `"} 1`,
		`dvsgw_backend_requests_total{backend="` + urlA + `"} 1`,
		`dvsgw_backend_probes_total{backend="` + urlA + `"} 1`,
		`dvsgw_backend_cell_seconds_count{backend="` + urlA + `"} 1`,
		"dvsgw_requests_retried_total 0",
		"dvsgw_hedged_requests_total 0",
		"dvsgw_local_fallback_cells_total 0",
		"dvsgw_queue_depth 0",
		"dvsgw_queue_capacity 8",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "dvsgw_backend_up{backend=\"http://127.0.0.1:") ||
		!strings.Contains(body, "\"} 0") {
		t.Fatalf("dead backend not visible as down:\n%s", body)
	}
}

// TestGatewayMethodNotAllowed mirrors the backend's verb contract.
func TestGatewayMethodNotAllowed(t *testing.T) {
	_, url := startBackend(t)
	g := newGateway(t, Options{Peers: []string{url}})
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/simulate"},
		{http.MethodGet, "/sweep"},
		{http.MethodPost, "/healthz"},
		{http.MethodPost, "/metrics"},
	} {
		req := httptest.NewRequest(c.method, c.path, nil)
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status=%d want 405", c.method, c.path, rec.Code)
		}
	}
}

// TestGatewayShutdownWithoutServe must not hang: the probe loop never
// started, so there is nothing to stop.
func TestGatewayShutdownWithoutServe(t *testing.T) {
	_, url := startBackend(t)
	g := newGateway(t, Options{Peers: []string{url}})
	done := make(chan error, 1)
	go func() { done <- g.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hung without a running probe loop")
	}
}

// TestBackoffClampLargeRetries: the delay before retry n is Backoff·2ⁿ⁻¹
// capped at 5s plus ≤50% jitter. A user-set -retries 64 reaches shift
// widths where the naive Backoff<<(n-1) wraps negative, sails under the
// cap check, and panics inside rand.Int63n — this walks every attempt a
// 64-retry gateway can make and pins the clamp.
func TestBackoffClampLargeRetries(t *testing.T) {
	g := newGateway(t, Options{Peers: testURLs(1), Backoff: 50 * time.Millisecond, MaxAttempts: 64})
	for n := 1; n <= 64; n++ {
		d := g.backoff(n)
		if d <= 0 || d > 7500*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want in (0, 7.5s]", n, d)
		}
	}
}

// TestShedBudgetNoDeadline: a permanently saturated backend answers
// every attempt with 429 queue_full. Backpressure waits don't burn
// failover attempts, so without a request deadline the old loop span
// forever. ShedBudget bounds the cumulative wait; once spent, sheds are
// charged to the attempt budget and the cell degrades to local
// execution.
func TestShedBudgetNoDeadline(t *testing.T) {
	var sheds atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sheds.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"queue_full","message":"saturated","retry_after_ms":5}}`))
	}))
	defer ts.Close()

	g := newGateway(t, Options{
		Peers:       []string{ts.URL},
		ShedBudget:  20 * time.Millisecond,
		MaxAttempts: 2,
	})
	cells := sweepCells(t)

	done := make(chan sweep.Outcome, 1)
	go func() { done <- g.runCell(context.Background(), cells[0]) }()
	var out sweep.Outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadline-less cell stuck in the shed loop; ShedBudget not applied")
	}
	if out.Err != nil {
		t.Fatalf("cell failed instead of degrading to local: %v", out.Err)
	}
	if out.Raw == nil {
		t.Fatal("local rung dropped the full-fidelity result")
	}
	if g.met.local.Load() != 1 {
		t.Fatalf("local fallback ran %d times, want 1", g.met.local.Load())
	}
	// 20ms budget at 5ms per hinted wait honors four sheds for free;
	// the two attempt-charged sheds after that exhaust MaxAttempts.
	if n := sheds.Load(); n < 5 || n > 8 {
		t.Fatalf("backend shed %d times, want 5..8 (budget then attempts)", n)
	}
	if g.met.shedWait.Load() == 0 {
		t.Fatal("shed waits not counted in metrics")
	}
}

// TestGatewayRequestLatencyHistogram: the gateway shares dvsd's request
// instrumentation, so each path's latency histogram is on /metrics after
// one request.
func TestGatewayRequestLatencyHistogram(t *testing.T) {
	_, url := startBackend(t)
	g := newGateway(t, Options{Peers: []string{url}})
	if rec := postGW(g, "/sweep", sweepGrid); rec.Code != http.StatusOK {
		t.Fatalf("sweep status=%d", rec.Code)
	}
	if rec := postGW(g, "/simulate", simFTS2); rec.Code != http.StatusOK {
		t.Fatalf("simulate status=%d", rec.Code)
	}
	body := getGW(g, "/metrics").Body.String()
	for _, want := range []string{
		`dvsgw_request_seconds_count{path="/sweep"} 1`,
		`dvsgw_request_seconds_bucket{path="/simulate",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// stallMidBody answers /simulate with a 200 and the start of a body,
// flushes it, then holds the body open until the client gives up.
// headersOut, when non-nil, closes once the headers are on the wire.
func stallMidBody(calls *atomic.Int64, headersOut chan struct{}) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"cached":false,"result":{"na`))
		w.(http.Flusher).Flush()
		if headersOut != nil {
			close(headersOut)
		}
		<-r.Context().Done()
	}
}

// TestCellCanceledMidBodyDoesNotRetry: a cell whose own context is
// canceled after the backend sent its headers ends canceled, with one
// backend request and no retry: the cut body is not a backend failure,
// so nothing is counted, backed off or failed over.
func TestCellCanceledMidBodyDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	headersOut := make(chan struct{})
	ts := httptest.NewServer(stallMidBody(&calls, headersOut))
	defer ts.Close()
	g := newGateway(t, Options{Peers: []string{ts.URL}, MaxAttempts: 5})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-headersOut
		cancel()
	}()
	out := g.Place(ctx, 0, sweepCells(t)[0])
	if out.Err == nil || out.Err.Code != sweep.CodeCanceled {
		t.Fatalf("out = %+v, want canceled", out)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend requests = %d; a canceled cell must not burn retries", got)
	}
	if got := g.met.retried.Load(); got != 0 {
		t.Fatalf("retried = %d; no retry followed the cancellation", got)
	}
	if got := g.met.local.Load(); got != 0 {
		t.Fatalf("local = %d; a canceled cell must not fall back", got)
	}
	// A cell placed under an already-canceled context sends nothing.
	if out := g.Place(ctx, 1, sweepCells(t)[1]); out.Err == nil || out.Err.Code != sweep.CodeCanceled {
		t.Fatalf("pre-canceled out = %+v, want canceled", out)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend requests = %d after a pre-canceled cell", got)
	}
}

// TestCellDeadlineMidBodyClassifiesDeadline: the same stall ended by the
// cell's deadline surfaces deadline_exceeded, not canceled and not a
// local fallback.
func TestCellDeadlineMidBodyClassifiesDeadline(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(stallMidBody(&calls, nil))
	defer ts.Close()
	g := newGateway(t, Options{Peers: []string{ts.URL}, MaxAttempts: 5})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	out := g.Place(ctx, 0, sweepCells(t)[0])
	if out.Err == nil || out.Err.Code != sweep.CodeDeadlineExceeded {
		t.Fatalf("out = %+v, want deadline_exceeded", out)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend requests = %d; an expired deadline must not burn retries", got)
	}
	if got := g.met.retried.Load(); got != 0 {
		t.Fatalf("retried = %d after a deadline", got)
	}
}

// TestCellRelaysTypedRejection: a backend's typed sim_failed envelope is
// deterministic, so the gateway relays it after one request: no retry,
// no failover, no local re-run.
func TestCellRelaysTypedRejection(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"code":"sim_failed","message":"rank 1 deadlocked"}}`))
	}))
	defer ts.Close()
	g := newGateway(t, Options{Peers: []string{ts.URL}})

	rec := postGW(g, "/simulate", simFTS2)
	var env struct{ Error *sweep.APIError }
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("status=%d body=%s, want a typed error", rec.Code, rec.Body.String())
	}
	if env.Error.Code != sweep.CodeSimFailed || env.Error.Message != "rank 1 deadlocked" {
		t.Fatalf("relayed %+v, want the backend's sim_failed", env.Error)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend requests = %d; deterministic rejections must not retry", got)
	}
	if c := g.Counters(); c.Retried != 0 || c.Local != 0 {
		t.Fatalf("counters = %+v; a relayed rejection neither retries nor falls back", c)
	}
}

// TestBodilessCellRunsLocally: a cell without a wire spec cannot be
// forwarded, so the ladder runs it on the local rung straight away and
// keeps its full-fidelity result.
func TestBodilessCellRunsLocally(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Write([]byte(fakeResponse("remote")))
	}))
	defer ts.Close()
	g := newGateway(t, Options{Peers: []string{ts.URL}})

	c := sweepCells(t)[0]
	c.Spec = nil
	out := g.Place(context.Background(), 0, c)
	if out.Err != nil || out.Raw == nil || out.Wire != nil {
		t.Fatalf("out = %+v, want a local full-fidelity result", out)
	}
	if calls.Load() != 0 || g.met.local.Load() != 1 {
		t.Fatalf("backend requests = %d, local = %d; want 0 and 1", calls.Load(), g.met.local.Load())
	}
}
