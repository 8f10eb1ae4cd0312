package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/sweep"
)

// testServer returns a small, fast service instance.
func testServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Runner == nil {
		opts.Runner = runner.New(2)
	}
	return New(opts)
}

// post runs one POST through the handler and returns the recorder.
func post(s *Server, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// errEnvelope decodes the typed error envelope.
func errEnvelope(t *testing.T, rec *httptest.ResponseRecorder) *sweep.APIError {
	t.Helper()
	var env struct {
		Error *sweep.APIError `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v\n%s", err, rec.Body.String())
	}
	if env.Error == nil {
		t.Fatalf("error envelope missing: %s", rec.Body.String())
	}
	return env.Error
}

const simFTS2 = `{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"external","freq_mhz":600}}`

func TestSimulateOKThenCached(t *testing.T) {
	s := testServer(t, Options{})
	rec := post(s, "/simulate", simFTS2)
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d body=%s", rec.Code, rec.Body.String())
	}
	var resp sweep.SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("first request must not be served from cache")
	}
	if resp.Result.Name != "FT.S.2" || resp.Result.Strategy != "600" {
		t.Fatalf("wrong identity: %+v", resp.Result)
	}
	if resp.Result.EnergyJ <= 0 || resp.Result.ElapsedSec <= 0 {
		t.Fatalf("implausible measurements: %+v", resp.Result)
	}

	rec2 := post(s, "/simulate", simFTS2)
	if rec2.Code != http.StatusOK {
		t.Fatalf("repeat status=%d", rec2.Code)
	}
	var resp2 sweep.SimulateResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Fatal("identical repeat request must be served from the memo cache")
	}
	if resp2.Result != resp.Result {
		t.Fatalf("cached result differs:\n%+v\n%+v", resp.Result, resp2.Result)
	}
	if st := s.Runner().Stats(); st.Runs != 1 || st.Hits != 1 {
		t.Fatalf("runs=%d hits=%d, want 1/1", st.Runs, st.Hits)
	}
}

func TestSimulateValidation(t *testing.T) {
	s := testServer(t, Options{})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
		field  string // substring match; "" skips
	}{
		{"malformed json", `{`, 400, sweep.CodeBadRequest, ""},
		{"unknown field", `{"bogus":1}`, 400, sweep.CodeBadRequest, ""},
		{"missing code", `{"workload":{},"strategy":{"kind":"nodvs"}}`, 400, sweep.CodeInvalidWorkload, "workload.code"},
		{"bad class", `{"workload":{"code":"FT","class":"Z"},"strategy":{"kind":"nodvs"}}`, 400, sweep.CodeInvalidWorkload, "workload.class"},
		{"unknown benchmark", `{"workload":{"code":"ZZ"},"strategy":{"kind":"nodvs"}}`, 400, sweep.CodeInvalidWorkload, "workload"},
		{"negative ranks", `{"workload":{"code":"FT","ranks":-4},"strategy":{"kind":"nodvs"}}`, 400, sweep.CodeInvalidWorkload, "workload.ranks"},
		{"internal on EP", `{"workload":{"code":"EP","variant":"internal"},"strategy":{"kind":"nodvs"}}`, 400, sweep.CodeInvalidWorkload, "workload.variant"},
		{"unknown variant", `{"workload":{"code":"FT","variant":"turbo"},"strategy":{"kind":"nodvs"}}`, 400, sweep.CodeInvalidWorkload, "workload.variant"},
		{"missing kind", `{"workload":{"code":"FT","class":"S"},"strategy":{}}`, 400, sweep.CodeInvalidStrategy, "strategy.kind"},
		{"unknown kind", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"warp"}}`, 400, sweep.CodeInvalidStrategy, "strategy.kind"},
		{"external no freq", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"external"}}`, 400, sweep.CodeInvalidStrategy, "strategy.freq_mhz"},
		{"external off-table freq", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"external","freq_mhz":700}}`, 400, sweep.CodeInvalidStrategy, "strategy.freq_mhz"},
		{"per-node bad key", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"external-per-node","per_node":{"x":600}}}`, 400, sweep.CodeInvalidStrategy, "strategy.per_node"},
		{"per-node off-table", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"external-per-node","per_node":{"0":611}}}`, 400, sweep.CodeInvalidStrategy, "strategy.per_node[0]"},
		{"per-node key past ranks", `{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"external-per-node","per_node":{"99":600}}}`, 400, sweep.CodeInvalidStrategy, "strategy.per_node"},
		{"per-node key at ranks", `{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"external-per-node","per_node":{"0":600,"2":600}}}`, 400, sweep.CodeInvalidStrategy, "strategy.per_node"},
		{"daemon bad preset", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"daemon","preset":"v9"}}`, 400, sweep.CodeInvalidStrategy, "strategy.preset"},
		{"daemon bad interval", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"daemon","interval_ms":-5}}`, 400, sweep.CodeInvalidStrategy, "strategy.interval_ms"},
		{"interval below floor", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"daemon","interval_ms":0.0001}}`, 400, sweep.CodeInvalidStrategy, "strategy.interval_ms"},
		{"powercap no budget", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"powercap"}}`, 400, sweep.CodeInvalidStrategy, "strategy.budget_watts"},
		{"config bad wait frac", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"nodvs"},"config":{"wait_busy_frac":2}}`, 400, sweep.CodeInvalidConfig, "config.wait_busy_frac"},
		{"config bad loss rate", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"nodvs"},"config":{"net_loss_rate":1.5}}`, 400, sweep.CodeInvalidConfig, "config.net_loss_rate"},
		{"config bad bandwidth", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"nodvs"},"config":{"net_bandwidth_bps":-1}}`, 400, sweep.CodeInvalidConfig, "config.net_bandwidth_bps"},
		{"config net latency past duration range", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"nodvs"},"config":{"net_latency_us":1e16}}`, 400, sweep.CodeInvalidConfig, "config.net_latency_us"},
		{"config transition latency past duration range", `{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"nodvs"},"config":{"transition_latency_us":1e16}}`, 400, sweep.CodeInvalidConfig, "config.transition_latency_us"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(s, "/simulate", tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status=%d want %d; body=%s", rec.Code, tc.status, rec.Body.String())
			}
			ae := errEnvelope(t, rec)
			if ae.Code != tc.code {
				t.Fatalf("code=%q want %q (%s)", ae.Code, tc.code, ae.Message)
			}
			if tc.field != "" && !strings.Contains(ae.Field, tc.field) {
				t.Fatalf("field=%q does not mention %q", ae.Field, tc.field)
			}
		})
	}
	if st := s.Runner().Stats(); st.Runs != 0 {
		t.Fatalf("invalid requests ran %d simulations", st.Runs)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t, Options{})
	for _, c := range []struct {
		method, path string
	}{
		{http.MethodGet, "/simulate"},
		{http.MethodGet, "/sweep"},
		{http.MethodPost, "/healthz"},
		{http.MethodPost, "/metrics"},
	} {
		req := httptest.NewRequest(c.method, c.path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status=%d want 405", c.method, c.path, rec.Code)
		}
		if ae := errEnvelope(t, rec); ae.Code != sweep.CodeMethodNotAllowed {
			t.Fatalf("%s %s: code=%q", c.method, c.path, ae.Code)
		}
	}
}

// TestQueueFullSheds asserts deterministic load shedding: with the
// admission gate saturated, both endpoints return 429 with Retry-After,
// and admission recovers once a slot frees.
func TestQueueFullSheds(t *testing.T) {
	s := testServer(t, Options{MaxInflight: 2})
	if !s.gate.tryAcquire() || !s.gate.tryAcquire() {
		t.Fatal("could not saturate the gate")
	}
	for _, path := range []string{"/simulate", "/sweep"} {
		body := simFTS2
		if path == "/sweep" {
			body = `{"jobs":[` + simFTS2 + `]}`
		}
		rec := post(s, path, body)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s: status=%d want 429", path, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != "1" {
			t.Fatalf("%s: Retry-After=%q want \"1\"", path, got)
		}
		ae := errEnvelope(t, rec)
		if ae.Code != sweep.CodeQueueFull || ae.RetryAfterMS != 1000 {
			t.Fatalf("%s: error=%+v", path, ae)
		}
	}
	if st := s.Runner().Stats(); st.Runs != 0 {
		t.Fatalf("shed requests ran %d simulations", st.Runs)
	}
	s.gate.release()
	if rec := post(s, "/simulate", simFTS2); rec.Code != http.StatusOK {
		t.Fatalf("after release: status=%d body=%s", rec.Code, rec.Body.String())
	}
	s.gate.release()
	if d := s.gate.depth(); d != 0 {
		t.Fatalf("gate depth=%d after all releases, want 0", d)
	}
}

// TestSimulateDeadlineExpired uses a timeout so small it truncates to a
// zero-duration context deadline, which context.WithTimeout cancels
// synchronously — the simulation must be skipped and the typed 504
// returned, with no run charged to the engine. A timeout past
// time.Duration's range is clamped to the maximum, not wrapped into an
// expired deadline: that cell runs.
func TestSimulateDeadlineExpired(t *testing.T) {
	for _, c := range []struct {
		timeoutMS string
		status    int
		runs      int
	}{
		{"1e-9", http.StatusGatewayTimeout, 0},
		{"1e13", http.StatusOK, 1},
	} {
		t.Run(c.timeoutMS, func(t *testing.T) {
			s := testServer(t, Options{})
			body := `{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"nodvs"},"timeout_ms":` + c.timeoutMS + `}`
			rec := post(s, "/simulate", body)
			if rec.Code != c.status {
				t.Fatalf("status=%d want %d; body=%s", rec.Code, c.status, rec.Body.String())
			}
			if c.status == http.StatusGatewayTimeout {
				if ae := errEnvelope(t, rec); ae.Code != sweep.CodeDeadlineExceeded {
					t.Fatalf("code=%q want %q", ae.Code, sweep.CodeDeadlineExceeded)
				}
			}
			if st := s.Runner().Stats(); st.Runs != c.runs {
				t.Fatalf("ran %d simulations, want %d", st.Runs, c.runs)
			}
		})
	}
}

// TestSimulateClientGone simulates an abandoned connection: the request
// context is already cancelled, so the job must be skipped.
func TestSimulateClientGone(t *testing.T) {
	s := testServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/simulate", strings.NewReader(simFTS2)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != sweep.StatusClientClosed {
		t.Fatalf("status=%d want %d", rec.Code, sweep.StatusClientClosed)
	}
	if ae := errEnvelope(t, rec); ae.Code != sweep.CodeCanceled {
		t.Fatalf("code=%q want %q", ae.Code, sweep.CodeCanceled)
	}
	if st := s.Runner().Stats(); st.Runs != 0 {
		t.Fatalf("abandoned request still ran %d simulations", st.Runs)
	}
}

// rawRecord is the test-side NDJSON line shape: result kept raw for
// byte-level comparison against the serial reference.
type rawRecord struct {
	Index  int             `json:"index"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  *sweep.APIError `json:"error"`
	// trailer fields
	Done   bool `json:"done"`
	Jobs   int  `json:"jobs"`
	Errors int  `json:"errors"`
}

// parseNDJSON splits a sweep response into cell records and the trailer.
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

// TestSweepGridNDJSON checks framing and content of a streamed grid
// sweep: every cell exactly once, trailer counts correct, and each cell
// byte-identical to the serial core.Run reference.
func TestSweepGridNDJSON(t *testing.T) {
	s := testServer(t, Options{Runner: runner.New(4)})
	body := `{"workloads":[{"code":"FT","class":"S","ranks":2}],
	          "strategies":[{"kind":"nodvs"},{"kind":"external","freq_mhz":600},
	                        {"kind":"external","freq_mhz":800},{"kind":"daemon"}]}`
	rec := post(s, "/sweep", body)
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
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}

	// Serial reference through the same wire encoder.
	w, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	strats := []core.Strategy{core.NoDVS(), core.External(600), core.External(800), jobDaemonDefault()}
	want := make([][]byte, len(strats))
	for i, strat := range strats {
		res, err := core.Run(w, strat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(sweep.ToResultJSON(res))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}
	seen := map[int]bool{}
	for _, r := range recs {
		if r.Error != nil {
			t.Fatalf("cell %d failed: %+v", r.Index, r.Error)
		}
		if seen[r.Index] {
			t.Fatalf("cell %d streamed twice", r.Index)
		}
		seen[r.Index] = true
		if r.Index < 0 || r.Index >= len(want) {
			t.Fatalf("cell index %d out of range", r.Index)
		}
		if !bytes.Equal(r.Result, want[r.Index]) {
			t.Fatalf("cell %d differs from serial reference:\ngot  %s\nwant %s",
				r.Index, r.Result, want[r.Index])
		}
	}
}

// jobDaemonDefault decodes StrategySpec{Kind: "daemon"} the way a request does.
func jobDaemonDefault() core.Strategy {
	strat, err := core.DecodeStrategy(StrategySpec{Kind: "daemon"}, core.DefaultConfig().Node.Table, 8)
	if err != nil {
		panic(err)
	}
	return strat
}

func TestSweepShapeValidation(t *testing.T) {
	s := testServer(t, Options{MaxJobs: 2})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
		field  string // exact match; "" skips
	}{
		{"empty", `{}`, 400, sweep.CodeInvalidSweep, ""},
		{"both forms", `{"jobs":[` + simFTS2 + `],"workloads":[{"code":"FT"}],"strategies":[{"kind":"nodvs"}]}`, 400, sweep.CodeInvalidSweep, ""},
		{"grid missing strategies", `{"workloads":[{"code":"FT"}]}`, 400, sweep.CodeInvalidSweep, ""},
		{"config on explicit jobs", `{"jobs":[` + simFTS2 + `],"config":{"spin_wait":true}}`, 400, sweep.CodeInvalidSweep, ""},
		{"too many explicit", `{"jobs":[` + simFTS2 + `,` + simFTS2 + `,` + simFTS2 + `]}`, http.StatusRequestEntityTooLarge, sweep.CodeTooManyJobs, ""},
		{"too large grid", `{"workloads":[{"code":"FT","class":"S"}],"strategies":[{"kind":"nodvs"},{"kind":"daemon"},{"kind":"ondemand"}]}`, http.StatusRequestEntityTooLarge, sweep.CodeTooManyJobs, ""},
		{"bad nested job", `{"jobs":[{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"external"}}]}`, 400, sweep.CodeInvalidStrategy, "jobs[0].strategy.freq_mhz"},
		{"job per-node key past ranks", `{"jobs":[{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"external-per-node","per_node":{"99":600}}}]}`, 400, sweep.CodeInvalidStrategy, "jobs[0].strategy.per_node"},
		{"grid bad workload", `{"workloads":[{"code":"FT","class":"S"},{"code":"ZZ"}],"strategies":[{"kind":"nodvs"}]}`, 400, sweep.CodeInvalidWorkload, "workloads[1].code"},
		{"grid per-node key past ranks", `{"workloads":[{"code":"FT","class":"S","ranks":2}],"strategies":[{"kind":"nodvs"},{"kind":"external-per-node","per_node":{"2":600}}]}`, 400, sweep.CodeInvalidStrategy, "strategies[1].per_node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(s, "/sweep", tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status=%d want %d; body=%s", rec.Code, tc.status, rec.Body.String())
			}
			ae := errEnvelope(t, rec)
			if ae.Code != tc.code {
				t.Fatalf("code=%q want %q (%s)", ae.Code, tc.code, ae.Message)
			}
			if tc.field != "" && ae.Field != tc.field {
				t.Fatalf("field=%q want %q", ae.Field, tc.field)
			}
		})
	}
}

// TestSweepNestedFieldPath pins the dotted re-rooted field form for
// errors inside an explicit job list.
func TestSweepNestedFieldPath(t *testing.T) {
	s := testServer(t, Options{})
	body := `{"jobs":[` + simFTS2 + `,{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"external","freq_mhz":700}}]}`
	rec := post(s, "/sweep", body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status=%d", rec.Code)
	}
	ae := errEnvelope(t, rec)
	if ae.Field != "jobs[1].strategy.freq_mhz" {
		t.Fatalf("field=%q want jobs[1].strategy.freq_mhz", ae.Field)
	}
}

// TestSweepClientGone: a sweep whose client vanished before it started
// streams one typed error record per cell and a trailer counting them —
// and burns zero simulations.
func TestSweepClientGone(t *testing.T) {
	s := testServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := `{"workloads":[{"code":"FT","class":"S","ranks":2}],
	          "strategies":[{"kind":"nodvs"},{"kind":"external","freq_mhz":600}]}`
	req := httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK { // status was committed before cancellation is observed
		t.Fatalf("status=%d", rec.Code)
	}
	recs, trailer := parseNDJSON(t, rec.Body)
	if trailer.Errors != 2 || trailer.Jobs != 2 {
		t.Fatalf("trailer=%+v, want jobs=2 errors=2", trailer)
	}
	for _, r := range recs {
		if r.Error == nil || r.Error.Code != sweep.CodeCanceled {
			t.Fatalf("record %d: %+v, want canceled error", r.Index, r.Error)
		}
	}
	if st := s.Runner().Stats(); st.Runs != 0 {
		t.Fatalf("abandoned sweep still ran %d simulations", st.Runs)
	}
}

func TestHealthz(t *testing.T) {
	s := testServer(t, Options{})
	rec := get(s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d", rec.Code)
	}
	var h struct {
		Status        string `json:"status"`
		QueueDepth    int    `json:"queue_depth"`
		QueueCapacity int    `json:"queue_capacity"`
		Workers       int    `json:"workers"`
		CacheEntries  int    `json:"cache_entries"`
		CacheBytes    int64  `json:"cache_bytes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.QueueCapacity != 8 || h.Workers != s.Runner().Workers() {
		t.Fatalf("healthz=%+v", h)
	}
	if h.CacheEntries != 0 || h.CacheBytes != 0 {
		t.Fatalf("cold cache reports occupancy: %+v", h)
	}
	if rec := post(s, "/simulate", simFTS2); rec.Code != http.StatusOK {
		t.Fatalf("simulate: status=%d", rec.Code)
	}
	rec = get(s, "/healthz")
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.CacheEntries != 1 || h.CacheBytes <= 0 {
		t.Fatalf("warm cache not visible in healthz: %+v", h)
	}
}

// TestMetrics asserts the acceptance-criteria wiring: after an identical
// repeated /simulate, the cache hit is visible in /metrics, alongside
// request counters, the latency histogram, and queue gauges; after an
// identical repeated /sweep, so is the reused plan.
func TestMetrics(t *testing.T) {
	s := testServer(t, Options{})
	for i := 0; i < 2; i++ {
		if rec := post(s, "/simulate", simFTS2); rec.Code != http.StatusOK {
			t.Fatalf("simulate %d: status=%d", i, rec.Code)
		}
	}
	post(s, "/simulate", `{`) // one 400 for the counter

	rec := get(s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`dvsd_requests_total{path="/simulate",status="200"} 2`,
		`dvsd_requests_total{path="/simulate",status="400"} 1`,
		`dvsd_request_seconds_bucket{path="/simulate",le="+Inf"} 3`,
		`dvsd_request_seconds_count{path="/simulate"} 3`,
		"dvsd_queue_depth 0",
		"dvsd_queue_capacity 8",
		"dvsd_runner_runs_total 1",
		"dvsd_runner_cache_hits_total 1",
		"dvsd_runner_cache_hit_rate 0.5",
		"dvsd_runner_panics_recovered_total 0",
		"dvsd_runner_poisoned_total 0",
		"dvsd_runner_cache_evictions_total 0",
		"dvsd_runner_cache_entries 1",
		"dvsd_sweep_plan_hits_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "dvsd_runner_cache_bytes ") {
		t.Fatalf("metrics missing cache bytes gauge:\n%s", body)
	}

	for i := 0; i < 2; i++ {
		if rec := post(s, "/sweep", `{"jobs":[`+simFTS2+`]}`); rec.Code != http.StatusOK {
			t.Fatalf("sweep %d: status=%d", i, rec.Code)
		}
	}
	body = get(s, "/metrics").Body.String()
	for _, want := range []string{
		`dvsd_requests_total{path="/sweep",status="200"} 2`,
		"dvsd_sweep_plan_hits_total 1",
		"dvsd_runner_runs_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("after the repeated sweep, metrics missing %q:\n%s", want, body)
		}
	}
}

// TestCacheBoundVisibleInMetrics sweeps more distinct cells than the
// cache bound through the service and asserts the eviction and size
// series report it: resident entries stay at the bound.
func TestCacheBoundVisibleInMetrics(t *testing.T) {
	s := testServer(t, Options{Runner: runner.NewWithOptions(runner.Options{Workers: 1, MaxEntries: 2})})
	body := `{"workloads":[{"code":"FT","class":"S","ranks":2}],` +
		`"strategies":[{"kind":"external","freq_mhz":600},{"kind":"external","freq_mhz":800},` +
		`{"kind":"external","freq_mhz":1000},{"kind":"external","freq_mhz":1200}]}`
	if rec := post(s, "/sweep", body); rec.Code != http.StatusOK {
		t.Fatalf("sweep: status=%d", rec.Code)
	}
	metrics := get(s, "/metrics").Body.String()
	for _, want := range []string{
		"dvsd_runner_cache_entries 2",
		"dvsd_runner_cache_evictions_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestRestartWithSnapshotServesFromCache is the dvsd restart scenario:
// a warm server snapshots its cache on drain; a fresh server loading the
// snapshot answers the same job with cache provenance true and zero new
// simulations.
func TestRestartWithSnapshotServesFromCache(t *testing.T) {
	path := t.TempDir() + "/cache.ndjson"
	warm := testServer(t, Options{})
	if rec := post(warm, "/simulate", simFTS2); rec.Code != http.StatusOK {
		t.Fatalf("warm simulate: status=%d", rec.Code)
	}
	if n, err := warm.Runner().SaveCache(path); err != nil || n != 1 {
		t.Fatalf("save: n=%d err=%v", n, err)
	}

	cold := testServer(t, Options{})
	if n, err := cold.Runner().LoadCache(path); err != nil || n != 1 {
		t.Fatalf("load: n=%d err=%v", n, err)
	}
	rec := post(cold, "/simulate", simFTS2)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold simulate: status=%d", rec.Code)
	}
	var resp struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatalf("restarted service did not serve from the persisted cache: %s", rec.Body.String())
	}
	if st := cold.Runner().Stats(); st.Runs != 0 || st.Hits != 1 {
		t.Fatalf("after restart: runs=%d hits=%d, want 0/1", st.Runs, st.Hits)
	}
}

// TestGracefulShutdownDrains starts the real server, gets a request in
// flight, and asserts Shutdown waits for it: the response arrives whole,
// trailer included.
func TestGracefulShutdownDrains(t *testing.T) {
	s := testServer(t, Options{Runner: runner.New(2)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	type reply struct {
		body bytes.Buffer
		err  error
	}
	done := make(chan *reply, 1)
	go func() {
		r := &reply{}
		defer func() { done <- r }()
		body := `{"workloads":[{"code":"MG","class":"S","ranks":4}],
		          "strategies":[{"kind":"nodvs"},{"kind":"external","freq_mhz":600},
		                        {"kind":"external","freq_mhz":800},{"kind":"external","freq_mhz":1000}]}`
		resp, err := http.Post("http://"+ln.Addr().String()+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			r.err = err
			return
		}
		defer resp.Body.Close()
		_, r.err = r.body.ReadFrom(resp.Body)
	}()

	// Wait until the request is admitted (or already finished), then
	// shut down while it may still be streaming.
	deadline := time.Now().Add(10 * time.Second)
	for s.gate.depth() == 0 && len(done) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(100 * time.Microsecond)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", r.err)
	}
	_, trailer := parseNDJSON(t, &r.body)
	if !trailer.Done || trailer.Jobs != 4 || trailer.Errors != 0 {
		t.Fatalf("drained response incomplete: %+v", trailer)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve returned %v after clean shutdown", err)
	}
}
