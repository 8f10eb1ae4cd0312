package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sweep"
)

// postSweep posts body to h's /sweep under ctx.
func postSweep(h http.Handler, ctx context.Context, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body)).WithContext(ctx))
	return rec
}

// recordLines returns a /sweep response's record lines ordered by index,
// each without its cached flag, and the trailer.
func recordLines(t *testing.T, rec *httptest.ResponseRecorder) ([]string, *sweep.SweepTrailer) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", rec.Code, rec.Body)
	}
	stream := rec.Body.String()
	_, trailer, err := sweep.DecodeStream(strings.NewReader(stream))
	if err != nil {
		t.Fatalf("decode stream: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(stream, "\n"), "\n")
	recs := lines[:len(lines)-1]
	index := func(line string) int {
		var r struct{ Index int }
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("record line %q: %v", line, err)
		}
		return r.Index
	}
	slices.SortFunc(recs, func(a, b string) int { return index(a) - index(b) })
	for i, line := range recs {
		recs[i] = strings.Replace(line, `,"cached":true`, "", 1)
	}
	return recs, trailer
}

// TestGatewaySweepPlanHitSameRecords: on dvsgw, a repeated grid reuses
// the first post's plan, counted in /metrics, and streams the same
// record bytes, sorted by index and apart from the cached flag.
func TestGatewaySweepPlanHitSameRecords(t *testing.T) {
	_, url := startBackend(t)
	g := newGateway(t, Options{Peers: []string{url}})
	ctx := context.Background()
	miss, missTrailer := recordLines(t, postSweep(g.Handler(), ctx, parityGrid))
	hit, hitTrailer := recordLines(t, postSweep(g.Handler(), ctx, parityGrid))
	if missTrailer.Jobs != 6 || missTrailer.Errors != 0 || missTrailer.CachedCells != 0 {
		t.Fatalf("first trailer %+v, want 6 fresh cells", missTrailer)
	}
	if hitTrailer.Jobs != 6 || hitTrailer.Errors != 0 || hitTrailer.CachedCells != 6 {
		t.Fatalf("repeat trailer %+v, want 6 cached cells", hitTrailer)
	}
	if !slices.Equal(miss, hit) {
		t.Fatalf("the repeat streamed other records:\nfirst:  %q\nrepeat: %q", miss, hit)
	}
	if body := getGW(g, "/metrics").Body.String(); !strings.Contains(body, "dvsgw_sweep_plan_hits_total 1\n") {
		t.Fatalf("metrics do not count the one plan hit:\n%s", body)
	}
}

// TestConcurrentSweepsSharePlan: two identical sweeps running at once on
// the gateway share one stored plan, and every cell misses the gateway's
// memo, so both forward the same cells at once, encoding each shared
// cell's body concurrently. Run under -race; both streams must be
// complete and carry the same records.
func TestConcurrentSweepsSharePlan(t *testing.T) {
	_, urlA := startBackend(t)
	_, urlB := startBackend(t)
	g := newGateway(t, Options{Peers: []string{urlA, urlB}})

	// A post whose client is already gone stores the plan and places no
	// cell, so the gateway's memo stays empty.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if _, trailer := recordLines(t, postSweep(g.Handler(), gone, parityGrid)); trailer.Errors != 6 {
		t.Fatalf("canceled sweep: trailer %+v, want 6 canceled cells", trailer)
	}
	if n := backendRequests(t, g); n != 0 {
		t.Fatalf("canceled sweep forwarded %v cells", n)
	}

	var wg sync.WaitGroup
	resps := make([]*httptest.ResponseRecorder, 2)
	for k := range resps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[k] = postSweep(g.Handler(), context.Background(), parityGrid)
		}()
	}
	wg.Wait()
	var recs [][]string
	for k, rec := range resps {
		lines, trailer := recordLines(t, rec)
		if trailer.Jobs != 6 || trailer.Errors != 0 {
			t.Fatalf("concurrent sweep %d: trailer %+v", k, trailer)
		}
		recs = append(recs, lines)
	}
	if !slices.Equal(recs[0], recs[1]) {
		t.Fatalf("concurrent sweeps streamed different records:\n%q\n%q", recs[0], recs[1])
	}
	if body := getGW(g, "/metrics").Body.String(); !strings.Contains(body, "dvsgw_sweep_plan_hits_total 2\n") {
		t.Fatalf("metrics do not count the two plan hits:\n%s", body)
	}
	if n := backendRequests(t, g); n < 6 {
		t.Fatalf("backends received %v cell requests, want at least the grid's 6", n)
	}
}

// TestTrailingBytesParity: dvsd and dvsgw reject a body with data after
// its JSON value with the same typed 400, on both paths.
func TestTrailingBytesParity(t *testing.T) {
	dvsd := server.New(server.Options{Runner: runner.New(2)})
	_, url := startBackend(t)
	g := newGateway(t, Options{Peers: []string{url}})
	for _, tc := range []struct{ path, body string }{
		{"/simulate", simFTS2 + ` this is not json {`},
		{"/simulate", simFTS2 + `}`},
		{"/sweep", parityGrid + `{"jobs":"x"}`},
		{"/sweep", parityGrid + `}`},
	} {
		var envs []string
		for _, h := range []http.Handler{dvsd.Handler(), g.Handler()} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			var env struct {
				Error *sweep.APIError `json:"error"`
			}
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &env) != nil ||
				env.Error == nil || env.Error.Code != sweep.CodeBadRequest {
				t.Fatalf("%s %q: status %d %s, want 400 bad_request", tc.path, tc.body, rec.Code, rec.Body)
			}
			envs = append(envs, rec.Body.String())
		}
		if envs[0] != envs[1] {
			t.Fatalf("%s %q: dvsd and dvsgw answered differently:\n%s\n%s", tc.path, tc.body, envs[0], envs[1])
		}
	}
	if n := dvsd.Runner().Stats().Runs; n != 0 {
		t.Fatalf("rejected bodies ran %d simulations", n)
	}
	if n := backendRequests(t, g); n != 0 {
		t.Fatalf("rejected bodies reached a backend %v times", n)
	}
}
