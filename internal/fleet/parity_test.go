package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sweep"
)

// parityGrid is a 2×3 workload-major grid, small enough to simulate in a
// test but wide enough that cell ordering is observable.
const parityGrid = `{
	"workloads": [
		{"code":"FT","class":"S","ranks":2},
		{"code":"EP","class":"S","ranks":2}
	],
	"strategies": [
		{"kind":"nodvs"},
		{"kind":"external","freq_mhz":600},
		{"kind":"external","freq_mhz":800}
	],
	"timeout_ms": 60000
}`

// sweepVia POSTs body to svc's /sweep and decodes the stream.
func sweepVia(t *testing.T, h http.Handler, body string) ([]sweep.SweepRecord, *sweep.SweepTrailer, int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, nil, rec.Code
	}
	recs, trailer, err := sweep.DecodeStream(rec.Body)
	if err != nil {
		t.Fatalf("decode stream: %v", err)
	}
	return recs, trailer, rec.Code
}

// TestSweepParityDvsdDvsgw pins the service contract the fleet layer
// promises: a sweep answered by the gateway is indistinguishable from
// one answered by a single dvsd — same cell ordering (workload-major,
// cell (i,j) at index i*len(strategies)+j), same per-index record bytes,
// same trailer.
func TestSweepParityDvsdDvsgw(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 6-cell grid")
	}
	// Independent cold runners: neither side may answer from a cache the
	// other doesn't have, or the cached flags would diverge.
	dvsd := server.New(server.Options{Runner: runner.New(2)})
	_, backendURL := startBackend(t)
	gw := newGateway(t, Options{Peers: []string{backendURL}})

	dRecs := sweepParity(t, dvsd, gw, "first pass")

	// The second pass is answered from dvsd's runner cache on one side
	// and from the gateway's memo on the other: the records, cached flags
	// included, stay identical, and no cell reaches the backend.
	before := backendRequests(t, gw)
	sweepParity(t, dvsd, gw, "second pass")
	if after := backendRequests(t, gw); after != before {
		t.Fatalf("second pass sent %v cell requests to the backend, want 0", after-before)
	}
	if c := gw.Counters(); c.MemoHits != 6 {
		t.Fatalf("memo hits = %d, want 6 (every cell of the second pass)", c.MemoHits)
	}

	// Workload-major ordering: cell (i, j) lands at i*len(strategies)+j,
	// so names are constant within each block of 3 and distinct across
	// blocks, while the strategy column repeats identically per block.
	for i, r := range dRecs {
		if r.Result == nil {
			t.Fatalf("cell %d carries no result: %+v", i, r)
		}
		if want := dRecs[(i/3)*3].Result.Name; r.Result.Name != want {
			t.Errorf("cell %d: name %q, want %q (workload-major blocks of 3)", i, r.Result.Name, want)
		}
		if want := dRecs[i%3].Result.Strategy; r.Result.Strategy != want {
			t.Errorf("cell %d: strategy %q, want %q (strategy-minor within each block)", i, r.Result.Strategy, want)
		}
	}
	if dRecs[0].Result.Name == dRecs[3].Result.Name {
		t.Fatalf("both blocks ran workload %q; grid collapsed", dRecs[0].Result.Name)
	}
}

// sweepParity posts parityGrid to dvsd and to gw and checks that the two
// trailers and the sorted record bytes agree. It returns dvsd's sorted
// records.
func sweepParity(t *testing.T, dvsd *server.Server, gw *Gateway, pass string) []sweep.SweepRecord {
	t.Helper()
	dRecs, dTrailer, code := sweepVia(t, dvsd.Handler(), parityGrid)
	if code != http.StatusOK {
		t.Fatalf("%s: dvsd sweep status %d", pass, code)
	}
	gRecs, gTrailer, code := sweepVia(t, gw.Handler(), parityGrid)
	if code != http.StatusOK {
		t.Fatalf("%s: dvsgw sweep status %d", pass, code)
	}
	if *dTrailer != *gTrailer {
		t.Fatalf("%s: trailers differ: dvsd %+v, dvsgw %+v", pass, dTrailer, gTrailer)
	}
	if dTrailer.Jobs != 6 || dTrailer.Errors != 0 {
		t.Fatalf("%s: trailer = %+v", pass, dTrailer)
	}
	sweep.SortRecords(dRecs)
	sweep.SortRecords(gRecs)
	if len(dRecs) != 6 || len(gRecs) != 6 {
		t.Fatalf("%s: record counts: dvsd %d, dvsgw %d", pass, len(dRecs), len(gRecs))
	}
	for i := range dRecs {
		db, _ := json.Marshal(dRecs[i])
		gb, _ := json.Marshal(gRecs[i])
		if !bytes.Equal(db, gb) {
			t.Errorf("%s: cell %d differs:\ndvsd:  %s\ndvsgw: %s", pass, i, db, gb)
		}
	}
	return dRecs
}

// backendRequests sums the gateway's dvsgw_backend_requests_total series
// as /metrics renders them.
func backendRequests(t *testing.T, g *Gateway) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(getGW(g, "/metrics").Body.String(), "\n") {
		if !strings.HasPrefix(line, "dvsgw_backend_requests_total{") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestBodyBoundParity pins the request-body bound on both services: a
// body past it is rejected 413 with the identical typed envelope before
// anything is placed, while an explicit job list exactly at MaxJobs —
// every job fully specified and pretty-printed — is still admitted.
func TestBodyBoundParity(t *testing.T) {
	const maxJobs = 6
	dvsd := server.New(server.Options{Runner: runner.New(2), MaxJobs: maxJobs})
	_, backendURL := startBackend(t)
	gw := newGateway(t, Options{Peers: []string{backendURL}, MaxJobs: maxJobs})
	handlers := map[string]http.Handler{"dvsd": dvsd.Handler(), "dvsgw": gw.Handler()}

	over := `{"jobs":[` + simFTS2 + strings.Repeat(" ", 64<<10) + `]}`
	envelopes := map[string]string{}
	for name, h := range handlers {
		for _, path := range []string{"/simulate", "/sweep"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(over)))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s %s: oversize body status %d, want 413", name, path, rec.Code)
			}
			var env struct {
				Error *sweep.APIError `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil ||
				env.Error.Code != sweep.CodeBodyTooLarge {
				t.Fatalf("%s %s: oversize body answered %s, want a body_too_large envelope", name, path, rec.Body.Bytes())
			}
			envelopes[path+" "+rec.Body.String()] = name
		}
	}
	if len(envelopes) != 2 {
		t.Fatalf("dvsd and dvsgw rejected the oversize body differently: %v", envelopes)
	}
	if n := dvsd.Runner().Stats().Runs; n != 0 {
		t.Fatalf("oversize bodies ran %d simulations", n)
	}

	// A fully specified job, indented as a human would post it.
	big, err := json.MarshalIndent(map[string]any{
		"workload": map[string]any{"code": "CG", "class": "S", "ranks": 8, "variant": "internal",
			"high_mhz": 1400, "low_mhz": 600},
		"strategy": map[string]any{"kind": "external-per-node", "per_node": map[string]float64{
			"0": 600, "1": 800, "2": 1000, "3": 1200, "4": 1400, "5": 600, "6": 800, "7": 1000}},
		"config": map[string]any{"spin_wait": true, "wait_busy_frac": 0.5, "net_latency_us": 50,
			"net_bandwidth_bps": 1e9, "net_loss_rate": 0.01, "net_seed": 7, "transition_latency_us": 20},
	}, "\t\t", "\t")
	if err != nil {
		t.Fatal(err)
	}
	jobs := strings.TrimSuffix(strings.Repeat(string(big)+",\n", maxJobs), ",\n")
	atLimit := "{\n\t\"jobs\": [\n\t\t" + jobs + "\n\t],\n\t\"timeout_ms\": 60000\n}"
	// A cancelled client resolves every cell to a canceled record without
	// simulating; admission is what is under test.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, h := range handlers {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(atLimit)).WithContext(ctx))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: at-limit job list (%d bytes) status %d, want 200: %s", name, len(atLimit), rec.Code, rec.Body.Bytes())
		}
		if _, trailer, err := sweep.DecodeStream(rec.Body); err != nil || trailer.Jobs != maxJobs {
			t.Fatalf("%s: at-limit job list streamed trailer %+v (err %v)", name, trailer, err)
		}
	}
}

// TestSweepMaxJobsBoundaryParity pins the admission boundary on both
// services: a grid exactly at MaxJobs is admitted, one cell over is
// rejected 413 with the typed too_many_jobs error — identically by dvsd
// and dvsgw.
func TestSweepMaxJobsBoundaryParity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 6-cell grid")
	}
	const maxJobs = 6
	dvsd := server.New(server.Options{Runner: runner.New(2), MaxJobs: maxJobs})
	_, backendURL := startBackend(t)
	gw := newGateway(t, Options{Peers: []string{backendURL}, MaxJobs: maxJobs})

	// Exactly at the limit: 2×3 = 6 cells, admitted by both.
	for name, h := range map[string]http.Handler{"dvsd": dvsd.Handler(), "dvsgw": gw.Handler()} {
		recs, trailer, code := sweepVia(t, h, parityGrid)
		if code != http.StatusOK {
			t.Fatalf("%s: at-limit sweep status %d, want 200", name, code)
		}
		if len(recs) != maxJobs || trailer.Jobs != maxJobs {
			t.Fatalf("%s: at-limit sweep returned %d records, trailer %+v", name, len(recs), trailer)
		}
	}

	// One over: 7 explicit jobs, rejected 413 before any simulation.
	var jobs []string
	for i := 0; i < maxJobs+1; i++ {
		jobs = append(jobs, fmt.Sprintf(
			`{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"external","freq_mhz":%d}}`,
			600+i))
	}
	over := `{"jobs":[` + strings.Join(jobs, ",") + `]}`
	for name, h := range map[string]http.Handler{"dvsd": dvsd.Handler(), "dvsgw": gw.Handler()} {
		req := httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(over))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: one-over sweep status %d, want 413", name, rec.Code)
		}
		var env struct {
			Error *sweep.APIError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
			t.Fatalf("%s: one-over body not a typed error: %s", name, rec.Body.Bytes())
		}
		if env.Error.Code != sweep.CodeTooManyJobs {
			t.Fatalf("%s: error code %q, want too_many_jobs", name, env.Error.Code)
		}
	}
}
