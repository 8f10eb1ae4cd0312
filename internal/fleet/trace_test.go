package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/server"
)

// startTracedBackend runs a dvsd service with tracing enabled and
// returns its tracer (for direct ring inspection) with its base URL.
func startTracedBackend(t *testing.T) (*obs.Tracer, string) {
	t.Helper()
	tr := obs.New("dvsd", 64)
	s := server.New(server.Options{Runner: runner.New(2), Tracer: tr})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return tr, ts.URL
}

// TestSweepTraceStitching is the end-to-end tracing acceptance: one
// sweep over two traced backends yields one gateway trace per cell —
// queue and route spans under a gw.cell root — and each backend's
// dvsd.simulate trace joins its cell's trace via the injected
// traceparent: same trace ID, rooted under the gateway's route span,
// with the simulation phases visible beneath it. Repeating the sweep
// leaves memo-hit gw.cell traces and nothing at the backends.
func TestSweepTraceStitching(t *testing.T) {
	trA, urlA := startTracedBackend(t)
	trB, urlB := startTracedBackend(t)
	g := newGateway(t, Options{Peers: []string{urlA, urlB}, Tracer: obs.New("dvsgw", 64)})

	rec := postGW(g, "/sweep", sweepGrid)
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d body=%s", rec.Code, rec.Body.String())
	}
	if _, trailer := parseNDJSON(t, rec.Body); trailer.Errors != 0 || trailer.Jobs != 4 {
		t.Fatalf("trailer=%+v, want jobs=4 errors=0", trailer)
	}

	// The gateway's view, through the same endpoint an operator curls.
	var dump obs.Dump
	if err := json.Unmarshal(getGW(g, "/debug/traces?min_ms=0").Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if !dump.Enabled || dump.Process != "dvsgw" {
		t.Fatalf("dump envelope: process=%q enabled=%v", dump.Process, dump.Enabled)
	}
	if len(dump.Traces) != 4 {
		t.Fatalf("gateway recorded %d traces, want one per cell", len(dump.Traces))
	}
	routeTrace := map[string]string{} // route span ID → its trace ID
	for _, tr := range dump.Traces {
		if tr.Root != "gw.cell" {
			t.Fatalf("gateway trace root %q, want gw.cell", tr.Root)
		}
		var hasQueue, hasRoute bool
		for _, sp := range tr.Spans {
			switch sp.Name {
			case "queue":
				hasQueue = true
			case "route":
				hasRoute = true
				routeTrace[sp.SpanID] = tr.TraceID
			}
		}
		if !hasQueue || !hasRoute {
			t.Fatalf("cell trace %s missing queue/route spans: %+v", tr.TraceID, tr.Spans)
		}
	}

	// The backends' view: every cell trace continues in exactly one
	// backend ring, stitched under the gateway's route span.
	backendTraces := append(trA.Snapshot(0), trB.Snapshot(0)...)
	if len(backendTraces) != 4 {
		t.Fatalf("backends recorded %d traces, want 4", len(backendTraces))
	}
	for _, bt := range backendTraces {
		if bt.Root != "dvsd.simulate" {
			t.Fatalf("backend trace root %q, want dvsd.simulate", bt.Root)
		}
		var root obs.SpanData
		var hasSim bool
		for _, sp := range bt.Spans {
			switch sp.Name {
			case "dvsd.simulate":
				root = sp
			case "sim.run":
				hasSim = true
			}
		}
		if root.SpanID == "" {
			t.Fatalf("backend trace %s has no root span", bt.TraceID)
		}
		tid, ok := routeTrace[root.ParentID]
		if !ok {
			t.Fatalf("backend root's parent %q is not any gateway route span", root.ParentID)
		}
		if tid != bt.TraceID {
			t.Fatalf("backend trace %s parented under gateway trace %s; IDs must match", bt.TraceID, tid)
		}
		if !hasSim {
			t.Fatalf("backend trace %s missing the sim.run phase span", bt.TraceID)
		}
	}

	// A repeated sweep is answered from the gateway's memo: each cell
	// still roots a gw.cell trace, marked as a memo hit, with no route
	// span, and no backend records anything.
	if rec := postGW(g, "/sweep", sweepGrid); rec.Code != http.StatusOK {
		t.Fatalf("repeat: status=%d body=%s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(getGW(g, "/debug/traces?min_ms=0").Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	memoTraces := 0
	for _, tr := range dump.Traces {
		for _, sp := range tr.Spans {
			if sp.Name == "gw.cell" && sp.Attrs["memo"] == "hit" {
				memoTraces++
				for _, other := range tr.Spans {
					if other.Name == "route" {
						t.Fatalf("memo-hit trace %s carries a route span", tr.TraceID)
					}
				}
			}
		}
	}
	if len(dump.Traces) != 8 || memoTraces != 4 {
		t.Fatalf("after the repeat: %d gateway traces, %d marked memo hits; want 8 and 4", len(dump.Traces), memoTraces)
	}
	if n := len(trA.Snapshot(0)) + len(trB.Snapshot(0)); n != 4 {
		t.Fatalf("backends recorded %d traces after the repeat, want still 4", n)
	}
}

// TestRetryTraceRecorded: when a cell's home backend is dead, the
// failover is visible in its trace — a route attempt against the dead
// backend classified as transport, a retry.backoff span, then a route
// that succeeded on the live backend.
func TestRetryTraceRecorded(t *testing.T) {
	_, urlLive := startBackend(t)
	g := gatewayWithDeadHome(t, urlLive, Options{Tracer: obs.New("dvsgw", 64)})

	rec := postGW(g, "/sweep", sweepGrid)
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d", rec.Code)
	}
	if _, trailer := parseNDJSON(t, rec.Body); trailer.Errors != 0 {
		t.Fatalf("trailer=%+v, want errors=0", trailer)
	}

	var sawRetry, sawTransport bool
	for _, tr := range g.opts.Tracer.Snapshot(0) {
		for _, sp := range tr.Spans {
			if sp.Name == "retry.backoff" {
				sawRetry = true
			}
			if sp.Name == "route" && sp.Attrs["outcome"] == "transport" {
				sawTransport = true
			}
		}
	}
	if !sawTransport {
		t.Fatal("no route span recorded the dead backend's transport failure")
	}
	if !sawRetry {
		t.Fatal("failover left no retry.backoff span in any cell trace")
	}
}
