package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestSpanTreeParentIDs: a root with nested children yields one finished
// trace whose parent IDs form the tree the code built.
func TestSpanTreeParentIDs(t *testing.T) {
	tr := New("test", 8)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "cell")
	if root == nil {
		t.Fatal("tracer in context, Start returned nil span")
	}
	root.SetAttr("index", "3")
	cctx, route := Start(ctx, "route")
	route.Event("sent")
	_, fwd := Start(cctx, "forward")
	fwd.End()
	route.End()
	root.End()

	traces := tr.Snapshot(0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tj := traces[0]
	if tj.Root != "cell" || tj.Process != "test" {
		t.Fatalf("trace=%+v", tj)
	}
	byName := map[string]SpanData{}
	for _, s := range tj.Spans {
		byName[s.Name] = s
	}
	if len(byName) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(byName), tj.Spans)
	}
	if byName["cell"].ParentID != "" {
		t.Fatalf("root has parent %q", byName["cell"].ParentID)
	}
	if byName["route"].ParentID != byName["cell"].SpanID {
		t.Fatal("route is not a child of cell")
	}
	if byName["forward"].ParentID != byName["route"].SpanID {
		t.Fatal("forward is not a child of route")
	}
	if byName["cell"].Attrs["index"] != "3" {
		t.Fatalf("attrs lost: %+v", byName["cell"].Attrs)
	}
	if len(byName["route"].Events) != 1 || byName["route"].Events[0].Name != "sent" {
		t.Fatalf("events lost: %+v", byName["route"].Events)
	}
}

// TestDisabledPathZeroAllocs is the cost contract: without a tracer in
// the context, Start and every nil-span method must not allocate.
func TestDisabledPathZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := Start(ctx, "hot")
		sp.SetAttr("k", "v")
		sp.Event("e")
		sp.End()
		_, sp2 := Start(c, "inner")
		sp2.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f objects per op, want 0", allocs)
	}
}

// TestNilTracerEverywhere: nil tracer and nil spans are fully inert.
func TestNilTracerEverywhere(t *testing.T) {
	if tr := New("x", 0); tr != nil {
		t.Fatal("buffer 0 must return the disabled (nil) tracer")
	}
	var tr *Tracer
	ctx, sp := tr.StartRequest(context.Background(), "r", "")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	if _, sp2 := Start(WithTracer(ctx, tr), "s"); sp2 != nil {
		t.Fatal("nil tracer via context produced a span")
	}
	if got := tr.Snapshot(0); got != nil {
		t.Fatalf("nil tracer snapshot=%v", got)
	}
	if tp := Traceparent(nil); tp != "" {
		t.Fatalf("nil span traceparent=%q", tp)
	}
}

// TestTraceparentRoundTrip: Traceparent's header parses back to the same IDs,
// and malformed variants are rejected.
func TestTraceparentRoundTrip(t *testing.T) {
	tr := New("test", 4)
	_, sp := Start(WithTracer(context.Background(), tr), "root")
	tp := Traceparent(sp)
	tid, pid, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("own header does not parse: %q", tp)
	}
	if tid != sp.TraceID() || pid != sp.SpanID() {
		t.Fatalf("parsed (%s,%s), want (%s,%s)", tid, pid, sp.TraceID(), sp.SpanID())
	}
	for _, bad := range []string{
		"",
		"00-zz",
		"01-" + sp.TraceID() + "-" + sp.SpanID() + "-01",             // unknown version
		"00-00000000000000000000000000000000-" + sp.SpanID() + "-01", // zero trace id
		"00-" + sp.TraceID() + "-0000000000000000-01",                // zero span id
		"00-" + strings.ToUpper(sp.TraceID()) + "-" + sp.SpanID() + "-01",
		"00-" + sp.TraceID() + "-" + sp.SpanID(), // truncated
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("accepted malformed traceparent %q", bad)
		}
	}
}

// TestStartRequestJoinsRemoteTrace: a server-side root adopts the
// caller's trace ID and parents itself under the caller's span.
func TestStartRequestJoinsRemoteTrace(t *testing.T) {
	client := New("client", 4)
	_, csp := Start(WithTracer(context.Background(), client), "forward")

	srv := New("server", 4)
	_, ssp := srv.StartRequest(context.Background(), "serve", Traceparent(csp))
	ssp.End()

	got := srv.Snapshot(0)
	if len(got) != 1 {
		t.Fatalf("got %d traces, want 1", len(got))
	}
	if got[0].TraceID != csp.TraceID() {
		t.Fatalf("trace id %s, want caller's %s", got[0].TraceID, csp.TraceID())
	}
	if got[0].Spans[0].ParentID != csp.SpanID() {
		t.Fatalf("root parent %s, want caller span %s", got[0].Spans[0].ParentID, csp.SpanID())
	}

	// A garbage header starts a fresh trace instead of failing.
	_, fresh := srv.StartRequest(context.Background(), "serve", "garbage")
	if fresh.TraceID() == "" || fresh.TraceID() == csp.TraceID() {
		t.Fatalf("fresh trace id %q", fresh.TraceID())
	}
}

// TestRingBoundAndOrder: the ring keeps only the newest traces, newest
// first in snapshots.
func TestRingBoundAndOrder(t *testing.T) {
	tr := New("test", 2)
	for _, name := range []string{"a", "b", "c"} {
		_, sp := Start(WithTracer(context.Background(), tr), name)
		sp.End()
	}
	got := tr.Snapshot(0)
	if len(got) != 2 || got[0].Root != "c" || got[1].Root != "b" {
		t.Fatalf("snapshot=%+v, want [c b]", got)
	}
}

// TestDebugHandlerFilterAndNil: min_ms filters on root duration; the nil
// tracer serves an empty, well-formed document.
func TestDebugHandlerFilterAndNil(t *testing.T) {
	tr := New("test", 4)
	_, fast := Start(WithTracer(context.Background(), tr), "fast")
	fast.End()
	_, slow := StartAt(WithTracer(context.Background(), tr), "slow", time.Now().Add(-time.Second))
	slow.End()

	get := func(h http.Handler, url string) (int, Dump) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		var d Dump
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
				t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
			}
		}
		return rec.Code, d
	}

	code, d := get(tr.DebugHandler(), "/debug/traces?min_ms=500")
	if code != http.StatusOK || len(d.Traces) != 1 || d.Traces[0].Root != "slow" {
		t.Fatalf("filtered dump=%+v (status %d)", d, code)
	}
	if code, d = get(tr.DebugHandler(), "/debug/traces"); code != http.StatusOK || len(d.Traces) != 2 {
		t.Fatalf("unfiltered dump=%+v (status %d)", d, code)
	}
	if code, _ := get(tr.DebugHandler(), "/debug/traces?min_ms=nope"); code != http.StatusBadRequest {
		t.Fatalf("bad min_ms accepted: %d", code)
	}

	var nilTr *Tracer
	code, d = get(nilTr.DebugHandler(), "/debug/traces")
	if code != http.StatusOK || d.Enabled || len(d.Traces) != 0 {
		t.Fatalf("nil tracer dump=%+v (status %d)", d, code)
	}

	rec := httptest.NewRecorder()
	tr.DebugHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/traces", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status=%d, want 405", rec.Code)
	}
}

// TestSpanCapDropsLateSpans: the per-trace span bound drops and counts
// instead of growing without limit.
func TestSpanCapDropsLateSpans(t *testing.T) {
	tr := New("test", 2)
	ctx, root := Start(WithTracer(context.Background(), tr), "root")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, sp := Start(ctx, "child")
		sp.End()
	}
	root.End()
	got := tr.Snapshot(0)
	if len(got) != 1 {
		t.Fatalf("got %d traces", len(got))
	}
	if len(got[0].Spans) != maxSpansPerTrace {
		t.Fatalf("kept %d spans, want cap %d", len(got[0].Spans), maxSpansPerTrace)
	}
	// root + 10 overflow children were dropped
	if got[0].SpansDropped != 11 {
		t.Fatalf("dropped=%d, want 11", got[0].SpansDropped)
	}
}

// TestEndIdempotent: double End records the span once.
func TestEndIdempotent(t *testing.T) {
	tr := New("test", 2)
	ctx, root := Start(WithTracer(context.Background(), tr), "root")
	_, sp := Start(ctx, "child")
	sp.End()
	sp.End()
	root.End()
	root.End()
	got := tr.Snapshot(0)
	if len(got) != 1 || len(got[0].Spans) != 2 {
		t.Fatalf("snapshot=%+v, want one trace with two spans", got)
	}
}
