package fleet

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestProbeEjectsAndReadmits drives the probe loop by hand: consecutive
// probe failures past the threshold eject the backend; one healthy probe
// re-admits it.
func TestProbeEjectsAndReadmits(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	p := newPool([]string{ts.URL}, 2, time.Second, ts.Client())
	p.probeAll()
	if p.live() != 1 {
		t.Fatal("healthy backend not live after probe")
	}

	healthy.Store(false)
	p.probeAll()
	if p.live() != 1 {
		t.Fatal("one failure below threshold must not eject")
	}
	p.probeAll()
	if p.live() != 0 {
		t.Fatal("two consecutive failures must eject")
	}
	if len(p.order("some-key")) != 0 {
		t.Fatal("ejected backend still offered for placement")
	}

	healthy.Store(true)
	p.probeAll()
	if p.live() != 1 {
		t.Fatal("healthy probe must re-admit")
	}
	b := p.backends[0]
	if b.probes.Load() != 4 || b.probeErr.Load() != 2 {
		t.Fatalf("probe counters: sent=%d failed=%d, want 4/2", b.probes.Load(), b.probeErr.Load())
	}
}

// TestDataPathFeedback: forward failures feed the same ejection counter
// as probes, and any success resets it.
func TestDataPathFeedback(t *testing.T) {
	p := newPool(testURLs(1), 3, time.Second, http.DefaultClient)
	b := p.backends[0]
	b.markFailure(3)
	b.markFailure(3)
	if !b.up.Load() {
		t.Fatal("ejected below threshold")
	}
	b.markSuccess()
	b.markFailure(3)
	b.markFailure(3)
	if !b.up.Load() {
		t.Fatal("success did not reset the failure streak")
	}
	b.markFailure(3)
	if b.up.Load() {
		t.Fatal("threshold consecutive failures did not eject")
	}
}

// TestProbeReusesConnection: probes must drain the healthz body before
// closing it — an unread body makes the transport drop the connection,
// so every probe round (and, before the fix, every error-path probe)
// re-dialed each backend instead of reusing its idle connection. Ten
// probes against one backend must cost exactly one TCP connection,
// including probes that see a non-200 status.
func TestProbeReusesConnection(t *testing.T) {
	var conns atomic.Int64
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		w.Write([]byte(`{"status":"ok","queue_depth":0}`))
	}))
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	p := newPool([]string{ts.URL}, 64, time.Second, ts.Client())
	for i := 0; i < 5; i++ {
		p.probe(p.backends[0])
	}
	if p.live() != 1 {
		t.Fatal("backend not live after healthy probes")
	}
	// Unhealthy responses carry a body too; the error path must drain it
	// just the same.
	healthy.Store(false)
	for i := 0; i < 5; i++ {
		p.probe(p.backends[0])
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("10 probes opened %d connections, want 1 (response body not drained)", got)
	}
}
