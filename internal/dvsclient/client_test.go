package dvsclient

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sweep"
)

func serve(t *testing.T, h http.HandlerFunc) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// retryable reports that none of Result's outcome groups applies.
func retryable(res Result) bool { return !res.Ok && res.AE == nil && !res.Shed }

func okBody() string {
	return `{"cached":true,"result":{"name":"ft.S.8","strategy":"external 600","elapsed_sec":1.5,"energy_j":42}}`
}

func TestDoClassifiesOK(t *testing.T) {
	var gotTrace string
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		gotTrace = r.Header.Get("traceparent")
		if r.URL.Path != "/simulate" || r.Method != http.MethodPost {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		fmt.Fprintln(w, okBody())
	})
	res := Do(context.Background(), http.DefaultClient, url, []byte(`{}`), "00-abc-def-01")
	if !res.Ok || !res.Resp.Cached || res.Resp.Result.Name != "ft.S.8" {
		t.Fatalf("res = %+v", res)
	}
	if gotTrace != "00-abc-def-01" {
		t.Fatalf("traceparent = %q", gotTrace)
	}
}

func TestDoClassifiesTypedRejection(t *testing.T) {
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintln(w, `{"error":{"code":"invalid_workload","message":"no such code","field":"workload.code"}}`)
	})
	res := Do(context.Background(), http.DefaultClient, url, []byte(`{}`), "")
	if res.Ok || res.Shed || res.AE == nil {
		t.Fatalf("res = %+v", res)
	}
	if res.AE.Code != sweep.CodeInvalidWorkload || res.AE.Field != "workload.code" {
		t.Fatalf("AE = %+v", res.AE)
	}
}

func TestDoClassifiesShedWithHint(t *testing.T) {
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":{"code":"queue_full","message":"busy","retry_after_ms":250}}`)
	})
	res := Do(context.Background(), http.DefaultClient, url, []byte(`{}`), "")
	if !res.Shed || res.WaitHint != 250*time.Millisecond {
		t.Fatalf("res = %+v", res)
	}
}

func TestDoClassifiesGarbageAsRetry(t *testing.T) {
	for name, h := range map[string]http.HandlerFunc{
		"garbage 200": func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "<html>not json</html>")
		},
		"garbage 502": func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprintln(w, "<html>proxy error</html>")
		},
	} {
		url := serve(t, h)
		res := Do(context.Background(), http.DefaultClient, url, []byte(`{}`), "")
		if !retryable(res) {
			t.Fatalf("%s: res = %+v", name, res)
		}
	}
}

func TestDoClassifiesTransportError(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close() // refuse all connections
	res := Do(context.Background(), http.DefaultClient, url, []byte(`{}`), "")
	if !retryable(res) || !res.Transport {
		t.Fatalf("res = %+v", res)
	}
}

// TestDoMidBodyCutIsTransportRetry: a backend that dies after the status
// line — headers sent, body short of its declared length — must classify
// as a transport retry, not as a decode failure or a success.
func TestDoMidBodyCutIsTransportRetry(t *testing.T) {
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "4096")
		fmt.Fprint(w, `{"cached":true,"result":{"name":"ft`)
	})
	res := Do(context.Background(), http.DefaultClient, url, []byte(`{}`), "")
	if !retryable(res) || !res.Transport {
		t.Fatalf("mid-body cut classified as %+v, want transport retry", res)
	}
}

// TestDoContextCanceledMidBody: cancellation that lands after the status
// line but before the body completes hits the ReadAll path, not the
// request path — it must still classify as a transport retry so the
// caller's ladder (which checks its own ctx before re-asking) owns the
// decision to stop.
func TestDoContextCanceledMidBody(t *testing.T) {
	headersOut := make(chan struct{})
	url := serve(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"cached":false,"result":{"na`)
		w.(http.Flusher).Flush()
		close(headersOut)
		<-r.Context().Done() // hold the body open until the client gives up
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-headersOut
		cancel()
	}()
	res := Do(ctx, http.DefaultClient, url, []byte(`{}`), "")
	if !retryable(res) || !res.Transport {
		t.Fatalf("mid-body cancellation classified as %+v, want transport retry", res)
	}
}
