package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// runFrontend starts Run on a free address and waits until it answers.
func runFrontend(t *testing.T, f *Frontend, ctx context.Context, debugAddr string) (string, <-chan error) {
	t.Helper()
	addr := freeAddr(t)
	ran := make(chan error, 1)
	go func() { ran <- f.Run(ctx, addr, debugAddr, 30*time.Second) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			return addr, ran
		}
		select {
		case err := <-ran:
			t.Fatalf("Run returned before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("Run never served on %s: %v", addr, err)
		}
	}
}

// TestRunDrainsOnCancel is the daemons' SIGTERM path through Run: ctx is
// cancelled while a /sweep is provably mid-stream, and Run must deliver
// every remaining cell and the trailer before it returns nil.
func TestRunDrainsOnCancel(t *testing.T) {
	s := testServer(t, Options{Runner: runner.New(1)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, ran := runFrontend(t, s.Frontend, ctx, "")

	body := `{"workloads":[{"code":"FT","class":"S","ranks":2},{"code":"MG","class":"S","ranks":2}],
	          "strategies":[{"kind":"nodvs"},{"kind":"external","freq_mhz":600},{"kind":"daemon"}]}`
	resp, err := http.Post("http://"+addr+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("first record: %v", err)
	}

	cancel()
	var rest bytes.Buffer
	rest.Write(first)
	if _, err := rest.ReadFrom(br); err != nil {
		t.Fatalf("stream truncated by the drain: %v", err)
	}
	recs, trailer := parseNDJSON(t, &rest)
	if len(recs) != 6 || !trailer.Done || trailer.Jobs != 6 || trailer.Errors != 0 {
		t.Fatalf("drained stream: %d records, trailer %+v; want 6 records, jobs=6 errors=0", len(recs), trailer)
	}
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("Run returned %v after a clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the drain")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("service port still answers after Run returned")
	}
}

// TestRunListenError checks that an occupied address is Run's error, and
// that Run returns it without waiting for ctx.
func TestRunListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = testServer(t, Options{}).Run(context.Background(), ln.Addr().String(), "", time.Second)
	if !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("Run on an occupied address: %v, want EADDRINUSE", err)
	}
}

// TestRunDebugAddr checks that -debug-addr's side listener serves the
// trace ring while Run serves, and closes when Run returns.
func TestRunDebugAddr(t *testing.T) {
	s := testServer(t, Options{Tracer: obs.New("dvsd", 8)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	debug := freeAddr(t)
	addr, ran := runFrontend(t, s.Frontend, ctx, debug)
	if rec := post(s, "/simulate", simFTS2); rec.Code != http.StatusOK {
		t.Fatalf("/simulate status %d", rec.Code)
	}

	var got []byte
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get("http://" + debug + "/debug/traces?min_ms=0")
		if err == nil {
			got, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("debug listener never answered: %v", err)
		}
	}
	if !bytes.Contains(got, []byte(`"root": "dvsd.simulate"`)) {
		t.Fatalf("/debug/traces on %s lacks the /simulate trace:\n%s", debug, got)
	}
	if resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline"); err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("pprof is served on the service port")
		}
	}

	cancel()
	if err := <-ran; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := http.Get("http://" + debug + "/debug/traces"); err == nil {
		t.Fatal("debug listener still answers after Run returned")
	}
}
