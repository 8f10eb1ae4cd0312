package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/sweep"
)

// TestConcurrentSimulateSharesCache hammers /simulate from many clients
// over real HTTP with two distinct jobs. The shared runner must simulate
// each distinct job exactly once, answer everything else from the cache
// (or by coalescing onto the in-flight run), and return byte-identical
// bodies per job. Run under -race this is also the server's concurrency
// audit.
func TestConcurrentSimulateSharesCache(t *testing.T) {
	s := testServer(t, Options{Runner: runner.New(4), MaxInflight: 128})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bodies := []string{
		simFTS2,
		`{"workload":{"code":"EP","class":"S","ranks":2},"strategy":{"kind":"nodvs"}}`,
	}
	const clients, perClient = 10, 5
	got := make([][]string, clients) // responses, tagged by job kind
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := bodies[(c+i)%len(bodies)]
				resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: status=%d body=%s", c, resp.StatusCode, b)
					return
				}
				got[c] = append(got[c], fmt.Sprintf("%d|%s", (c+i)%len(bodies), b))
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Responses for a job kind must agree on the result, modulo the
	// cached flag (exactly one response per kind saw cached=false).
	type agg struct {
		results  map[string]int
		uncached int
	}
	perKind := map[string]*agg{}
	for c := range got {
		for _, tagged := range got[c] {
			sep := strings.IndexByte(tagged, '|')
			kind, body := tagged[:sep], tagged[sep+1:]
			var resp sweep.SimulateResponse
			if err := json.Unmarshal([]byte(body), &resp); err != nil {
				t.Fatal(err)
			}
			a := perKind[kind]
			if a == nil {
				a = &agg{results: map[string]int{}}
				perKind[kind] = a
			}
			b, err := json.Marshal(resp.Result)
			if err != nil {
				t.Fatal(err)
			}
			a.results[string(b)]++
			if !resp.Cached {
				a.uncached++
			}
		}
	}
	if len(perKind) != len(bodies) {
		t.Fatalf("saw %d job kinds, want %d", len(perKind), len(bodies))
	}
	for kind, a := range perKind {
		if len(a.results) != 1 {
			t.Fatalf("job kind %s: %d distinct results, want byte-identical responses", kind, len(a.results))
		}
		if a.uncached != 1 {
			t.Fatalf("job kind %s: %d uncached responses, want exactly 1", kind, a.uncached)
		}
	}
	st := s.Runner().Stats()
	total := clients * perClient
	if st.Runs != len(bodies) {
		t.Fatalf("runs=%d, want %d (one per distinct job)", st.Runs, len(bodies))
	}
	if st.Hits != total-len(bodies) {
		t.Fatalf("hits=%d, want %d: cache hits must climb with request volume", st.Hits, total-len(bodies))
	}
}

// TestConcurrentSweepsMatchSerial runs many concurrent streaming sweeps
// of the same grid and checks every client's reassembled stream against
// the serial core.Run reference, byte for byte. Distinct cells simulate
// exactly once across all clients combined.
func TestConcurrentSweepsMatchSerial(t *testing.T) {
	s := testServer(t, Options{Runner: runner.New(4), MaxInflight: 128})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	w, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	freqs := cfg.Node.Table.Frequencies()
	var stratSpecs []string
	var want [][]byte
	for _, f := range freqs {
		stratSpecs = append(stratSpecs, fmt.Sprintf(`{"kind":"external","freq_mhz":%g}`, float64(f)))
		res, err := core.Run(w, core.External(f), cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(sweep.ToResultJSON(res))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	body := fmt.Sprintf(`{"workloads":[{"code":"FT","class":"S","ranks":2}],"strategies":[%s]}`,
		strings.Join(stratSpecs, ","))

	const clients = 8
	streams := make([]bytes.Buffer, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status=%d", c, resp.StatusCode)
				return
			}
			if _, err := streams[c].ReadFrom(resp.Body); err != nil {
				errs <- err
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for c := 0; c < clients; c++ {
		recs, trailer := parseNDJSON(t, &streams[c])
		if trailer.Jobs != len(want) || trailer.Errors != 0 {
			t.Fatalf("client %d: trailer=%+v", c, trailer)
		}
		if len(recs) != len(want) {
			t.Fatalf("client %d: %d records, want %d", c, len(recs), len(want))
		}
		for _, r := range recs {
			if r.Error != nil {
				t.Fatalf("client %d cell %d: %+v", c, r.Index, r.Error)
			}
			if !bytes.Equal(r.Result, want[r.Index]) {
				t.Fatalf("client %d cell %d differs from serial reference:\ngot  %s\nwant %s",
					c, r.Index, r.Result, want[r.Index])
			}
		}
	}
	if st := s.Runner().Stats(); st.Runs != len(want) {
		t.Fatalf("runs=%d, want %d: concurrent identical sweeps must coalesce", st.Runs, len(want))
	}
}
