package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sweep"
)

// held returns the number of plans and of cells the memo holds.
func (m *planMemo) held() (plans, cells int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.plans), m.cells
}

// stubPlacer answers every cell at once with a wire result naming its
// index, unless the request is done; each placement first calls onPlace,
// when set.
type stubPlacer struct {
	placed  *atomic.Int64
	onPlace func(i int)
}

func (p stubPlacer) Place(ctx context.Context, i int, _ sweep.Cell) sweep.Outcome {
	p.placed.Add(1)
	if p.onPlace != nil {
		p.onPlace(i)
	}
	if err := ctx.Err(); err != nil {
		return sweep.Outcome{Err: sweep.OutcomeError(err)}
	}
	return sweep.Outcome{Wire: &sweep.ResultJSON{Name: fmt.Sprintf("cell-%d", i)}}
}

// stubFrontend is a frontend over a stubPlacer placing one cell at a
// time; placed counts its placements.
func stubFrontend(opts Options, onPlace func(i int)) (f *Frontend, placed *atomic.Int64) {
	placed = new(atomic.Int64)
	return NewFrontend(opts, Daemon{Name: "stub", Placer: stubPlacer{placed, onPlace}, Parallel: 1}), placed
}

// postTo runs one POST through h.
func postTo(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// ftGrid is a FT.S.2 grid over the given strategies, with extra top-level
// fields (such as `,"timeout_ms":1`) appended.
func ftGrid(extra string, strategies ...string) string {
	return `{"workloads":[{"code":"FT","class":"S","ranks":2}],"strategies":[` +
		strings.Join(strategies, ",") + `]` + extra + `}`
}

func freq(mhz int) string { return fmt.Sprintf(`{"kind":"external","freq_mhz":%d}`, mhz) }

// streamRecords returns a /sweep stream's record lines ordered by index,
// each without its cached flag, and the trailer.
func streamRecords(t *testing.T, body []byte) ([]string, *sweep.SweepTrailer) {
	t.Helper()
	_, trailer, err := sweep.DecodeStream(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("decode stream: %v\n%s", err, body)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
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

// planHits reads the frontend's plan-hit counter.
func planHits(f *Frontend) int64 { return f.planHits.Load() }

// TestTrailingBytesRejected: a body is exactly one JSON value. Anything
// but whitespace after it, on either path, is the typed 400 bad_request,
// before any cell is placed.
func TestTrailingBytesRejected(t *testing.T) {
	sweepBody := ftGrid("", freq(600), freq(800))
	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"simulate garbage", "/simulate", simFTS2 + ` this is not json {`, http.StatusBadRequest},
		{"simulate second value", "/simulate", simFTS2 + `{"jobs":"x"}`, http.StatusBadRequest},
		{"simulate lone brace", "/simulate", simFTS2 + `}`, http.StatusBadRequest},
		{"simulate lone bracket", "/simulate", simFTS2 + ` ]`, http.StatusBadRequest},
		{"simulate number", "/simulate", simFTS2 + "\n1", http.StatusBadRequest},
		{"simulate whitespace", "/simulate", simFTS2 + " \t\r\n", http.StatusOK},
		{"sweep garbage", "/sweep", sweepBody + ` this is not json {`, http.StatusBadRequest},
		{"sweep second value", "/sweep", sweepBody + `{"jobs":"x"}`, http.StatusBadRequest},
		{"sweep lone brace", "/sweep", sweepBody + `}`, http.StatusBadRequest},
		{"sweep comma", "/sweep", sweepBody + `,`, http.StatusBadRequest},
		{"sweep whitespace", "/sweep", "\n" + sweepBody + "\n\n", http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, placed := stubFrontend(Options{}, nil)
			rec := postTo(f.Handler(), tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if tc.status == http.StatusOK {
				return
			}
			if ae := errEnvelope(t, rec); ae.Code != sweep.CodeBadRequest {
				t.Fatalf("error %+v, want bad_request", ae)
			}
			if n := placed.Load(); n != 0 {
				t.Fatalf("a rejected body placed %d cells", n)
			}
			if plans, _ := f.plans.held(); plans != 0 {
				t.Fatalf("a rejected body left %d plans in the memo", plans)
			}
		})
	}
}

// TestSweepPlanHitSameRecords: on dvsd, a repeated grid reuses the first
// post's plan, and its stream carries the same record bytes, sorted by
// index and apart from the cached flag, as the first post's.
func TestSweepPlanHitSameRecords(t *testing.T) {
	s := testServer(t, Options{})
	body := `{"workloads":[{"code":"FT","class":"S","ranks":2},{"code":"EP","class":"S","ranks":2}],
	          "strategies":[{"kind":"nodvs"},{"kind":"external","freq_mhz":600},{"kind":"daemon"}]}`
	miss := post(s, "/sweep", body)
	hit := post(s, "/sweep", body)
	if miss.Code != http.StatusOK || hit.Code != http.StatusOK {
		t.Fatalf("status %d then %d", miss.Code, hit.Code)
	}
	if n := planHits(s.Frontend); n != 1 {
		t.Fatalf("plan hits = %d, want 1 (the repeat)", n)
	}
	missRecs, missTrailer := streamRecords(t, miss.Body.Bytes())
	hitRecs, hitTrailer := streamRecords(t, hit.Body.Bytes())
	if missTrailer.Jobs != 6 || missTrailer.Errors != 0 || missTrailer.CachedCells != 0 {
		t.Fatalf("first trailer %+v, want 6 fresh cells", missTrailer)
	}
	if hitTrailer.Jobs != 6 || hitTrailer.Errors != 0 || hitTrailer.CachedCells != 6 {
		t.Fatalf("repeat trailer %+v, want 6 cached cells", hitTrailer)
	}
	if !slices.Equal(missRecs, hitRecs) {
		t.Fatalf("the repeat streamed other records:\nfirst:  %q\nrepeat: %q", missRecs, hitRecs)
	}
}

// TestSweepInvalidBodyNotStored: an invalid body posted twice is decoded
// and rejected twice with the same typed 400, and the memo stays empty.
func TestSweepInvalidBodyNotStored(t *testing.T) {
	for _, body := range []string{
		ftGrid("", freq(600), freq(700)),           // no 700 MHz point
		ftGrid(`,"jobs":[`+simFTS2+`]`, freq(600)), // both forms
		ftGrid("", freq(600)) + "}",                // trailing byte
	} {
		f, placed := stubFrontend(Options{}, nil)
		first := postTo(f.Handler(), "/sweep", body)
		second := postTo(f.Handler(), "/sweep", body)
		if first.Code != http.StatusBadRequest || errEnvelope(t, first).Code == "" {
			t.Fatalf("%s: status %d %s, want a typed 400", body, first.Code, first.Body)
		}
		if second.Code != first.Code || second.Body.String() != first.Body.String() {
			t.Fatalf("%s: second post answered %d %s, first %d %s", body, second.Code, second.Body, first.Code, first.Body)
		}
		if plans, cells := f.plans.held(); plans != 0 || cells != 0 || planHits(f) != 0 || placed.Load() != 0 {
			t.Fatalf("%s: memo holds %d plans of %d cells, %d hits, %d cells placed; want none", body, plans, cells, planHits(f), placed.Load())
		}
	}
}

// TestSweepPlanMemoBound: the memo holds at most MaxJobs cells in total
// and evicts the least recently used plan to make room.
func TestSweepPlanMemoBound(t *testing.T) {
	const maxJobs = 6
	f, _ := stubFrontend(Options{MaxJobs: maxJobs}, nil)
	a := ftGrid("", freq(600), freq(800), freq(1000), freq(1200)) // 4 cells
	b := ftGrid("", freq(600), freq(800))                         // 2 cells
	c := ftGrid("", freq(1000), freq(1200))                       // 2 cells
	for _, step := range []struct {
		body  string
		hit   bool
		plans int // held after the post
	}{
		{a, false, 1},
		{b, false, 2},
		{a, true, 2},  // a is now the most recently used
		{c, false, 2}, // evicts b, the least recently used
		{a, true, 2},
		{b, false, 2}, // evicts c
		{c, false, 2}, // evicts a
		{a, false, 2}, // evicts b; c's 2 cells and a's 4 fill the bound
		{b, false, 2}, // evicts c, then a
	} {
		hits := planHits(f)
		if rec := postTo(f.Handler(), "/sweep", step.body); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if hit := planHits(f) > hits; hit != step.hit {
			t.Fatalf("%s: plan hit %v, want %v", step.body, hit, step.hit)
		}
		plans, cells := f.plans.held()
		if cells > maxJobs || plans != step.plans {
			t.Fatalf("%s: memo holds %d plans of %d cells, want %d plans of at most %d", step.body, plans, cells, step.plans, maxJobs)
		}
	}
}

// TestSweepPlanTimeoutPerBody: two bodies differing only in timeout_ms
// are two plans, each with its own deadline, on the first post and on
// the repeat.
func TestSweepPlanTimeoutPerBody(t *testing.T) {
	s := testServer(t, Options{})
	expired := ftGrid(`,"timeout_ms":1e-9`, freq(600), freq(800))
	open := ftGrid(`,"timeout_ms":60000`, freq(600), freq(800))
	for round := 0; round < 2; round++ {
		for _, tc := range []struct {
			body   string
			errors int
		}{{expired, 2}, {open, 0}} {
			rec := post(s, "/sweep", tc.body)
			recs, trailer := parseNDJSON(t, rec.Body)
			if trailer.Errors != tc.errors {
				t.Fatalf("round %d, %s: trailer %+v, want %d errors", round, tc.body, trailer, tc.errors)
			}
			for _, r := range recs {
				if tc.errors > 0 && (r.Error == nil || r.Error.Code != sweep.CodeDeadlineExceeded) {
					t.Fatalf("round %d, %s: record %+v, want deadline_exceeded", round, tc.body, r)
				}
			}
		}
	}
	if n := planHits(s.Frontend); n != 2 {
		t.Fatalf("plan hits = %d, want 2 (the second round)", n)
	}
	if st := s.Runner().Stats(); st.Runs != 2 {
		t.Fatalf("runs = %d, want 2 (the open body's cells, once)", st.Runs)
	}
}

// TestSweepPlanHitStillSheds: a repeated body skips planning, not
// admission: with the gate full it is shed with 429 and places nothing.
func TestSweepPlanHitStillSheds(t *testing.T) {
	f, placed := stubFrontend(Options{MaxInflight: 1}, nil)
	body := ftGrid("", freq(600), freq(800))
	if rec := postTo(f.Handler(), "/sweep", body); rec.Code != http.StatusOK {
		t.Fatalf("first post: status %d", rec.Code)
	}
	if !f.gate.tryAcquire() {
		t.Fatal("could not saturate the gate")
	}
	rec := postTo(f.Handler(), "/sweep", body)
	f.gate.release()
	if rec.Code != http.StatusTooManyRequests || errEnvelope(t, rec).Code != sweep.CodeQueueFull {
		t.Fatalf("repeat with the gate full: status %d %s, want 429 queue_full", rec.Code, rec.Body)
	}
	if planHits(f) != 1 || placed.Load() != 2 {
		t.Fatalf("plan hits %d, cells placed %d; want 1 hit and only the first post's 2 cells", planHits(f), placed.Load())
	}
}

// TestSweepPlanHitResumes: a journaled sweep interrupted mid-way and
// posted again resumes from its journal when the repeat reuses the
// plan, and its stream completes.
func TestSweepPlanHitResumes(t *testing.T) {
	const done = 2 // cells that finish before the interruption
	var cancel context.CancelFunc
	f, placed := stubFrontend(Options{CheckpointDir: t.TempDir()}, func(i int) {
		if i == done && cancel != nil {
			cancel()
		}
	})
	body := ftGrid("", freq(600), freq(800), freq(1000), freq(1200), `{"kind":"nodvs"}`)
	var ctx context.Context
	ctx, cancel = context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body)).WithContext(ctx))
	if _, trailer := parseNDJSON(t, rec.Body); trailer.Errors != 5-done {
		t.Fatalf("interrupted sweep: trailer %+v, want %d canceled cells", trailer, 5-done)
	}
	cancel = nil

	placed.Store(0)
	rec = postTo(f.Handler(), "/sweep", body)
	if _, trailer := parseNDJSON(t, rec.Body); trailer.Jobs != 5 || trailer.Errors != 0 {
		t.Fatalf("resumed sweep: trailer %+v, want 5 cells and no errors", trailer)
	}
	if planHits(f) != 1 || f.Resumed() != done || placed.Load() != 5-done {
		t.Fatalf("plan hits %d, resumed %d, placed %d; want 1, %d, %d", planHits(f), f.Resumed(), placed.Load(), done, 5-done)
	}
}
