package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sweep"
)

// memoLen counts the memoized results.
func memoLen(g *Gateway) int {
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	return len(g.memo.cells)
}

// TestMemoEvictsLeastRecentlyUsed: at its bound the memo drops the
// result used longest ago; a get refreshes, and a re-put replaces the
// value without growing the memo.
func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	m := newMemo(2)
	res := func(name string) sweep.ResultJSON { return sweep.ResultJSON{Name: name} }
	m.put("a", res("a"))
	m.put("b", res("b"))
	if _, ok := m.get("a"); !ok { // a is now the most recently used
		t.Fatal("a missing below the bound")
	}
	m.put("c", res("c")) // evicts b
	if _, ok := m.get("b"); ok {
		t.Fatal("b survived: eviction did not take the least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if r, ok := m.get(k); !ok || r.Name != k {
			t.Fatalf("get(%q) = %+v, %v; want its own result", k, r, ok)
		}
	}
	m.put("a", res("a2"))
	if r, _ := m.get("a"); r.Name != "a2" || len(m.cells) != 2 {
		t.Fatalf("re-put: get(a) = %+v with %d entries; want a2 with 2", r, len(m.cells))
	}
}

// TestMemoFullPutAllocFree pins the store path of a stream of fresh
// cells: a put on a full memo reuses the evicted element for the new
// result, so it allocates nothing.
func TestMemoFullPutAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const bound = 64
	m := newMemo(bound)
	// Cycling through four bounds' worth of keys, each put's key was
	// evicted long ago: every put misses and stores at the bound.
	keys := make([]string, 4*bound)
	for i := range keys {
		keys[i] = fmt.Sprint("cell-", i)
	}
	for _, k := range keys[:bound] {
		m.put(k, sweep.ResultJSON{Name: k})
	}
	next := bound
	allocs := testing.AllocsPerRun(1000, func() {
		k := keys[next%len(keys)]
		m.put(k, sweep.ResultJSON{Name: k})
		next++
	})
	if allocs != 0 || len(m.cells) != bound {
		t.Fatalf("put on a full memo: %.0f allocs with %d entries; want 0 with %d", allocs, len(m.cells), bound)
	}
}

// TestMemoConcurrentUse drives one small memo from many goroutines, so
// the race detector sees every path (hit, miss, store, evict) at once.
func TestMemoConcurrentUse(t *testing.T) {
	m := newMemo(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprint((w*7 + i) % 20)
				if r, ok := m.get(k); ok && r.Name != k {
					t.Errorf("get(%q) returned %q", k, r.Name)
					return
				}
				m.put(k, sweep.ResultJSON{Name: k})
			}
		}(w)
	}
	wg.Wait()
	if len(m.cells) > 8 {
		t.Fatalf("memo holds %d results past its bound of 8", len(m.cells))
	}
}

// TestMemoStoresOnlyBackendAnswers: only a backend's successful answer
// is memoized. A typed rejection and a local-fallback result take the
// full ladder again when repeated.
func TestMemoStoresOnlyBackendAnswers(t *testing.T) {
	t.Run("typed rejection", func(t *testing.T) {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":{"code":"sim_failed","message":"rank 1 deadlocked"}}`))
		}))
		defer ts.Close()
		g := newGateway(t, Options{Peers: []string{ts.URL}})
		for i := 0; i < 2; i++ {
			if rec := postGW(g, "/simulate", simFTS2); rec.Code != http.StatusInternalServerError {
				t.Fatalf("post %d: status=%d body=%s, want the relayed 500", i, rec.Code, rec.Body.String())
			}
		}
		if calls.Load() != 2 || g.Counters().MemoHits != 0 || memoLen(g) != 0 {
			t.Fatalf("backend requests = %d, memo hits = %d, memoized = %d; want 2, 0, 0",
				calls.Load(), g.Counters().MemoHits, memoLen(g))
		}
	})
	t.Run("local fallback", func(t *testing.T) {
		g := newGateway(t, Options{Peers: []string{deadURL(t)}, MaxAttempts: 1})
		c := sweepCells(t)[0]
		for i := 0; i < 2; i++ {
			if out := g.Place(context.Background(), 0, c); out.Err != nil || out.Raw == nil {
				t.Fatalf("place %d: %+v, want a local full-fidelity result", i, out)
			}
		}
		if c := g.Counters(); c.Local != 2 || c.MemoHits != 0 || memoLen(g) != 0 {
			t.Fatalf("counters = %+v, memoized = %d; want both placements local and nothing memoized", c, memoLen(g))
		}
	})
}
