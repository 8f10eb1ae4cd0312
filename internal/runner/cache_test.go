package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/npb"
)

// gridJobs returns one job per static operating point of the default
// table — five distinct cacheable cells — plus NoDVS for a sixth.
func gridJobs(t *testing.T) []Job {
	t.Helper()
	w := ftS(t)
	cfg := quickCfg()
	var jobs []Job
	for _, f := range cfg.Node.Table.Frequencies() {
		jobs = append(jobs, Job{Workload: w, Strategy: core.External(f), Config: cfg})
	}
	jobs = append(jobs, Job{Workload: w, Strategy: core.NoDVS(), Config: cfg})
	return jobs
}

// TestEvictionBound is the acceptance scenario: with a bound of N cells,
// running 2N distinct cells holds resident entries at ≤ N, evicted
// cells re-simulate on resubmission, and retained cells still hit.
func TestEvictionBound(t *testing.T) {
	jobs := gridJobs(t) // 6 distinct cells
	const bound = 3
	r := NewWithOptions(Options{Workers: 1, MaxEntries: bound})
	outs := doEach(r, jobs)
	if err := firstErr(outs); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Entries > bound {
		t.Fatalf("resident entries %d exceed bound %d", st.Entries, bound)
	}
	if st.Evictions != len(jobs)-bound {
		t.Fatalf("evictions=%d, want %d", st.Evictions, len(jobs)-bound)
	}
	if st.Bytes <= 0 {
		t.Fatalf("bytes gauge %d, want > 0", st.Bytes)
	}
	// Run serially, the first len-bound cells were evicted oldest-first.
	if out := r.Do(context.Background(), jobs[0]); out.Err != nil || out.Cached {
		t.Fatalf("evicted cell: err=%v cached=%v, want fresh re-run", out.Err, out.Cached)
	}
	if out := r.Do(context.Background(), jobs[len(jobs)-1]); out.Err != nil || !out.Cached {
		t.Fatalf("retained cell: err=%v cached=%v, want hit", out.Err, out.Cached)
	}
}

// TestLRUKeepsRecentlyTouched asserts recency, not insertion order,
// decides eviction: touching an old cell saves it.
func TestLRUKeepsRecentlyTouched(t *testing.T) {
	jobs := gridJobs(t)
	const bound = 3
	r := NewWithOptions(Options{Workers: 1, MaxEntries: bound})
	ctx := context.Background()
	for _, j := range jobs[:3] { // fill: cells 0,1,2 resident
		if out := r.Do(ctx, j); out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	if out := r.Do(ctx, jobs[0]); !out.Cached { // refresh cell 0
		t.Fatal("warm cell 0 missed")
	}
	if out := r.Do(ctx, jobs[3]); out.Err != nil { // evicts cell 1, the LRU
		t.Fatal(out.Err)
	}
	if out := r.Do(ctx, jobs[0]); !out.Cached {
		t.Fatal("recently-touched cell 0 was evicted")
	}
	runsBefore := r.Stats().Runs
	if out := r.Do(ctx, jobs[1]); out.Cached {
		t.Fatal("LRU cell 1 survived eviction")
	}
	if got := r.Stats().Runs; got != runsBefore+1 {
		t.Fatalf("evicted cell did not re-simulate: runs %d → %d", runsBefore, got)
	}
}

// TestPersistenceRoundTrip is the restart scenario: snapshot a warm
// cache, load it into a fresh Runner, and get byte-identical results at
// a warm hit rate without a single new simulation.
func TestPersistenceRoundTrip(t *testing.T) {
	jobs := gridJobs(t)
	path := filepath.Join(t.TempDir(), "cache.ndjson")
	warm := New(2)
	want := doEach(warm, jobs)
	if err := firstErr(want); err != nil {
		t.Fatal(err)
	}
	n, err := warm.SaveCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs) {
		t.Fatalf("saved %d entries, want %d", n, len(jobs))
	}

	cold := New(2)
	loaded, err := cold.LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != n {
		t.Fatalf("loaded %d entries, want %d", loaded, n)
	}
	got := doEach(cold, jobs)
	for i := range jobs {
		if got[i].Err != nil {
			t.Fatalf("cell %d failed after reload: %v", i, got[i].Err)
		}
		if !got[i].Cached {
			t.Fatalf("cell %d missed after reload", i)
		}
		if !reflect.DeepEqual(got[i].Result, want[i].Result) {
			t.Fatalf("cell %d result drifted across the snapshot", i)
		}
		wb, _ := json.Marshal(want[i].Result)
		gb, _ := json.Marshal(got[i].Result)
		if string(wb) != string(gb) {
			t.Fatalf("cell %d not byte-identical across the snapshot:\n%s\n%s", i, wb, gb)
		}
	}
	if st := cold.Stats(); st.Runs != 0 || st.Hits != len(jobs) {
		t.Fatalf("after reload: runs=%d hits=%d, want 0/%d", st.Runs, st.Hits, len(jobs))
	}
}

// TestLoadRespectsBound asserts a snapshot larger than the cache bound
// keeps the most recently written (hottest-at-save) entries.
func TestLoadRespectsBound(t *testing.T) {
	jobs := gridJobs(t)
	path := filepath.Join(t.TempDir(), "cache.ndjson")
	warm := New(1)
	if err := firstErr(doEach(warm, jobs)); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	const bound = 2
	cold := NewWithOptions(Options{Workers: 1, MaxEntries: bound})
	if _, err := cold.LoadCache(path); err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Entries > bound {
		t.Fatalf("entries=%d after bounded load, want <= %d", st.Entries, bound)
	}
	// The last-run cells were the hottest at save time and must survive.
	for _, j := range jobs[len(jobs)-bound:] {
		if out := cold.Do(context.Background(), j); !out.Cached {
			t.Fatal("hot snapshot entry lost in bounded load")
		}
	}
}

// TestLoadSkipsGarbageAndMissingFile asserts degraded snapshots degrade
// the cache, never the process: corrupt lines are skipped and a missing
// file is a cold start.
func TestLoadSkipsGarbageAndMissingFile(t *testing.T) {
	dir := t.TempDir()
	if n, err := New(1).LoadCache(filepath.Join(dir, "absent.ndjson")); n != 0 || err != nil {
		t.Fatalf("missing snapshot: n=%d err=%v, want cold start", n, err)
	}

	jobs := gridJobs(t)[:2]
	path := filepath.Join(dir, "cache.ndjson")
	warm := New(1)
	if err := firstErr(doEach(warm, jobs)); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangled := append([]byte("{not json\nnull\n{\"key\":\"\"}\n"), good...)
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	cold := New(1)
	n, err := cold.LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs) {
		t.Fatalf("loaded %d entries around garbage, want %d", n, len(jobs))
	}
}

// TestSaveSkipsFailures asserts error outcomes never reach disk: a
// restart must not resurrect a failure.
func TestSaveSkipsFailures(t *testing.T) {
	w := ftS(t)
	bad := quickCfg()
	bad.Node.Table = nil // core.Run rejects this
	r := New(1)
	if out := r.Do(context.Background(), Job{Workload: w, Strategy: core.NoDVS(), Config: bad}); out.Err == nil {
		t.Fatal("bad config should fail")
	}
	if out := r.Do(context.Background(), Job{Workload: w, Strategy: core.NoDVS(), Config: quickCfg()}); out.Err != nil {
		t.Fatal(out.Err)
	}
	path := filepath.Join(t.TempDir(), "cache.ndjson")
	n, err := r.SaveCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("saved %d entries, want only the 1 success", n)
	}
}

// TestConcurrentEvictionCoalescingStress hammers a tiny cache from many
// goroutines so eviction, coalescing, re-runs, and snapshots interleave;
// run under -race this is the memo cache's thread-safety proof. Results
// must stay correct regardless of churn.
func TestConcurrentEvictionCoalescingStress(t *testing.T) {
	jobs := gridJobs(t)
	serial := make([]core.Result, len(jobs))
	for i, j := range jobs {
		res, err := core.Run(j.Workload, j.Strategy, j.Config)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	r := NewWithOptions(Options{Workers: 4, MaxEntries: 2})
	dir := t.TempDir()
	const goroutines = 8
	const iters = 24
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pick := (g*7 + i*3) % len(jobs)
				out := r.Do(context.Background(), jobs[pick])
				if out.Err != nil {
					t.Errorf("g%d i%d: %v", g, i, out.Err)
					return
				}
				if !reflect.DeepEqual(out.Result, serial[pick]) {
					t.Errorf("g%d i%d: result drifted under churn", g, i)
					return
				}
				if i%8 == 0 {
					// Snapshots race the churn on purpose.
					if _, err := r.SaveCache(filepath.Join(dir, "c.ndjson")); err != nil {
						t.Errorf("g%d i%d: save: %v", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := r.Stats(); st.Entries > 2+goroutines {
		// In-flight entries may transiently exceed the bound; resident
		// steady-state must settle near it.
		t.Fatalf("entries=%d far above bound", st.Entries)
	}
}

// TestResultSizeAllocs pins the cache-bytes pricing at zero allocations:
// an entry is sized from the result's in-memory shape, never encoded.
// The price grows with the cluster, since per-node and per-rank slices
// dominate it.
func TestResultSizeAllocs(t *testing.T) {
	price := func(ranks int) (int64, float64) {
		w, err := npb.FT(npb.ClassS, ranks)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(w, core.External(800), quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		allocs := testing.AllocsPerRun(100, func() { n = resultSize(res) })
		return n, allocs
	}
	small, allocs := price(2)
	if allocs != 0 {
		t.Fatalf("resultSize allocates %.0f objects per call, want 0", allocs)
	}
	large, _ := price(8)
	t.Logf("FT.S.2 prices at %d B, FT.S.8 at %d B", small, large)
	if small <= 0 || large <= small {
		t.Fatalf("sizes FT.S.2=%d B, FT.S.8=%d B: want positive and growing with the cluster", small, large)
	}
}
