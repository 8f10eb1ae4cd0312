package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// snapshotRecord is one NDJSON line of a cache snapshot: a content
// address and the successful result it resolves to. Error outcomes and
// in-flight runs are never persisted.
type snapshotRecord struct {
	Key    string      `json:"key"`
	Result core.Result `json:"result"`
}

// maxSnapshotLine bounds a single snapshot record; per-node detail grows
// O(ranks), so even large clusters stay far under this.
const maxSnapshotLine = 8 << 20

// SaveCache writes the completed, successful memo entries to path as
// NDJSON, least recently used first, so a bounded reload keeps the
// hottest cells. The snapshot lands via temp file + rename in path's
// directory: a crash mid-write never corrupts an existing snapshot.
// It returns the number of entries written.
func (r *Runner) SaveCache(path string) (int, error) {
	// Snapshot under the lock, write outside it: results are immutable
	// once completed, so sharing the slices is safe.
	r.mu.Lock()
	recs := make([]snapshotRecord, 0, len(r.cache))
	for l := r.lru.Oldest(); l != nil; l = r.lru.Newer(l) {
		if e := l.Value; e.completed && e.err == nil {
			recs = append(recs, snapshotRecord{Key: e.key, Result: e.res})
		}
	}
	r.mu.Unlock()

	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("runner: snapshot dir: %w", err)
	}
	f, err := os.CreateTemp(dir, ".cache-*.ndjson")
	if err != nil {
		return 0, fmt.Errorf("runner: snapshot temp: %w", err)
	}
	tmp := f.Name()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			os.Remove(tmp)
			return 0, fmt.Errorf("runner: snapshot encode: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("runner: snapshot flush: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("runner: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("runner: snapshot rename: %w", err)
	}
	return len(recs), nil
}

// LoadCache merges a SaveCache snapshot into the cache as completed
// entries and returns how many it added. A missing file is a cold start,
// not an error. Lines that fail to decode are skipped — a snapshot from
// an older result schema degrades to a cold cache rather than failing
// startup — as are keys already resident. The cache bound applies: when
// a snapshot holds more than MaxEntries, the most recently written (the
// hottest at save time) survive.
func (r *Runner) LoadCache(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("runner: snapshot open: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), maxSnapshotLine)
	loaded := 0
	r.mu.Lock()
	defer r.mu.Unlock()
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec snapshotRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			continue
		}
		if _, ok := r.cache[rec.Key]; ok {
			continue
		}
		done := make(chan struct{})
		close(done)
		e := &entry{key: rec.Key, done: done, res: rec.Result, completed: true}
		e.size = int64(len(e.key)) + resultSize(rec.Result)
		r.insert(e)
		r.bytes += e.size
		loaded++
		// Inserting in file order keeps the snapshot's recency: each
		// line lands at the front, so the last (hottest) line ends most
		// recent and the bound evicts from the oldest lines first.
		r.evictOverBound()
	}
	if err := sc.Err(); err != nil {
		return loaded, fmt.Errorf("runner: snapshot read: %w", err)
	}
	return loaded, nil
}
