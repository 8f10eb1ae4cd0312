package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
)

// checkpointV versions the journal format; a mismatched header discards
// the file rather than guessing.
const checkpointV = 1

// maxCheckpointLine bounds one journal line; matches the runner's cache
// snapshot bound (a core.Result with per-rank stats can be large).
const maxCheckpointLine = 8 << 20

// checkpointHeader is the journal's first line, binding it to one exact
// plan. Plan is the fingerprint; Cells is redundant but makes a
// mismatched grid obvious in the file itself.
type checkpointHeader struct {
	V     int    `json:"v"`
	Plan  string `json:"plan"`
	Cells int    `json:"cells"`
}

// checkpointRecord journals one completed cell. Exactly one of Raw/Wire
// is set, mirroring the outcome it snapshots; Cached preserves the
// original run's flag so a replayed record is byte-identical to the one
// the interrupted stream already emitted.
type checkpointRecord struct {
	Index  int          `json:"index"`
	Cached bool         `json:"cached,omitempty"`
	Raw    *core.Result `json:"raw,omitempty"`
	Wire   *ResultJSON  `json:"wire,omitempty"`
}

// Checkpoint is an append-only NDJSON journal of a sweep's completed
// cells: header line, then one record per finished cell, flushed as
// written. Torn final lines (the process died mid-write) are skipped on
// load. One sweep per plan per directory at a time — concurrent sweeps
// over the same plan would interleave appends.
type Checkpoint struct {
	path string
	fs   FS

	mu      sync.Mutex
	f       File
	w       *bufio.Writer
	buf     []byte // reused for every appended record
	done    map[int]Outcome
	resumed int
}

// CheckpointPath names the journal file for a plan inside dir. The name
// embeds the plan fingerprint, so different grids in the same directory
// never collide and a changed grid naturally starts cold.
func CheckpointPath(dir string, p *Plan) string {
	return filepath.Join(dir, "sweep-"+p.Fingerprint()[:16]+".ndjson")
}

// OpenCheckpoint opens (or creates) the journal at path for the given
// plan. Records from a prior interrupted run of the same plan are loaded
// for replay; a journal written for a different plan or format version is
// discarded and started fresh. The file survives with valid records
// intact: loading compacts it (temp file + rename, the runner.SaveCache
// discipline) so torn trailing lines don't accumulate.
func OpenCheckpoint(path string, p *Plan) (*Checkpoint, error) {
	return OpenCheckpointFS(nil, path, p)
}

// OpenCheckpointFS is OpenCheckpoint with an explicit filesystem; a nil
// fsys means the real one. Fault-injection tests pass a faulty FS to
// exercise torn writes and compaction failures deterministically.
func OpenCheckpointFS(fsys FS, path string, p *Plan) (*Checkpoint, error) {
	if fsys == nil {
		fsys = OSFS
	}
	c := &Checkpoint{path: path, fs: fsys, done: make(map[int]Outcome)}

	var keep []checkpointRecord
	if f, err := fsys.Open(path); err == nil {
		keep = c.load(f, p)
		f.Close()
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	c.resumed = len(keep)

	// Rewrite header + surviving records to a temp file and rename it
	// into place, then reopen for appending: the journal on disk is
	// always a clean prefix, whatever state the last run died in. The
	// deferred Remove guarantees a failed compaction — write, close, or
	// rename error — never strands the temp file.
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".ckpt-*.ndjson")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	renamed := false
	defer func() {
		if !renamed {
			_ = fsys.Remove(tmpName)
		}
	}()
	bw := bufio.NewWriter(tmp)
	werr := json.NewEncoder(bw).Encode(checkpointHeader{V: checkpointV, Plan: p.Fingerprint(), Cells: p.Len()})
	for _, rec := range keep {
		if werr == nil {
			if c.buf, werr = rec.appendTo(c.buf[:0]); werr == nil {
				_, werr = bw.Write(c.buf)
			}
		}
	}
	if werr == nil {
		werr = bw.Flush()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = fsys.Rename(tmpName, path)
		renamed = werr == nil
	}
	if werr != nil {
		return nil, fmt.Errorf("checkpoint: compact %s: %w", path, werr)
	}

	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	c.f = f
	c.w = bufio.NewWriter(f)
	return c, nil
}

// load reads a prior journal, validates its header against the plan, and
// returns the surviving records (also populating c.done). Any decode
// failure — torn line, wrong shape — ends the scan: everything before it
// is intact, everything after is suspect.
func (c *Checkpoint) load(f io.Reader, p *Plan) []checkpointRecord {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), maxCheckpointLine)
	if !sc.Scan() {
		return nil
	}
	var h checkpointHeader
	if json.Unmarshal(sc.Bytes(), &h) != nil ||
		h.V != checkpointV || h.Plan != p.Fingerprint() || h.Cells != p.Len() {
		return nil
	}
	var keep []checkpointRecord
	for sc.Scan() {
		var rec checkpointRecord
		if decodeCheckpointRecord(sc.Bytes(), &rec) != nil {
			break
		}
		if rec.Index < 0 || rec.Index >= p.Len() || (rec.Raw == nil && rec.Wire == nil) {
			break
		}
		if _, dup := c.done[rec.Index]; dup {
			continue
		}
		c.done[rec.Index] = Outcome{Cached: rec.Cached, Raw: rec.Raw, Wire: rec.Wire}
		keep = append(keep, rec)
	}
	return keep
}

// Path returns the journal's file path.
func (c *Checkpoint) Path() string {
	if c == nil {
		return ""
	}
	return c.path
}

// Resumed returns how many cells the journal replays for this run.
func (c *Checkpoint) Resumed() int {
	if c == nil {
		return 0
	}
	return c.resumed
}

// lookup returns the journaled outcome for cell i, if a prior run
// finished it. Nil-safe so the executor needs no checkpoint branch.
func (c *Checkpoint) lookup(i int) (Outcome, bool) {
	if c == nil {
		return Outcome{}, false
	}
	o, ok := c.done[i]
	return o, ok
}

// append journals one completed cell, flushed immediately so the record
// survives a kill right after the client saw it. Write errors are
// swallowed: checkpointing is best-effort and must never fail the sweep
// (worst case the cell re-executes on resume).
func (c *Checkpoint) append(i int, o Outcome) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil {
		return
	}
	rec := checkpointRecord{Index: i, Cached: o.Cached, Raw: o.Raw, Wire: o.Wire}
	if b, err := rec.appendTo(c.buf[:0]); err == nil {
		c.buf = b
		_, _ = c.w.Write(b)
	}
	_ = c.w.Flush()
}

// finish closes the journal: removed after a fully successful sweep
// (nothing left to resume), kept otherwise so the next run replays it.
func (c *Checkpoint) finish(success bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w != nil {
		_ = c.w.Flush()
		c.w = nil
	}
	if c.f != nil {
		_ = c.f.Close()
		c.f = nil
	}
	if success {
		_ = c.fs.Remove(c.path)
	}
}
