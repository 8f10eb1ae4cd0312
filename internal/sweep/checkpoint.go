package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// checkpointV versions the journal format; a mismatched header discards
// the file rather than guessing. Version 2 journals stream lines;
// version 1 had a record form of its own.
const checkpointV = 2

// checkpointHeader is the journal's first line, binding it to one exact
// plan. Plan is the fingerprint; Cells is redundant but makes a
// mismatched grid obvious in the file itself.
type checkpointHeader struct {
	V     int    `json:"v"`
	Plan  string `json:"plan"`
	Cells int    `json:"cells"`
}

// Checkpoint is an append-only NDJSON journal of a sweep's completed
// cells: header line, then each finished cell's stream record, the
// exact line the stream sends for it (cached flag included), flushed as
// written. So a replayed record is byte-identical to the one the
// interrupted stream already emitted. Torn final lines (the process died
// mid-write) are skipped on load. One sweep per plan per directory at a
// time — concurrent sweeps over the same plan would interleave appends.
type Checkpoint struct {
	path string
	fs   FS

	mu   sync.Mutex
	f    File
	w    *bufio.Writer
	buf  []byte // reused for every appended record
	done map[int]Outcome
}

// CheckpointPath names the journal file for a plan inside dir. The name
// embeds the plan fingerprint, so different grids in the same directory
// never collide and a changed grid naturally starts cold.
func CheckpointPath(dir string, p *Plan) string {
	return filepath.Join(dir, "sweep-"+p.Fingerprint()[:16]+".ndjson")
}

// OpenCheckpoint opens (or creates) the journal at path on fsys for the
// given plan; a nil fsys means the OS filesystem (fault-injection tests
// pass a faulty one). Records from a prior interrupted run of the same
// plan are loaded for replay; a journal written for a different plan or
// format version is discarded and started fresh. The file survives with
// valid records intact: loading compacts it (temp file + rename, the
// runner.SaveCache discipline) so torn trailing lines don't accumulate.
func OpenCheckpoint(fsys FS, path string, p *Plan) (*Checkpoint, error) {
	if fsys == nil {
		fsys = OSFS
	}
	c := &Checkpoint{path: path, fs: fsys, done: make(map[int]Outcome)}

	fp := p.Fingerprint()
	var keep []SweepRecord
	if f, err := fsys.Open(path); err == nil {
		keep = c.load(f, p, fp)
		f.Close()
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}

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
	werr := json.NewEncoder(bw).Encode(checkpointHeader{V: checkpointV, Plan: fp, Cells: p.Len()})
	for i := range keep {
		if werr == nil {
			if c.buf, werr = AppendRecord(c.buf[:0], &keep[i]); werr == nil {
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

// load reads a prior journal, validates its header against the plan and
// its fingerprint fp, and returns the surviving records (also populating
// c.done). Any line that is not a result record for a cell of the plan —
// torn, an error record, a trailer, no result, an index out of range —
// ends the scan: everything before it is intact, everything after is
// suspect.
func (c *Checkpoint) load(f io.Reader, p *Plan, fp string) []SweepRecord {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), maxStreamLine)
	if !sc.Scan() {
		return nil
	}
	var h checkpointHeader
	if json.Unmarshal(sc.Bytes(), &h) != nil ||
		h.V != checkpointV || h.Plan != fp || h.Cells != p.Len() {
		return nil
	}
	var keep []SweepRecord
	for sc.Scan() {
		var l streamLine
		if decodeLine(sc.Bytes(), &l) != nil || l.Result == nil || l.Error != nil || l.Done ||
			l.Index < 0 || l.Index >= p.Len() {
			break
		}
		if _, dup := c.done[l.Index]; dup {
			continue
		}
		c.done[l.Index] = Outcome{Cached: l.Cached, Wire: l.Result}
		keep = append(keep, SweepRecord{Index: l.Index, Cached: l.Cached, Result: l.Result})
	}
	return keep
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

// append journals one completed cell as its stream record, flushed
// immediately so the record survives a kill right after the client saw
// it. Write errors are swallowed: checkpointing is best-effort and must
// never fail the sweep (worst case the cell re-executes on resume).
func (c *Checkpoint) append(i int, o Outcome) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil {
		return
	}
	rec := o.Record(i)
	if b, err := AppendRecord(c.buf[:0], &rec); err == nil {
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
