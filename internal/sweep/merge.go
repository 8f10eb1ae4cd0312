package sweep

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
)

// Encoder writes the NDJSON sweep stream: one SweepRecord line per cell
// in completion order, then a SweepTrailer. It is the single encode path
// for dvsd, dvsgw, and every test harness. Not safe for concurrent use —
// the executor's serialized OnRecord callback is the intended caller.
type Encoder struct {
	w       io.Writer
	flusher http.Flusher
	buf     []byte // reused for every line
}

// NewEncoder wraps w. When w is an http.ResponseWriter that supports
// flushing, each line is flushed as it is written so clients observe
// per-cell progress.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{w: w}
	if f, ok := w.(http.Flusher); ok {
		e.flusher = f
	}
	return e
}

// Record writes one cell line. A result the wire cannot carry is sent as
// the cell's sim_failed error record, never dropped; Execute has already
// failed such cells (and counted them), so this is a backstop for other
// callers.
func (e *Encoder) Record(rec SweepRecord) {
	b, err := AppendRecord(e.buf[:0], &rec)
	if err != nil {
		b, _ = AppendRecord(e.buf[:0], &SweepRecord{Index: rec.Index, Error: OutcomeError(err)})
	}
	e.line(b)
}

// Trailer writes the done line from the executed sweep's summary.
func (e *Encoder) Trailer(s Summary) {
	e.line(appendTrailer(e.buf[:0], &SweepTrailer{Done: true, Jobs: s.Jobs, CachedCells: s.Cached, Errors: s.Errors}))
}

func (e *Encoder) line(b []byte) {
	e.buf = b
	_, _ = e.w.Write(b)
	if e.flusher != nil {
		e.flusher.Flush()
	}
}

// maxStreamLine bounds one NDJSON line; matches the read limit clients
// already apply to daemon responses.
const maxStreamLine = 1 << 20

// streamLine is the union shape of any stream line: a record's fields
// plus the trailer's. "cached_cells" vs the record's "cached" keeps the
// two decodable from one struct.
type streamLine struct {
	Index       int         `json:"index"`
	Cached      bool        `json:"cached"`
	Result      *ResultJSON `json:"result"`
	Error       *APIError   `json:"error"`
	Done        bool        `json:"done"`
	Jobs        int         `json:"jobs"`
	CachedCells int         `json:"cached_cells"`
	Errors      int         `json:"errors"`
}

// DecodeStream reads a complete sweep stream: the cell records in the
// order they arrived, and the trailer. A stream without a done trailer is
// truncated and returns an error — callers must treat partial streams as
// failed sweeps, never as short ones.
func DecodeStream(r io.Reader) ([]SweepRecord, *SweepTrailer, error) {
	sc := bufio.NewScanner(r)
	// A record line is a few hundred bytes; the scanner grows its buffer
	// for longer lines, up to the bound.
	sc.Buffer(make([]byte, 4<<10), maxStreamLine)
	var recs []SweepRecord
	var trailer *SweepTrailer
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if trailer != nil {
			return recs, trailer, fmt.Errorf("sweep stream: data after done trailer: %q", line)
		}
		var l streamLine
		if err := decodeLine(line, &l); err != nil {
			return recs, nil, fmt.Errorf("sweep stream: bad line: %w", err)
		}
		if l.Done {
			trailer = &SweepTrailer{Done: true, Jobs: l.Jobs, CachedCells: l.CachedCells, Errors: l.Errors}
			continue
		}
		recs = append(recs, SweepRecord{Index: l.Index, Cached: l.Cached, Result: l.Result, Error: l.Error})
	}
	if err := sc.Err(); err != nil {
		return recs, nil, fmt.Errorf("sweep stream: %w", err)
	}
	if trailer == nil {
		return recs, nil, fmt.Errorf("sweep stream: truncated (no done trailer after %d records)", len(recs))
	}
	return recs, trailer, nil
}

// SortRecords orders records by submission index, turning a
// completion-order stream back into plan order.
func SortRecords(recs []SweepRecord) {
	sort.Slice(recs, func(a, b int) bool { return recs[a].Index < recs[b].Index })
}
