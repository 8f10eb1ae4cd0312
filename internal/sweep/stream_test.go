package sweep

import (
	"bufio"
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// flushRecorder is a streaming http.ResponseWriter that counts flushes
// and runs onFlush, if set, on each one.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
	onFlush func(body string)
}

func (w *flushRecorder) Flush() {
	w.flushes++
	if w.onFlush != nil {
		w.onFlush(w.Body.String())
	}
}

// TestStreamFlushesOncePerBatch: records that are ready together leave in
// one flush. Two workers share 8 cells. The first record's observer holds
// the stream until the other worker has started the last cell, so the
// cells between are all ready when the stream is free; the last cell
// returns only once that batch is flushed. That makes three flushes
// before the trailer's, where a flush per record makes eight.
func TestStreamFlushesOncePerBatch(t *testing.T) {
	const n = 8
	lastStarted, twoFlushed := make(chan struct{}), make(chan struct{})
	wait := func(ch chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Error("waited 5 s for " + what)
		}
	}
	w := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	w.onFlush = func(string) {
		if w.flushes == 2 {
			close(twoFlushed)
		}
	}
	pl := placerFunc(func(_ context.Context, i int, _ Cell) Outcome {
		if i == n-1 {
			close(lastStarted)
			wait(twoFlushed, "the second flush")
		}
		return testOutcome(i)
	})
	enc := NewEncoder(w)
	first := true
	_, sum := Execute(context.Background(), testPlan(n), pl, ExecOptions{
		Parallel: 2,
		OnRecord: func(r SweepRecord) {
			if first {
				first = false
				wait(lastStarted, "the other worker to start the last cell")
			}
			enc.Record(r)
		},
		Flush: enc.Flush,
	})
	if w.flushes != 3 {
		t.Errorf("%d flushes before the trailer, want 3", w.flushes)
	}
	enc.Trailer(sum)
	recs, trailer, err := DecodeStream(w.Body)
	if err != nil || len(recs) != n || trailer.Jobs != n {
		t.Fatalf("stream: %d records, trailer %+v, err %v", len(recs), trailer, err)
	}
}

// TestStreamFlushesBeforeNextCell: a record does not wait for cells still
// running. Cell 1's placement blocks until cell 0's line has been flushed
// to the client, so a stream that held its records back (until the
// trailer, or until more records arrive) fails here after 5 s.
func TestStreamFlushesBeforeNextCell(t *testing.T) {
	flushed0 := make(chan struct{})
	var once sync.Once
	w := &flushRecorder{ResponseRecorder: httptest.NewRecorder(), onFlush: func(body string) {
		if strings.Contains(body, `{"index":0,`) {
			once.Do(func() { close(flushed0) })
		}
	}}
	pl := placerFunc(func(_ context.Context, i int, _ Cell) Outcome {
		if i == 1 {
			select {
			case <-flushed0:
			case <-time.After(5 * time.Second):
				t.Error("cell 0's record was not flushed while cell 1 ran")
			}
		}
		return testOutcome(i)
	})
	enc := NewEncoder(w)
	_, sum := Execute(context.Background(), testPlan(2), pl, ExecOptions{Parallel: 2, OnRecord: enc.Record, Flush: enc.Flush})
	if sum.Errors != 0 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestStreamJournalsBeforeEmit: every record is in the checkpoint journal
// before its line reaches the stream, so a cell a client saw is always
// resumable, at every parallelism.
func TestStreamJournalsBeforeEmit(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		plan := testPlan(12)
		path := CheckpointPath(t.TempDir(), plan)
		ck, err := OpenCheckpoint(nil, path, plan)
		if err != nil {
			t.Fatal(err)
		}
		streamed := 0
		_, sum := Execute(context.Background(), plan, placerFunc(func(_ context.Context, i int, _ Cell) Outcome {
			return testOutcome(i)
		}), ExecOptions{Parallel: parallel, Checkpoint: ck, OnRecord: func(r SweepRecord) {
			streamed++
			if !journaled(t, path, r.Index) {
				t.Errorf("parallel=%d: cell %d streamed before it was journaled", parallel, r.Index)
			}
		}})
		if streamed != 12 || sum.Errors != 0 {
			t.Fatalf("parallel=%d: streamed %d records, summary %+v", parallel, streamed, sum)
		}
	}
}

// journaled reports whether the journal at path holds a record for cell i.
func journaled(t *testing.T, path string, i int) bool {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("read journal: %v", err)
		return false
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, maxStreamLine)
	sc.Scan() // the header
	for sc.Scan() {
		var l streamLine
		if err := decodeLine(sc.Bytes(), &l); err != nil {
			t.Errorf("journal line %q: %v", sc.Bytes(), err)
			return false
		}
		if l.Index == i {
			return true
		}
	}
	return false
}
