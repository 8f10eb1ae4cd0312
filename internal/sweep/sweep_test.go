package sweep

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/sched"
)

// placerFunc adapts a function to the Placer interface.
type placerFunc func(ctx context.Context, i int, c Cell) Outcome

func (f placerFunc) Place(ctx context.Context, i int, c Cell) Outcome { return f(ctx, i, c) }

// testPlan builds an n-cell plan with synthetic keys; indexes listed in
// keyless get Key "" (uncacheable — never journaled or replayed).
func testPlan(n int, keyless ...int) *Plan {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Key: fmt.Sprintf("key-%04d", i)}
	}
	for _, i := range keyless {
		cells[i].Key = ""
	}
	return NewPlan(cells)
}

// testResult is the deterministic wire result for cell i: the same on
// every run, so resumed and uninterrupted sweeps are comparable byte for
// byte.
func testResult(i int) *ResultJSON {
	return &ResultJSON{
		Name:       fmt.Sprintf("cell-%d", i),
		Strategy:   "test",
		ElapsedSec: float64(i) + 1,
		EnergyJ:    100 * (float64(i) + 1),
	}
}

func testOutcome(i int) Outcome {
	return Outcome{Cached: i%3 == 0, Wire: testResult(i)}
}

// encodeSorted renders records index-sorted, then the summary's trailer,
// through the production encoder: the byte-level form clients diff.
func encodeSorted(t *testing.T, recs []SweepRecord, sum Summary) []byte {
	t.Helper()
	SortRecords(recs)
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, r := range recs {
		enc.Record(r)
	}
	enc.Trailer(sum)
	return buf.Bytes()
}

func TestExecuteStreamsEveryCellOnce(t *testing.T) {
	p := testPlan(8)
	var recs []SweepRecord
	outs, sum := Execute(context.Background(), p, placerFunc(func(_ context.Context, i int, _ Cell) Outcome {
		return testOutcome(i)
	}), ExecOptions{Parallel: 3, OnRecord: func(r SweepRecord) { recs = append(recs, r) }})

	if sum.Jobs != 8 || sum.Errors != 0 || sum.Resumed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if want := 3; sum.Cached != want { // indexes 0, 3, 6
		t.Fatalf("cached = %d, want %d", sum.Cached, want)
	}
	if len(recs) != 8 {
		t.Fatalf("streamed %d records, want 8", len(recs))
	}
	seen := map[int]bool{}
	for _, r := range recs {
		if seen[r.Index] {
			t.Fatalf("index %d streamed twice", r.Index)
		}
		seen[r.Index] = true
	}
	for i, o := range outs {
		if o.Wire == nil || o.Wire.Name != fmt.Sprintf("cell-%d", i) {
			t.Fatalf("outs[%d] = %+v", i, o)
		}
	}
}

func TestExecuteSerialCompletionOrder(t *testing.T) {
	p := testPlan(5)
	var order []int
	Execute(context.Background(), p, placerFunc(func(_ context.Context, i int, _ Cell) Outcome {
		return testOutcome(i)
	}), ExecOptions{Parallel: 1, OnRecord: func(r SweepRecord) { order = append(order, r.Index) }})
	for i, idx := range order {
		if idx != i {
			t.Fatalf("serial stream order = %v, want submission order", order)
		}
	}
}

func TestExecutePanickingPlacerFailsOnlyItsCell(t *testing.T) {
	p := testPlan(3)
	outs, sum := Execute(context.Background(), p, placerFunc(func(_ context.Context, i int, _ Cell) Outcome {
		if i == 1 {
			panic("boom")
		}
		return testOutcome(i)
	}), ExecOptions{Parallel: 1})

	if sum.Errors != 1 {
		t.Fatalf("errors = %d, want 1", sum.Errors)
	}
	if outs[1].Err == nil || outs[1].Err.Code != CodeSimFailed ||
		!strings.Contains(outs[1].Err.Message, "boom") {
		t.Fatalf("outs[1].Err = %v", outs[1].Err)
	}
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("neighbor cells failed: %v %v", outs[0].Err, outs[2].Err)
	}
}

// TestResumeByteIdentical is the checkpoint/resume contract: a sweep
// interrupted after some cells completed, then resumed against a fresh
// executor, re-executes only the unfinished cells yet merges to a stream
// byte-identical (index-sorted) to an uninterrupted run. The journal
// holds every completed keyed cell as the exact stream line the
// interrupted run emitted for it, whether the placer served it remotely
// or ran it in-process. Run under -race: placements, journaling, and
// emission race across workers.
func TestResumeByteIdentical(t *testing.T) {
	// A fresh placer per run, so a cell's cached flag is the same in
	// every run.
	// Each plan has a key-less (uncacheable) cell past the interruption,
	// which must re-execute even though it finished. The wire placer
	// answers cells 0 and 3 as cached, so its journal holds
	// "cached":true lines.
	inputs := []struct {
		name   string
		plan   func(*testing.T) *Plan
		placer func() Placer
		cached int // journal lines with "cached":true
	}{
		{"wire", func(*testing.T) *Plan { return testPlan(12, 7) }, func() Placer {
			return placerFunc(func(_ context.Context, i int, _ Cell) Outcome { return testOutcome(i) })
		}, 2},
		{"local", func(t *testing.T) *Plan { return ftPlan(t, 6) }, func() Placer {
			return Local{Runner: runner.New(2)}
		}, 0},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			if got := testResume(t, in.plan, in.placer); got != in.cached {
				t.Fatalf("journal has %d cached lines, want %d", got, in.cached)
			}
		})
	}
}

// ftPlan is FT.S.2 under every static point, NoDVS and the cpuspeed
// daemon; the cells listed in keyless get Key "".
func ftPlan(t *testing.T, keyless ...int) *Plan {
	w, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	strats := []core.Strategy{core.NoDVS(), core.Daemon(sched.CPUSpeedV121())}
	for _, f := range cfg.Node.Table.Frequencies() {
		strats = append(strats, core.External(f))
	}
	cells := make([]Cell, len(strats))
	for i, s := range strats {
		j := runner.Job{Workload: w, Strategy: s, Config: cfg}
		key, _ := j.Key()
		cells[i] = Cell{Key: key, Job: j}
	}
	for _, i := range keyless {
		cells[i].Key = ""
	}
	return NewPlan(cells)
}

// testResume runs the interrupted-then-resumed sweep and returns how many
// of the interrupted run's journal lines are cached ones.
func testResume(t *testing.T, plan func(*testing.T) *Plan, mkPlacer func() Placer) (cached int) {
	const done = 5 // cells 0..4 complete before the interruption
	mkPlan := func() *Plan { return plan(t) }
	n := mkPlan().Len()
	dir := t.TempDir()

	// Reference: one uninterrupted run.
	var refRecs []SweepRecord
	var mu sync.Mutex
	refOuts, refSum := Execute(context.Background(), mkPlan(), mkPlacer(), ExecOptions{Parallel: 4, OnRecord: func(r SweepRecord) {
		mu.Lock()
		refRecs = append(refRecs, r)
		mu.Unlock()
	}})
	for i, o := range refOuts {
		if o.Err != nil {
			t.Fatalf("reference cell %d failed: %v", i, o.Err)
		}
	}
	refBytes := encodeSorted(t, refRecs, refSum)

	// First run: cells with index >= done fail, as if the process died
	// mid-sweep. Completed keyed cells journal; the failed ones keep the
	// journal alive for the next run. emitted holds the stream line the
	// run sent for each cell.
	p1 := mkPlan()
	emitted := make(map[int]string)
	path := CheckpointPath(dir, p1)
	ck1, err := OpenCheckpoint(nil, path, p1)
	if err != nil {
		t.Fatal(err)
	}
	pl1 := mkPlacer()
	_, sum1 := Execute(context.Background(), p1, placerFunc(func(ctx context.Context, i int, c Cell) Outcome {
		if i >= done {
			return Outcome{Err: Errf(CodeSimFailed, "", "interrupted")}
		}
		return pl1.Place(ctx, i, c)
	}), ExecOptions{Parallel: 4, Checkpoint: ck1, OnRecord: func(r SweepRecord) {
		line, err := AppendRecord(nil, &r)
		if err != nil {
			t.Errorf("record %d: %v", r.Index, err)
		}
		emitted[r.Index] = string(line)
	}})
	if sum1.Errors == 0 {
		t.Fatal("first run reported no errors; test needs an interrupted sweep")
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("journal should survive a failed sweep: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(journal), "\n"), "\n")
	if len(lines) != 1+done {
		t.Fatalf("journal has %d lines, want a header and %d records:\n%s", len(lines), done, journal)
	}
	for _, line := range lines[1:] {
		var l streamLine
		if err := decodeLine([]byte(line), &l); err != nil || l.Result == nil {
			t.Fatalf("journal line is not a result record (%v): %s", err, line)
		}
		if want := emitted[l.Index]; line+"\n" != want {
			t.Fatalf("journal line for cell %d differs from its stream line:\njournal %s\nstream  %s", l.Index, line, want)
		}
		if l.Cached {
			cached++
		}
	}

	// Resumed run: a fresh checkpoint over the same plan replays the
	// journaled cells and executes only the remainder.
	p2 := mkPlan()
	if CheckpointPath(dir, p2) != path {
		t.Fatal("the same grid named a different journal")
	}
	ck2, err := OpenCheckpoint(nil, path, p2)
	if err != nil {
		t.Fatal(err)
	}
	placed := map[int]bool{}
	var resRecs []SweepRecord
	pl2 := mkPlacer()
	outs2, sum2 := Execute(context.Background(), p2, placerFunc(func(ctx context.Context, i int, c Cell) Outcome {
		mu.Lock()
		placed[i] = true
		mu.Unlock()
		return pl2.Place(ctx, i, c)
	}), ExecOptions{Parallel: 4, Checkpoint: ck2, OnRecord: func(r SweepRecord) {
		mu.Lock()
		resRecs = append(resRecs, r)
		mu.Unlock()
	}})

	if sum2.Resumed != done { // cells before the interruption are all keyed
		t.Fatalf("resumed = %d, want %d", sum2.Resumed, done)
	}
	for i := 0; i < done; i++ {
		if placed[i] {
			t.Fatalf("cell %d re-executed despite being journaled", i)
		}
	}
	for i := done; i < n; i++ {
		if !placed[i] {
			t.Fatalf("cell %d not executed on resume", i)
		}
	}
	if sum2.Errors != 0 {
		t.Fatalf("resumed run errors = %d", sum2.Errors)
	}
	for i, o := range outs2 {
		if o.ResultJSON() == nil {
			t.Fatalf("outs2[%d] missing result", i)
		}
	}

	// Replayed records stream before any live cell's.
	for pos, r := range resRecs[:sum2.Resumed] {
		if r.Index >= done {
			t.Fatalf("record at stream position %d is live cell %d; replayed cells must stream first", pos, r.Index)
		}
	}

	if got := encodeSorted(t, resRecs, sum2); !bytes.Equal(got, refBytes) {
		t.Fatalf("resumed stream differs from uninterrupted run:\nresumed:\n%s\nreference:\n%s", got, refBytes)
	}

	// Fully successful resume removes the journal; the next run is cold.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("journal not removed after successful sweep: %v", err)
	}
	return cached
}

// replayed executes p over ck with every live cell failing, so the
// journal survives, and returns how many cells the run replayed.
func replayed(p *Plan, ck *Checkpoint) int {
	_, sum := Execute(context.Background(), p, placerFunc(func(context.Context, int, Cell) Outcome {
		return Outcome{Err: Errf(CodeSimFailed, "", "interrupted")}
	}), ExecOptions{Parallel: 1, Checkpoint: ck})
	return sum.Resumed
}

func TestCheckpointRejectsOtherPlan(t *testing.T) {
	dir := t.TempDir()
	pA := testPlan(4)
	path := filepath.Join(dir, "shared.ndjson")
	ck, err := OpenCheckpoint(nil, path, pA)
	if err != nil {
		t.Fatal(err)
	}
	ck.append(2, testOutcome(2))
	ck.finish(false)

	// A different grid at the same path starts cold.
	pB := testPlan(5)
	ck2, err := OpenCheckpoint(nil, path, pB)
	if err != nil {
		t.Fatal(err)
	}
	if n := replayed(pB, ck2); n != 0 {
		t.Fatalf("foreign journal replayed %d cells", n)
	}
}

func TestCheckpointToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	p := testPlan(4)
	path := CheckpointPath(dir, p)
	ck, err := OpenCheckpoint(nil, path, p)
	if err != nil {
		t.Fatal(err)
	}
	ck.append(0, testOutcome(0))
	ck.append(3, testOutcome(3))
	ck.finish(false)

	// Simulate a kill mid-write: a torn, unterminated record at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":1,"result":{"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck2, err := OpenCheckpoint(nil, path, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ck2.lookup(1); ok {
		t.Fatal("torn record replayed")
	}
	for _, i := range []int{0, 3} {
		o, ok := ck2.lookup(i)
		if !ok || o.Wire == nil || o.Wire.Name != fmt.Sprintf("cell-%d", i) {
			t.Fatalf("lookup(%d) = %+v, %v", i, o, ok)
		}
	}
	if n := replayed(p, ck2); n != 2 {
		t.Fatalf("resumed = %d, want the 2 intact records", n)
	}

	// Compaction rewrote the file: reopening sees a clean journal with no
	// torn bytes left behind.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "torn") {
		t.Fatalf("torn line survived compaction:\n%s", raw)
	}
}

func TestDecodeStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Record(SweepRecord{Index: 1, Cached: true, Result: testResult(1)})
	enc.Record(SweepRecord{Index: 0, Error: Errf(CodeSimFailed, "", "nope")})
	enc.Trailer(Summary{Jobs: 2, Cached: 1, Errors: 1})

	recs, trailer, err := DecodeStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !trailer.Done || trailer.Jobs != 2 ||
		trailer.CachedCells != 1 || trailer.Errors != 1 {
		t.Fatalf("recs=%d trailer=%+v", len(recs), trailer)
	}
	if recs[0].Index != 1 || !recs[0].Cached || recs[0].Result.Name != "cell-1" {
		t.Fatalf("recs[0] = %+v", recs[0])
	}
	if recs[1].Error == nil || recs[1].Error.Code != CodeSimFailed {
		t.Fatalf("recs[1] = %+v", recs[1])
	}
}

func TestDecodeStreamTruncated(t *testing.T) {
	var buf bytes.Buffer
	NewEncoder(&buf).Record(SweepRecord{Index: 0, Result: testResult(0)})
	if _, _, err := DecodeStream(&buf); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncation error", err)
	}
}

func TestDecodeStreamRejectsDataAfterTrailer(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Trailer(Summary{})
	enc.Record(SweepRecord{Index: 0, Result: testResult(0)})
	if _, _, err := DecodeStream(&buf); err == nil ||
		!strings.Contains(err.Error(), "after done trailer") {
		t.Fatalf("err = %v, want data-after-trailer error", err)
	}
}

func TestPlanFingerprintDistinguishesGrids(t *testing.T) {
	a, b := testPlan(3), testPlan(3)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical grids fingerprint differently")
	}
	if a.Fingerprint() == testPlan(4).Fingerprint() {
		t.Fatal("different lengths share a fingerprint")
	}
	c := testPlan(3, 1) // same length, one cell keyless
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different keys share a fingerprint")
	}
}

// planSink keeps TestNewPlanAllocs's plans on the heap, as a caller's are.
var planSink *Plan

// TestNewPlanAllocs: NewPlan only wraps the cells, so a sweep that keeps
// no journal hashes nothing; the fingerprint is computed on demand and
// stays the hash journal names have always used, so a given grid keeps
// its journal file.
func TestNewPlanAllocs(t *testing.T) {
	cells := testPlan(48).Cells()
	if a := testing.AllocsPerRun(100, func() { planSink = NewPlan(cells) }); a != 1 {
		t.Errorf("NewPlan over %d cells: %v allocs, want 1", len(cells), a)
	}
	const want = "a2752f8cb705ddb27bf26b61e6f51b083c70973981ee38da8809382e3887f2c4"
	if got := testPlan(3, 1).Fingerprint(); got != want {
		t.Fatalf("fingerprint of a fixed 3-cell plan = %s, pinned at %s", got, want)
	}
}
