package runner_test

// The model version in every content address keeps results of another
// simulator out of the stores that outlive a process: a cache snapshot
// and a sweep checkpoint journal written by another model version must
// not answer for this one.

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/sweep"
)

// otherModel is a model version the current simulator is not.
const otherModel = "0"

func TestKeyStampsModelVersion(t *testing.T) {
	j := staticJobs(t)[0]
	key, ok := j.Key()
	if !ok {
		t.Fatal("job not cacheable")
	}
	if old := runner.KeyAtModel(j, otherModel); old == key || old == "" {
		t.Fatalf("key at model %q = %q, current key %q: the model version is not hashed", otherModel, old, key)
	}
}

// TestSnapshotFromOtherModelMisses writes a snapshot, restamps its keys
// as another model version would have written them, and reloads it: the
// entries load, but the job re-simulates instead of hitting.
func TestSnapshotFromOtherModelMisses(t *testing.T) {
	j := staticJobs(t)[0]
	path := filepath.Join(t.TempDir(), "cache.ndjson")
	warm := runner.New(1)
	if o := warm.Do(context.Background(), j); o.Err != nil {
		t.Fatal(o.Err)
	}
	if n, err := warm.SaveCache(path); n != 1 || err != nil {
		t.Fatalf("SaveCache = %d, %v", n, err)
	}

	// The same snapshot as this model wrote it is a hit...
	same := runner.New(1)
	if n, err := same.LoadCache(path); n != 1 || err != nil {
		t.Fatalf("LoadCache = %d, %v", n, err)
	}
	if o := same.Do(context.Background(), j); !o.Cached || same.Stats().Runs != 0 {
		t.Fatalf("same-model snapshot: cached=%v runs=%d, want a hit", o.Cached, same.Stats().Runs)
	}

	// ...and as another model wrote it, a miss.
	restamp(t, path, func(string) string { return runner.KeyAtModel(j, otherModel) })
	other := runner.New(1)
	if n, err := other.LoadCache(path); n != 1 || err != nil {
		t.Fatalf("LoadCache = %d, %v", n, err)
	}
	o := other.Do(context.Background(), j)
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.Cached || other.Stats().Runs != 1 {
		t.Fatalf("other-model snapshot: cached=%v runs=%d, want the job re-simulated", o.Cached, other.Stats().Runs)
	}
}

// restamp rewrites each snapshot line's key through f.
func restamp(t *testing.T, path string, f func(string) string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	sc := bufio.NewScanner(strings.NewReader(string(b)))
	sc.Buffer(nil, 8<<20)
	for sc.Scan() {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		var key string
		if err := json.Unmarshal(rec["key"], &key); err != nil {
			t.Fatal(err)
		}
		rec["key"], _ = json.Marshal(f(key))
		line, _ := json.Marshal(rec)
		out.Write(append(line, '\n'))
	}
	if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

type placerFunc func(context.Context, int, sweep.Cell) sweep.Outcome

func (f placerFunc) Place(ctx context.Context, i int, c sweep.Cell) sweep.Outcome {
	return f(ctx, i, c)
}

// TestJournalFromOtherModelNotReplayed interrupts a sweep whose cells
// carry another model version's keys, then runs the same grid under the
// current keys: nothing is replayed, whether the old journal sits under
// its own name or under the new plan's.
func TestJournalFromOtherModelNotReplayed(t *testing.T) {
	jobs := staticJobs(t)
	plan := func(key func(runner.Job) string) *sweep.Plan {
		cells := make([]sweep.Cell, len(jobs))
		for i, j := range jobs {
			cells[i] = sweep.Cell{Key: key(j), Job: j}
		}
		return sweep.NewPlan(cells)
	}
	current := func(j runner.Job) string { k, _ := j.Key(); return k }
	old := func(j runner.Job) string { return runner.KeyAtModel(j, otherModel) }

	for _, renamed := range []bool{false, true} {
		dir := t.TempDir()
		// The old model's sweep dies after two cells: its journal keeps them.
		p0 := plan(old)
		ck0, err := sweep.OpenCheckpoint(nil, sweep.CheckpointPath(dir, p0), p0)
		if err != nil {
			t.Fatal(err)
		}
		local := sweep.Local{Runner: runner.New(1)}
		sweep.Execute(context.Background(), p0, placerFunc(func(ctx context.Context, i int, c sweep.Cell) sweep.Outcome {
			if i >= 2 {
				return sweep.Outcome{Err: sweep.Errf(sweep.CodeSimFailed, "", "interrupted")}
			}
			return local.Place(ctx, i, c)
		}), sweep.ExecOptions{Parallel: 1, Checkpoint: ck0})
		again, err := sweep.OpenCheckpoint(nil, sweep.CheckpointPath(dir, p0), p0)
		if err != nil {
			t.Fatal(err)
		}
		// Every live cell fails again, so the journal survives this check.
		_, sum0 := sweep.Execute(context.Background(), p0, placerFunc(func(context.Context, int, sweep.Cell) sweep.Outcome {
			return sweep.Outcome{Err: sweep.Errf(sweep.CodeSimFailed, "", "interrupted")}
		}), sweep.ExecOptions{Parallel: 1, Checkpoint: again})
		if sum0.Resumed != 2 {
			t.Fatalf("old journal under its own model: resumed %d; want 2", sum0.Resumed)
		}

		p1 := plan(current)
		path := sweep.CheckpointPath(dir, p1)
		if renamed {
			if err := os.Rename(sweep.CheckpointPath(dir, p0), path); err != nil {
				t.Fatal(err)
			}
		}
		ck1, err := sweep.OpenCheckpoint(nil, path, p1)
		if err != nil {
			t.Fatal(err)
		}
		r := runner.New(1)
		_, sum := sweep.Execute(context.Background(), p1, sweep.Local{Runner: r}, sweep.ExecOptions{Parallel: 1, Checkpoint: ck1})
		if sum.Resumed != 0 || sum.Errors != 0 || r.Stats().Runs != len(jobs) {
			t.Fatalf("renamed=%v: resumed %d, errors %d, runs %d; want 0, 0, %d",
				renamed, sum.Resumed, sum.Errors, r.Stats().Runs, len(jobs))
		}
	}
}
