package runner_test

// Every sweep runs through sweep.Execute over sweep.Local, which calls
// the runner's DoKey from a bounded worker set. These tests pin what a
// sweep sees of the runner there: results independent of the
// parallelism, memoization and coalescing across cells, job-boundary
// cancellation, one observation per record, and failure isolation.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/sweep"
)

func ftS(t testing.TB) npb.Workload {
	t.Helper()
	w, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// staticJobs returns one External job per operating point of the
// default table: five distinct cacheable cells.
func staticJobs(t testing.TB) []runner.Job {
	w := ftS(t)
	cfg := core.DefaultConfig()
	var jobs []runner.Job
	for _, f := range cfg.Node.Table.Frequencies() {
		jobs = append(jobs, runner.Job{Workload: w, Strategy: core.External(f), Config: cfg})
	}
	return jobs
}

// execute runs jobs as one sweep over r at r's capacity, the way
// experiments.Options.Sweep and dvsd do.
func execute(ctx context.Context, r *runner.Runner, jobs []runner.Job, onRecord func(sweep.SweepRecord)) []sweep.Outcome {
	cells := make([]sweep.Cell, len(jobs))
	for i, j := range jobs {
		key, _ := j.Key()
		cells[i] = sweep.Cell{Key: key, Job: j}
	}
	outs, _ := sweep.Execute(ctx, sweep.NewPlan(cells), sweep.Local{Runner: r},
		sweep.ExecOptions{Parallel: r.Workers(), OnRecord: onRecord})
	return outs
}

// TestSweepMatchesSerial proves the determinism guarantee at the Result
// level: a parallel sweep returns exactly what per-job serial core.Run
// returns, in submission order.
func TestSweepMatchesSerial(t *testing.T) {
	jobs := staticJobs(t)
	jobs = append(jobs, runner.Job{Workload: ftS(t), Strategy: core.NoDVS(), Config: core.DefaultConfig()})
	serial := make([]core.Result, len(jobs))
	for i, j := range jobs {
		r, err := core.Run(j.Workload, j.Strategy, j.Config)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	for _, workers := range []int{1, 2, 8} {
		outs := execute(context.Background(), runner.New(workers), jobs, nil)
		for i := range outs {
			if outs[i].Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, outs[i].Err)
			}
			if !reflect.DeepEqual(*outs[i].Raw, serial[i]) {
				t.Fatalf("workers=%d: job %d result differs from serial run", workers, i)
			}
		}
	}
}

// TestRepeatedCellSimulatesOnce asserts the memo cache: a duplicated grid
// cell — within one sweep and across calls — runs exactly one simulation.
func TestRepeatedCellSimulatesOnce(t *testing.T) {
	job := staticJobs(t)[0]
	r := runner.New(4)
	outs := execute(context.Background(), r, []runner.Job{job, job, job, job}, nil)
	for i := range outs {
		if outs[i].Err != nil {
			t.Fatal(outs[i].Err)
		}
		if !reflect.DeepEqual(*outs[i].Raw, *outs[0].Raw) {
			t.Fatalf("coalesced outcome %d differs", i)
		}
	}
	if st := r.Stats(); st.Runs != 1 || st.Hits != 3 {
		t.Fatalf("after one sweep of 4 identical jobs: runs=%d hits=%d, want 1/3", st.Runs, st.Hits)
	}
	if out := r.Do(context.Background(), job); out.Err != nil || !out.Cached {
		t.Fatalf("repeat call: err=%v cached=%v, want a hit", out.Err, out.Cached)
	}
	if st := r.Stats(); st.Runs != 1 || st.Hits != 4 {
		t.Fatalf("after repeat call: runs=%d hits=%d, want 1/4", st.Runs, st.Hits)
	}
}

// TestSweepPropagatesErrors: a failing cell gets an error outcome at its
// own index and does not fail its neighbours.
func TestSweepPropagatesErrors(t *testing.T) {
	w := ftS(t)
	bad := core.DefaultConfig()
	bad.Node.Table = nil // core.Run must reject this
	good := runner.Job{Workload: w, Strategy: core.NoDVS(), Config: core.DefaultConfig()}
	outs := execute(context.Background(), runner.New(2), []runner.Job{
		good,
		{Workload: w, Strategy: core.NoDVS(), Config: bad},
		{Workload: w, Strategy: core.External(600), Config: core.DefaultConfig()},
	}, nil)
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("good jobs failed: %v, %v", outs[0].Err, outs[2].Err)
	}
	if outs[1].Err == nil || outs[1].Err.Code != sweep.CodeSimFailed || outs[1].RawErr == nil {
		t.Fatalf("bad job: err=%v raw=%v, want a sim_failed error", outs[1].Err, outs[1].RawErr)
	}
}

func TestSweepManyMoreJobsThanWorkers(t *testing.T) {
	distinct := staticJobs(t)
	var jobs []runner.Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, distinct[i%len(distinct)])
	}
	r := runner.New(3)
	outs := execute(context.Background(), r, jobs, nil)
	// 40 jobs over 5 distinct cells: exactly 5 simulations.
	if st := r.Stats(); st.Runs != len(distinct) || st.Runs+st.Hits != len(jobs) {
		t.Fatalf("runs=%d hits=%d, want %d distinct and %d total", st.Runs, st.Hits, len(distinct), len(jobs))
	}
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("job %d: %v", i, out.Err)
		}
		if out.Raw.Strategy != jobs[i].Strategy.String() {
			t.Fatalf("job %d: outcome misaligned (%s vs %s)", i, out.Raw.Strategy, jobs[i].Strategy)
		}
	}
}

// TestSweepContextCancelledUpfront asserts that a sweep submitted with an
// already-cancelled context runs zero simulations: every outcome is a
// canceled error and neither cache nor stats are touched.
func TestSweepContextCancelledUpfront(t *testing.T) {
	jobs := staticJobs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := runner.New(4)
	outs := execute(ctx, r, jobs, nil)
	if len(outs) != len(jobs) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(jobs))
	}
	for i, o := range outs {
		if o.Err == nil || o.Err.Code != sweep.CodeCanceled || !errors.Is(o.RawErr, context.Canceled) {
			t.Fatalf("job %d: err=%v raw=%v, want canceled", i, o.Err, o.RawErr)
		}
	}
	if st := r.Stats(); st.Runs != 0 || st.Hits != 0 {
		t.Fatalf("cancelled sweep touched the runner: runs=%d hits=%d", st.Runs, st.Hits)
	}
}

// TestSweepFuncCancelMidSweep cancels after the first record of a serial
// sweep and asserts the remaining queued jobs are skipped, not run.
func TestSweepFuncCancelMidSweep(t *testing.T) {
	jobs := staticJobs(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := runner.New(1) // serial: deterministic completion order
	outs := execute(ctx, r, jobs, func(rec sweep.SweepRecord) {
		if rec.Index == 0 {
			cancel()
		}
	})
	if outs[0].Err != nil {
		t.Fatalf("job 0 should have completed before cancel: %v", outs[0].Err)
	}
	for i := 1; i < len(outs); i++ {
		if !errors.Is(outs[i].RawErr, context.Canceled) {
			t.Fatalf("job %d: err=%v, want context.Canceled", i, outs[i].Err)
		}
	}
	if st := r.Stats(); st.Runs != 1 {
		t.Fatalf("runs=%d, want 1 (only the pre-cancel job)", st.Runs)
	}
}

// TestSweepFuncObserverSeesEveryJobOnce asserts the streaming observer
// contract: one serialized call per job, with the record of the outcome
// that lands at that job's submission index.
func TestSweepFuncObserverSeesEveryJobOnce(t *testing.T) {
	jobs := staticJobs(t)
	seen := make([]int, len(jobs))
	got := make([]sweep.SweepRecord, len(jobs))
	outs := execute(context.Background(), runner.New(4), jobs, func(rec sweep.SweepRecord) {
		seen[rec.Index]++ // serialized by Execute: no lock needed
		got[rec.Index] = rec
	})
	for i := range jobs {
		if outs[i].Err != nil {
			t.Fatalf("job %d: %v", i, outs[i].Err)
		}
		if seen[i] != 1 {
			t.Fatalf("job %d observed %d times, want 1", i, seen[i])
		}
		if !reflect.DeepEqual(got[i], outs[i].Record(i)) {
			t.Fatalf("job %d: observed record differs from returned outcome", i)
		}
	}
}

// TestPropertySweepWorkersInvariance: sweep output is a function of the
// job list alone, not of the parallelism — the determinism guarantee the
// service and fleet layers inherit. Random seeded cells across the full
// workload/strategy registries, with duplicates mixed in so coalescing
// and cache hits are under test too; results must match a serial sweep
// exactly at every parallelism.
func TestPropertySweepWorkersInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	codes := npb.Codes()
	regs := core.Strategies()
	cfg := core.DefaultConfig()
	var jobs []runner.Job
	for len(jobs) < 14 {
		w, err := npb.New(codes[rng.Intn(len(codes))], npb.ClassS, []int{1, 2, 4}[rng.Intn(3)])
		if err != nil {
			continue // some kernels constrain rank counts; redraw
		}
		jobs = append(jobs, runner.Job{Workload: w, Strategy: regs[rng.Intn(len(regs))].Example(), Config: cfg})
	}
	jobs = append(jobs, jobs[rng.Intn(len(jobs))], jobs[rng.Intn(len(jobs))])

	ref := execute(context.Background(), runner.New(1), jobs, nil)
	for _, workers := range []int{2, 8} {
		outs := execute(context.Background(), runner.New(workers), jobs, nil)
		for i := range outs {
			if (outs[i].Err == nil) != (ref[i].Err == nil) {
				t.Fatalf("workers=%d job %d: err %v vs serial %v", workers, i, outs[i].Err, ref[i].Err)
			}
			if outs[i].Err != nil {
				continue
			}
			a, b := outs[i].Raw, ref[i].Raw
			if a.Name != b.Name || a.Strategy != b.Strategy || a.Elapsed != b.Elapsed || a.Energy != b.Energy {
				t.Errorf("workers=%d job %d (%s/%s): diverged from serial: elapsed %v vs %v, energy %v vs %v",
					workers, i, a.Name, a.Strategy, a.Elapsed, b.Elapsed, a.Energy, b.Energy)
			}
		}
	}
}
