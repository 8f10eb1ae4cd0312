package experiments

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sweep"
)

func smallJobs(t *testing.T) []runner.Job {
	t.Helper()
	w, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	return []runner.Job{
		{Workload: w, Strategy: core.NoDVS(), Config: cfg},
		{Workload: w, Strategy: core.External(600), Config: cfg},
	}
}

// TestSweepRemotePlacement runs an experiments sweep against a real dvsd
// and checks every cell was served remotely with results identical to
// the local engine's.
func TestSweepRemotePlacement(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{Runner: runner.New(2)}).Handler())
	defer ts.Close()

	o := Quick()
	o.Runner = runner.New(2)
	o.Server = ts.URL
	o.Stats = &SweepStats{}
	jobs := smallJobs(t)
	remote, err := o.Sweep(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if o.Stats.Remote != len(jobs) {
		t.Fatalf("remote = %d, want %d (all cells wire-expressible)", o.Stats.Remote, len(jobs))
	}
	if st := o.Runner.Stats(); st.Runs != 0 {
		t.Fatalf("local engine ran %d simulations; all cells should have gone remote", st.Runs)
	}

	lo := Quick()
	lo.Runner = runner.New(2)
	local, err := lo.Sweep(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if remote[i].Elapsed != local[i].Elapsed || remote[i].Energy != local[i].Energy {
			t.Fatalf("cell %d: remote (%v, %g J) != local (%v, %g J)", i,
				remote[i].Elapsed, remote[i].Energy, local[i].Elapsed, local[i].Energy)
		}
	}
}

// TestSweepServerFallback pins the degradation contract: a dead server
// demotes every cell to the local engine instead of failing the
// experiment.
func TestSweepServerFallback(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close() // refuse all connections

	o := Quick()
	o.Runner = runner.New(2)
	o.Server = ts.URL
	o.Stats = &SweepStats{}
	if _, err := o.Sweep(smallJobs(t)); err != nil {
		t.Fatalf("dead server failed the sweep: %v", err)
	}
	if o.Stats.Remote != 0 {
		t.Fatalf("remote = %d with a dead server", o.Stats.Remote)
	}
	if st := o.Runner.Stats(); st.Runs == 0 {
		t.Fatal("local engine ran nothing; fallback did not happen")
	}
}

// TestSweepDeadServerCost pins what a dead server costs a sweep: the
// gateway ladder ejects it after FailAfter consecutive failures, so the
// sweep asks it at most FailAfter plus one in-flight request per worker,
// not a retry ladder per cell, and every cell still runs locally.
func TestSweepDeadServerCost(t *testing.T) {
	const failAfter = 2 // fleet.Options default
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r) // not the wire format: a retryable failure
	}))
	defer ts.Close()

	cfg := core.DefaultConfig()
	var jobs []runner.Job
	for _, code := range []func(npb.Class, int) (npb.Workload, error){npb.FT, npb.CG} {
		w, err := code(npb.ClassS, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []core.Strategy{core.NoDVS(), core.External(600), core.External(800), core.External(1000)} {
			jobs = append(jobs, runner.Job{Workload: w, Strategy: s, Config: cfg})
		}
	}

	o := Quick()
	o.Runner = runner.New(2)
	o.Server = ts.URL
	o.Stats = &SweepStats{}
	if _, err := o.Sweep(jobs); err != nil {
		t.Fatalf("dead server failed the sweep: %v", err)
	}
	if o.Stats.Remote != 0 {
		t.Fatalf("remote = %d with a dead server", o.Stats.Remote)
	}
	if st := o.Runner.Stats(); st.Runs != len(jobs) {
		t.Fatalf("local engine ran %d of %d cells", st.Runs, len(jobs))
	}
	if got, limit := requests.Load(), int64(failAfter+o.Runner.Workers()); got > limit {
		t.Fatalf("dead server got %d requests for %d cells, want at most %d", got, len(jobs), limit)
	}
}

// TestSweepFirstErrInSubmissionOrder: a sweep with several failing cells
// reports the first failure in submission order, not in completion
// order — here cell 3 fails first in wall time (cell 1 waits for it) and
// the sweep still names cell 1. The in-process failure keeps its own
// error value (sweep.Outcome.RawErr), and the stats still count every
// cell.
func TestSweepFirstErrInSubmissionOrder(t *testing.T) {
	jobs := smallJobs(t)
	failed := make(chan struct{})
	var once sync.Once
	failing := func(name string, wait bool) runner.Job {
		w := jobs[0].Workload
		w.Variant, w.Params = name, "" // non-content-addressable: a keyless cell
		w.Body = func(*mpisim.Rank) {
			if wait {
				select {
				case <-failed:
				case <-time.After(10 * time.Second):
				}
			} else {
				once.Do(func() { close(failed) })
			}
			panic(name)
		}
		return runner.Job{Workload: w, Strategy: core.NoDVS(), Config: jobs[0].Config}
	}
	sweepJobs := []runner.Job{jobs[0], failing("cell-1", true), jobs[1], failing("cell-3", false)}

	o := Quick()
	o.Runner = runner.New(4)
	o.Stats = &SweepStats{}
	res, err := o.Sweep(sweepJobs)
	if res != nil {
		t.Fatalf("failed sweep returned %d results, want none", len(res))
	}
	if err == nil || !strings.Contains(err.Error(), "cell-1") {
		t.Fatalf("err = %v, want cell 1's failure (the first in submission order)", err)
	}
	if apiErr := (*sweep.APIError)(nil); errors.As(err, &apiErr) {
		t.Fatalf("err = %#v, want the in-process error itself, not its wire form", err)
	}
	if o.Stats.Jobs != len(sweepJobs) {
		t.Fatalf("stats counted %d cells, want %d", o.Stats.Jobs, len(sweepJobs))
	}
}
