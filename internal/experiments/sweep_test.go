package experiments

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/server"
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
	outs := o.Sweep(jobs)
	if err := runner.FirstErr(outs); err != nil {
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
	louts := lo.Sweep(jobs)
	if err := runner.FirstErr(louts); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if outs[i].Result.Elapsed != louts[i].Result.Elapsed ||
			outs[i].Result.Energy != louts[i].Result.Energy {
			t.Fatalf("cell %d: remote (%v, %g J) != local (%v, %g J)", i,
				outs[i].Result.Elapsed, outs[i].Result.Energy,
				louts[i].Result.Elapsed, louts[i].Result.Energy)
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
	outs := o.Sweep(smallJobs(t))
	if err := runner.FirstErr(outs); err != nil {
		t.Fatalf("dead server failed the sweep: %v", err)
	}
	if o.Stats.Remote != 0 {
		t.Fatalf("remote = %d with a dead server", o.Stats.Remote)
	}
	if st := o.Runner.Stats(); st.Runs == 0 {
		t.Fatal("local engine ran nothing; fallback did not happen")
	}
}
