package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/runner"
)

// TestBuildProfileMatchesCore pins profile assembly over the sweep path —
// runner.PlanProfile's jobs through Options.Sweep, then Assemble — to the
// serial reference implementation in core.
func TestBuildProfileMatchesCore(t *testing.T) {
	o := Default()
	w, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.BuildProfile(w, o.Config, o.Daemon)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		o.Runner = runner.New(workers)
		plan, err := runner.PlanProfile(w, o.Config, o.Daemon)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Assemble(o.Sweep(plan.Jobs()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: profile differs from core.BuildProfile", workers)
		}
	}
}

// TestBuildProfilesFlattensAcrossWorkloads: BuildProfiles runs every
// code's grid as one flat sweep and hands each code the slice of
// outcomes its plan submitted — each profile equals that code's serial
// core.BuildProfile, and no cell runs twice.
func TestBuildProfilesFlattensAcrossWorkloads(t *testing.T) {
	o := Default()
	o.Class = npb.ClassS
	o.Runner = runner.New(4)
	ps, err := BuildProfiles(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range NPBCodes {
		w, err := npb.New(code, o.Class, npb.PaperRanks(code))
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.BuildProfile(w, o.Config, o.Daemon)
		if err != nil {
			t.Fatal(err)
		}
		if got := ps.Profiles[code]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s profile differs from core.BuildProfile", code)
		}
	}
	// 8 codes x (5 static + auto) distinct cells.
	if st := o.Runner.Stats(); st.Runs != 48 || st.Hits != 0 {
		t.Fatalf("runs=%d hits=%d, want 48/0", st.Runs, st.Hits)
	}
}

// TestBuildProfilesByteIdenticalAcrossWorkers is the determinism guarantee
// the reproduction rests on: the rendered Table 2 and Figure 5 must be
// byte-identical whether the grid is simulated serially or fanned out
// across several sweep workers.
func TestBuildProfilesByteIdenticalAcrossWorkers(t *testing.T) {
	render := func(workers int) (string, string) {
		t.Helper()
		o := Default()
		o.Class = npb.ClassW
		o.Runner = runner.New(workers)
		ps, err := BuildProfiles(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ps.Table2().String(), ps.Figure5().String()
	}
	t2Serial, f5Serial := render(1)
	for _, workers := range []int{2, 8} {
		t2, f5 := render(workers)
		if t2 != t2Serial {
			t.Errorf("Table 2 differs between workers=1 and workers=%d:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, t2Serial, t2)
		}
		if f5 != f5Serial {
			t.Errorf("Figure 5 differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestSharedRunnerReusesGridCells asserts the cross-experiment memo cache:
// with one engine shared via Options.Runner, Figure 11 revisits the FT
// grid Table 2 already simulated and re-simulates none of it.
func TestSharedRunnerReusesGridCells(t *testing.T) {
	o := Default()
	o.Class = npb.ClassW
	o.Runner = runner.New(0)
	if _, err := BuildProfiles(o); err != nil {
		t.Fatal(err)
	}
	before := o.Runner.Stats()
	if before.Runs != 48 { // 8 codes x (5 static + auto)
		t.Fatalf("profile grid ran %d simulations, want 48", before.Runs)
	}
	if _, err := Figure11(o); err != nil {
		t.Fatal(err)
	}
	after := o.Runner.Stats()
	// Figure 11 needs the 6 FT profile cells (all cached) plus one fresh
	// internal-scheduling run.
	if got := after.Runs - before.Runs; got != 1 {
		t.Errorf("Figure 11 ran %d fresh simulations on a warm cache, want 1", got)
	}
	if got := after.Hits - before.Hits; got != 6 {
		t.Errorf("Figure 11 hit the cache %d times, want 6", got)
	}
}
