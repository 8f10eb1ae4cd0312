package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/sched"
)

// serialProfile is the serial reference the sweep-assembled profiles are
// pinned to: workload w measured with plain core.Run calls, one after
// another, at every operating point of the node table and under the
// daemon config, normalized to the top point.
func serialProfile(w npb.Workload, cfg core.Config, daemon sched.CPUSpeedConfig) (core.Profile, error) {
	p := core.Profile{
		Workload: w.Name(),
		Results:  map[string]core.Result{},
		Cells:    map[string]core.Normalized{},
	}
	top := cfg.Node.Table.Top().Frequency
	base, err := core.Run(w, core.NoDVS(), cfg)
	if err != nil {
		return p, err
	}
	add := func(key string, r core.Result) {
		p.Settings = append(p.Settings, key)
		p.Results[key] = r
		p.Cells[key] = core.Normalize(r, base)
	}
	for _, f := range cfg.Node.Table.Frequencies() {
		r := base
		if f != top {
			if r, err = core.Run(w, core.External(f), cfg); err != nil {
				return p, err
			}
		}
		add(fmt.Sprintf("%.0f", float64(f)), r)
	}
	auto, err := core.Run(w, core.Daemon(daemon), cfg)
	if err != nil {
		return p, err
	}
	add("auto", auto)
	return p, nil
}

// TestBuildProfileMatchesCore pins profile assembly over the sweep path —
// runner.PlanProfile's jobs through Options.Sweep, then Assemble — to the
// serial reference of plain core.Run calls.
func TestBuildProfileMatchesCore(t *testing.T) {
	o := Default()
	w, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialProfile(w, o.Config, o.Daemon)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		o.Runner = runner.New(workers)
		profs, _, err := o.Profiles([]npb.Workload{w})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(profs[0], want) {
			t.Fatalf("workers=%d: profile differs from the serial reference", workers)
		}
	}
}

// TestProfileShape pins the sweep-assembled profile's columns: static
// frequencies ascending then "auto", a top cell of exactly (1,1), Static
// handing out every column but "auto" in order, and the crescendo —
// delay falls and energy rises with frequency.
func TestProfileShape(t *testing.T) {
	o := Default()
	w, err := npb.FT(npb.ClassS, npb.PaperRanks("FT"))
	if err != nil {
		t.Fatal(err)
	}
	profs, _, err := o.Profiles([]npb.Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	prof := profs[0]
	wantSettings := []string{"600", "800", "1000", "1200", "1400", "auto"}
	if !reflect.DeepEqual(prof.Settings, wantSettings) {
		t.Fatalf("settings = %v, want %v", prof.Settings, wantSettings)
	}
	if top := prof.Cells["1400"]; top.Delay != 1 || top.Energy != 1 {
		t.Fatalf("top cell not (1,1): %+v", top)
	}
	cres := prof.Static()
	if len(cres) != len(wantSettings)-1 {
		t.Fatalf("Static() has %d columns, want %d", len(cres), len(wantSettings)-1)
	}
	for i, c := range cres {
		if c.Label != wantSettings[i] || c.Delay != prof.Cells[c.Label].Delay || c.Energy != prof.Cells[c.Label].Energy {
			t.Fatalf("Static()[%d] = %+v, want column %s of the profile", i, c, wantSettings[i])
		}
		if i == 0 {
			continue
		}
		if c.Delay > cres[i-1].Delay+1e-9 {
			t.Errorf("delay not non-increasing with frequency: %+v", cres)
		}
		if c.Energy < cres[i-1].Energy-1e-9 {
			t.Errorf("energy not non-decreasing with frequency: %+v", cres)
		}
	}
}

// TestBuildProfilesFlattensAcrossWorkloads: BuildProfiles runs every
// code's grid as one flat sweep and hands each code the slice of
// results its plan submitted — each profile equals that code's serial
// reference, and no cell runs twice.
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
		want, err := serialProfile(w, o.Config, o.Daemon)
		if err != nil {
			t.Fatal(err)
		}
		if got := ps.Profiles[code]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s profile differs from the serial reference", code)
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
