package core_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/npb"
	"repro/internal/sched"
	"repro/internal/spec"
)

// TestRegistryParity is the drift guard the old twin assembly paths
// lacked: every registered strategy must decode from its wire name, be
// accepted by both Run and RunInstrumented (the instrumented path used to
// reject ondemand and powercap), and the two must agree on
// Result.Strategy naming.
func TestRegistryParity(t *testing.T) {
	regs := core.Strategies()
	if len(regs) < 7 {
		t.Fatalf("expected at least the seven paper strategies, have %d", len(regs))
	}
	seen := map[string]bool{}
	for _, r := range regs {
		seen[r.Name] = true
	}
	// The two historically instrumented-rejected strategies must be here,
	// or the parity loop below proves nothing about the old gap.
	for _, name := range []string{"ondemand", "powercap"} {
		if !seen[name] {
			t.Fatalf("strategy %q not registered", name)
		}
	}
	// One parameter set that every strategy's decoder accepts.
	args := core.StrategySpec{
		FreqMHz:     600,
		PerNode:     map[string]float64{"0": 800},
		BudgetWatts: 190,
	}
	table := core.DefaultConfig().Node.Table
	for i, r := range regs {
		kind := core.StrategyKind(i)
		t.Run(r.Name, func(t *testing.T) {
			strat := r.Example()
			// The table is indexed by kind: an entry's example and its
			// decoder both produce strategies of that entry's kind.
			if strat.Kind != kind {
				t.Fatalf("registry[%d].Example() has kind %d", kind, strat.Kind)
			}
			args.Kind = r.Name
			dec, err := core.DecodeStrategy(args, table, 8)
			if err != nil {
				t.Fatalf("DecodeStrategy(%s): %v", r.Name, err)
			}
			if dec.Kind != kind {
				t.Fatalf("DecodeStrategy(%s) has kind %d, want %d", r.Name, dec.Kind, kind)
			}
			w := ft(t, npb.ClassS)
			plain, err := core.Run(w, strat, core.DefaultConfig())
			if err != nil {
				t.Fatalf("Run(%s): %v", r.Name, err)
			}
			inst, err := core.RunInstrumented(w, strat, core.DefaultConfig(), 0, 0)
			if err != nil {
				t.Fatalf("RunInstrumented(%s): %v", r.Name, err)
			}
			if plain.Strategy != inst.Strategy {
				t.Fatalf("strategy naming drift: Run=%q RunInstrumented=%q",
					plain.Strategy, inst.Strategy)
			}
			if plain.Elapsed != inst.Elapsed || plain.Energy != inst.Energy {
				t.Fatalf("measurement drift for %s: plain (%v, %.3f J) vs instrumented (%v, %.3f J)",
					r.Name, plain.Elapsed, plain.Energy, inst.Elapsed, inst.Energy)
			}
		})
	}
}

// TestRegistryNamesAndStringsPinned pins the wire names (registration
// order) and the paper-table string forms of the seven strategies:
// Result.Strategy strings are part of the runner cache contract and of
// every rendered table, so a refactor must not change them.
func TestRegistryNamesAndStringsPinned(t *testing.T) {
	want := []string{"nodvs", "external", "external-per-node", "daemon",
		"predictive", "ondemand", "powercap"}
	names := core.StrategyNames()
	if len(names) < len(want) {
		t.Fatalf("StrategyNames() = %v, want at least %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("StrategyNames()[%d] = %q, want %q (full: %v)", i, names[i], n, names)
		}
	}
	forms := map[string]string{
		"1400":       core.NoDVS().String(),
		"600":        core.External(600).String(),
		"per-node":   core.ExternalPerNode(map[int]dvs.MHz{0: 800}).String(),
		"auto":       core.Daemon(sched.CPUSpeedV121()).String(),
		"predictive": core.Predictive(sched.DefaultPredictive()).String(),
		"ondemand":   core.OnDemand(sched.DefaultOnDemand()).String(),
		"cap 200W":   core.PowerCap(sched.DefaultPowerCap(200)).String(),
	}
	for want, got := range forms {
		if got != want {
			t.Fatalf("Strategy.String() = %q, want %q", got, want)
		}
	}
}

// TestDecodeStrategyUnknownKind asserts the rejection enumerates the
// registered names dynamically.
func TestDecodeStrategyUnknownKind(t *testing.T) {
	_, err := core.DecodeStrategy(core.StrategySpec{Kind: "warp"}, core.DefaultConfig().Node.Table, 8)
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	se, ok := err.(*spec.Error)
	if !ok {
		t.Fatalf("error %T, want *spec.Error", err)
	}
	if se.Field != "kind" {
		t.Fatalf("field %q, want kind", se.Field)
	}
	for _, name := range core.StrategyNames() {
		if !strings.Contains(se.Msg, name) {
			t.Fatalf("rejection %q does not enumerate registered name %q", se.Msg, name)
		}
	}
}

// TestIntervalBounds: the control-period override converts to a
// duration, falls back when unset, and rejects a period below the floor
// or beyond time.Duration's range by name, without wrapping.
func TestIntervalBounds(t *testing.T) {
	const def = 80 * time.Millisecond
	for _, c := range []struct {
		ms   float64
		want time.Duration
		msg  string // substring of the rejection; "" means accepted
	}{
		{0, def, ""},
		{250, 250 * time.Millisecond, ""},
		{0.5, 0, "at least"},
		{-5, 0, "at least"},
		{1e13, 0, "at most"},
	} {
		got, err := core.StrategySpec{Kind: "daemon", IntervalMS: c.ms}.Interval(def)
		if c.msg == "" {
			if err != nil || got != c.want {
				t.Fatalf("Interval(%g ms) = %v, %v; want %v", c.ms, got, err, c.want)
			}
			continue
		}
		se, ok := err.(*spec.Error)
		if !ok || se.Field != "interval_ms" || !strings.Contains(se.Msg, c.msg) {
			t.Fatalf("Interval(%g ms) = %v, %v; want an interval_ms rejection saying %q", c.ms, got, err, c.msg)
		}
	}
}
