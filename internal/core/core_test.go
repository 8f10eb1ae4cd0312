package core_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/sched"
	"repro/internal/sim"
)

func ft(t *testing.T, class npb.Class) npb.Workload {
	t.Helper()
	w, err := npb.FT(class, 8)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunBaseline(t *testing.T) {
	r, err := core.Run(ft(t, npb.ClassS), core.NoDVS(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "FT.S.8" || r.Strategy != "1400" {
		t.Fatalf("labels: %q/%q", r.Name, r.Strategy)
	}
	if len(r.NodeEnergy) != 8 || len(r.RankStats) != 8 || len(r.TimeAtOp) != 8 {
		t.Fatalf("per-node slices wrong length")
	}
	if r.Transitions != 0 {
		t.Fatalf("baseline made %d transitions", r.Transitions)
	}
	if r.AvgPower() < 10 || r.AvgPower() > 40*8 {
		t.Fatalf("avg power %.1f W implausible", r.AvgPower())
	}
}

func TestRunExternalSlowsAndSaves(t *testing.T) {
	cfg := core.DefaultConfig()
	w := ft(t, npb.ClassS)
	base, err := core.Run(w, core.NoDVS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	low, err := core.Run(w, core.External(600), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := core.Normalize(low, base)
	if n.Delay <= 1.0 {
		t.Errorf("external 600 delay %.3f not above 1", n.Delay)
	}
	if n.Energy >= 1.0 {
		t.Errorf("external 600 energy %.3f not below 1", n.Energy)
	}
	if low.Strategy != "600" {
		t.Errorf("strategy label %q", low.Strategy)
	}
}

func TestRunExternalPerNode(t *testing.T) {
	cfg := core.DefaultConfig()
	w, err := npb.CG(npb.ClassS, 8)
	if err != nil {
		t.Fatal(err)
	}
	freqs := map[int]dvs.MHz{4: 800, 5: 800, 6: 800, 7: 800}
	r, err := core.Run(w, core.ExternalPerNode(freqs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 0–3 stay at 1400, 4–7 moved to 800.
	if r.TimeAtOp[0][4] <= 0 {
		t.Error("node 0 should stay at 1400")
	}
	if r.TimeAtOp[4][1] <= 0 {
		t.Error("node 4 should run at 800")
	}
	if r.Transitions != 4 {
		t.Errorf("transitions = %d, want 4", r.Transitions)
	}
}

func TestRunDaemonStrategy(t *testing.T) {
	cfg := core.DefaultConfig()
	w := ft(t, npb.ClassW)
	r, err := core.Run(w, core.Daemon(sched.CPUSpeedV121()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Strategy != "auto" {
		t.Errorf("strategy label %q", r.Strategy)
	}
	// The daemon must terminate with the workload: the run must not hang
	// (reaching here proves it) and elapsed must be close to the workload's.
	if r.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestNormalizeZeroBase(t *testing.T) {
	n := core.Normalize(core.Result{}, core.Result{})
	if n.Delay != 0 || n.Energy != 0 {
		t.Fatalf("zero base: %+v", n)
	}
}

func TestEnergyPerNode(t *testing.T) {
	r, err := core.Run(ft(t, npb.ClassS), core.NoDVS(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.EnergyPerNode()*8-r.Energy) > 1e-9 {
		t.Fatal("per-node energy inconsistent")
	}
}

func TestEnergyEqualsNodeSum(t *testing.T) {
	r, err := core.Run(ft(t, npb.ClassS), core.NoDVS(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, e := range r.NodeEnergy {
		sum += e.Total()
	}
	if math.Abs(sum-r.Energy) > 1e-9 {
		t.Fatalf("energy %.3f != node sum %.3f", r.Energy, sum)
	}
}

func TestResidencySumsToElapsed(t *testing.T) {
	r, err := core.Run(ft(t, npb.ClassS), core.External(1000), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range r.TimeAtOp {
		var sum time.Duration
		for _, d := range at {
			sum += d
		}
		if d := sum - r.Elapsed; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("node %d residency %v != elapsed %v", i, sum, r.Elapsed)
		}
	}
}

func TestBuildProfileShape(t *testing.T) {
	cfg := core.DefaultConfig()
	prof, err := core.BuildProfile(ft(t, npb.ClassS), cfg, sched.CPUSpeedV121())
	if err != nil {
		t.Fatal(err)
	}
	wantSettings := []string{"600", "800", "1000", "1200", "1400", "auto"}
	if len(prof.Settings) != len(wantSettings) {
		t.Fatalf("settings = %v", prof.Settings)
	}
	for i, s := range wantSettings {
		if prof.Settings[i] != s {
			t.Fatalf("settings = %v", prof.Settings)
		}
	}
	top := prof.Cells["1400"]
	if top.Delay != 1 || top.Energy != 1 {
		t.Fatalf("top cell not (1,1): %+v", top)
	}
	// Monotonicity along the crescendo: delay falls, energy rises with f.
	var cres []core.Normalized
	for _, f := range wantSettings[:len(wantSettings)-1] {
		cres = append(cres, prof.Cells[f])
	}
	for i := 1; i < len(cres); i++ {
		if cres[i].Delay > cres[i-1].Delay+1e-9 {
			t.Errorf("delay not non-increasing with frequency: %+v", cres)
		}
		if cres[i].Energy < cres[i-1].Energy-1e-9 {
			t.Errorf("energy not non-decreasing with frequency: %+v", cres)
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	cases := map[string]core.Strategy{
		"1400":     core.NoDVS(),
		"800":      core.External(800),
		"per-node": core.ExternalPerNode(nil),
		"auto":     core.Daemon(sched.CPUSpeedV121()),
	}
	for want, s := range cases {
		if got := s.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestUnknownStrategyKind(t *testing.T) {
	if _, err := core.Run(ft(t, npb.ClassS), core.Strategy{Kind: core.StrategyKind(99)}, core.DefaultConfig()); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestInvalidDaemonConfigRejected(t *testing.T) {
	bad := sched.CPUSpeedConfig{Interval: 0}
	if _, err := core.Run(ft(t, npb.ClassS), core.Daemon(bad), core.DefaultConfig()); err == nil {
		t.Fatal("invalid daemon config accepted")
	}
}

func TestTracerPlumbed(t *testing.T) {
	cfg := core.DefaultConfig()
	n := 0
	cfg.Tracer = tracerCount{&n}
	if _, err := core.Run(ft(t, npb.ClassS), core.NoDVS(), cfg); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("tracer saw no events")
	}
}

type tracerCount struct{ n *int }

func (t tracerCount) Event(rank int, kind mpisim.EventKind, name string, start, end sim.Time, bytes, peer int) {
	*t.n++
}

func TestRunPredictiveStrategy(t *testing.T) {
	cfg := core.DefaultConfig()
	w, err := npb.MG(npb.ClassW, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Run(w, core.Predictive(sched.DefaultPredictive()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Strategy != "predictive" {
		t.Fatalf("strategy label %q", r.Strategy)
	}
	if r.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestRunPredictiveInvalidConfig(t *testing.T) {
	if _, err := core.Run(ft(t, npb.ClassS), core.Predictive(sched.PredictiveConfig{}), core.DefaultConfig()); err == nil {
		t.Fatal("invalid predictive config accepted")
	}
}

func TestDaemonBlindUnderSpinWaitingMPI(t *testing.T) {
	// With a spin-waiting MPI build, the cpuspeed daemon sees 100% busy
	// during communication slack and never downshifts — the structural
	// blindness of utilization-driven scheduling, and the reason internal
	// control (which knows the phases) is needed at all.
	runFT := func(spin bool) (delay, energy float64) {
		cfg := core.DefaultConfig()
		cfg.MPI.SpinWait = spin
		w := ft(t, npb.ClassB) // long enough for several daemon intervals
		base, err := core.Run(w, core.NoDVS(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		auto, err := core.Run(w, core.Daemon(sched.CPUSpeedV121()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := core.Normalize(auto, base)
		return n.Delay, n.Energy
	}
	_, eBlock := runFT(false)
	dSpin, eSpin := runFT(true)
	if eBlock > 0.9 {
		t.Errorf("blocking MPI: daemon saved only %.0f%%", (1-eBlock)*100)
	}
	if eSpin < 0.98 || dSpin > 1.02 {
		t.Errorf("spin MPI: daemon should be blind, got D/E %.2f/%.2f", dSpin, eSpin)
	}
}

func TestRunOnDemandStrategy(t *testing.T) {
	r, err := core.Run(ft(t, npb.ClassW), core.OnDemand(sched.DefaultOnDemand()), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Strategy != "ondemand" {
		t.Fatalf("strategy %q", r.Strategy)
	}
}

func TestRunPowerCapStrategy(t *testing.T) {
	// 190 W is reachable for FT (all-bottom busy is ~135 W); 120 W would
	// not be, since the cap cannot scale below the bottom point.
	strat := core.PowerCap(sched.DefaultPowerCap(190))
	if got := strat.String(); got != "cap 190W" {
		t.Fatalf("strategy label %q", got)
	}
	r, err := core.Run(ft(t, npb.ClassB), strat, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgPower() > 190*1.1 {
		t.Fatalf("cap not enforced: %.1f W", r.AvgPower())
	}
	if r.Transitions == 0 {
		t.Fatal("capping never acted")
	}
}

func TestThermalAccessors(t *testing.T) {
	r, err := core.Run(ft(t, npb.ClassW), core.NoDVS(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgTemperature() <= 25 {
		t.Fatalf("avg temperature %.1f", r.AvgTemperature())
	}
	if r.MinLifetimeFactor() <= 0 {
		t.Fatalf("lifetime factor %v", r.MinLifetimeFactor())
	}
	var empty core.Result
	if empty.AvgTemperature() != 0 || empty.MinLifetimeFactor() != 0 {
		t.Fatal("empty result accessors not zero")
	}
	if empty.EnergyPerNode() != 0 || empty.AvgPower() != 0 {
		t.Fatal("empty result energy accessors not zero")
	}
	if core.NoDVS().String() != "1400" {
		t.Fatal("baseline label")
	}
	if (core.Strategy{Kind: core.StrategyKind(42)}).String() != "?" {
		t.Fatal("unknown kind label")
	}
}
