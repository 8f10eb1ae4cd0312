package autosched

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/micro"
	"repro/internal/npb"
)

func tune(t *testing.T, code string, class npb.Class) *Result {
	t.Helper()
	w, err := npb.New(code, class, npb.PaperRanks(code))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(w, core.DefaultConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTuneFTReproducesHandSchedule(t *testing.T) {
	res := tune(t, "FT", npb.ClassB)
	// The analyzer must rediscover the paper's Figure 10 schedule:
	// wrap the all-to-all, keep the base at top speed, homogeneous.
	if !res.Schedule.WrapOps["alltoall"] {
		t.Errorf("FT schedule does not wrap alltoall: %+v", res.Schedule)
	}
	if res.Schedule.Heterogeneous {
		t.Error("FT schedule went heterogeneous on a balanced code")
	}
	if res.Schedule.PerRank[0] != 1400 {
		t.Errorf("FT base frequency %v, want 1400", res.Schedule.PerRank[0])
	}
	// And it must deliver the headline: ≥25% savings at ≤5% delay.
	if s := 1 - res.Normalized.Energy; s < 0.25 {
		t.Errorf("tuned FT saves %.0f%%", s*100)
	}
	if res.Normalized.Delay > 1.05 {
		t.Errorf("tuned FT delay %.3f", res.Normalized.Delay)
	}
}

func TestTuneCGGoesHeterogeneous(t *testing.T) {
	res := tune(t, "CG", npb.ClassB)
	if !res.Schedule.Heterogeneous {
		t.Fatalf("CG schedule not heterogeneous: %+v", res.Schedule)
	}
	// Compute-heavy ranks (0..3) must get a faster base than the
	// wait-heavy ranks (4..7).
	if res.Schedule.PerRank[0] <= res.Schedule.PerRank[4] {
		t.Errorf("per-rank speeds %v: heavy ranks not faster", res.Schedule.PerRank)
	}
	if s := 1 - res.Normalized.Energy; s < 0.15 {
		t.Errorf("tuned CG saves %.0f%%", s*100)
	}
	if res.Normalized.Delay > 1.10 {
		t.Errorf("tuned CG delay %.3f", res.Normalized.Delay)
	}
}

func TestTuneEPDoesNothing(t *testing.T) {
	res := tune(t, "EP", npb.ClassW)
	if !res.Schedule.NoOp(core.DefaultConfig().Node.Table) {
		t.Fatalf("EP schedule not a no-op: %+v", res.Schedule)
	}
	if res.Normalized.Energy < 0.999 || res.Normalized.Delay > 1.001 {
		t.Errorf("no-op schedule changed the run: %+v", res.Normalized)
	}
	joined := strings.Join(res.Schedule.Rationale, ";")
	if !strings.Contains(joined, "no exploitable slack") {
		t.Errorf("rationale missing no-op note: %v", res.Schedule.Rationale)
	}
}

func TestTunedNeverLosesMuchED3P(t *testing.T) {
	// Across every code, the tuned run's ED3P must not be worse than the
	// untouched baseline's (1.0) by more than noise — the "performance-
	// constrained" guarantee. Asserted at class B, the calibrated scale;
	// at toy classes the microbenchmark database (built with realistic
	// message sizes) mispredicts latency-bound communication.
	for _, code := range []string{"BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"} {
		res := tune(t, code, npb.ClassB)
		v := metrics.ED3P.Eval(res.Normalized.Delay, res.Normalized.Energy)
		if v > 1.02 {
			t.Errorf("%s: tuned ED3P %.3f worse than baseline", code, v)
		}
	}
}

// TestProfileBaselineIsUntracedRun: Tune takes its baseline from the
// traced profiling pass, which is only sound because the tracer is
// passive — the traced result equals an untraced NoDVS run exactly.
func TestProfileBaselineIsUntracedRun(t *testing.T) {
	for _, code := range []string{"BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"} {
		w, err := npb.New(code, npb.ClassS, npb.PaperRanks(code))
		if err != nil {
			t.Fatal(err)
		}
		_, traced, err := ProfileWorkload(w, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		plain, err := core.Run(w, core.NoDVS(), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(traced, plain) {
			t.Errorf("%s: traced profiling run differs from the untraced baseline", code)
		}
	}
}

func TestProfileCapturesPhases(t *testing.T) {
	w, err := npb.FT(npb.ClassW, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := ProfileWorkload(w, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, ok := p.Phases["alltoall"]
	if !ok {
		t.Fatalf("no alltoall phase: %v", p.Phases)
	}
	if st.Count != 20 {
		t.Errorf("alltoall count = %d, want 20 iterations", st.Count)
	}
	if st.Mean <= 0 {
		t.Error("zero mean phase duration")
	}
	if len(p.RankMixes) != 8 {
		t.Errorf("rank mixes = %d", len(p.RankMixes))
	}
	mix := p.RankMixes[0]
	if mix.Comm < mix.CPU {
		t.Errorf("FT mix not comm-dominated: %+v", mix)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	db, err := micro.Build(core.DefaultConfig().Node)
	if err != nil {
		t.Fatal(err)
	}
	p := &Profile{Workload: "x", Elapsed: time.Second,
		RankMixes: []micro.Mix{{CPU: 1}}, Phases: map[PhaseKey]PhaseStat{}}
	cfg := DefaultConfig()
	cfg.MetricExponent = 0
	if _, err := Analyze(p, db, cfg); err == nil {
		t.Fatal("zero exponent accepted")
	}
}

func TestMinPhaseGate(t *testing.T) {
	// With an absurdly high MinPhase no collective is wrapped.
	w, err := npb.FT(npb.ClassW, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := ProfileWorkload(w, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	db, err := micro.Build(core.DefaultConfig().Node)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MinPhase = time.Hour
	s, err := Analyze(p, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.WrapOps) != 0 {
		t.Fatalf("hour-long MinPhase still wrapped %v", s.WrapOps)
	}
}

func TestResidualMix(t *testing.T) {
	m := residualMix(micro.Mix{CPU: 0.1, Memory: 0.2, Comm: 0.7}, 0.7)
	if m.Comm != 0 {
		t.Errorf("comm not removed: %+v", m)
	}
	if d := m.CPU + m.Memory + m.Comm; d < 0.999 || d > 1.001 {
		t.Errorf("not renormalized: %+v", m)
	}
	if m.Memory <= m.CPU {
		t.Errorf("proportions lost: %+v", m)
	}
	// Degenerate: everything wrapped.
	m = residualMix(micro.Mix{Comm: 1}, 1)
	if m.CPU != 1 {
		t.Errorf("degenerate residual: %+v", m)
	}
}

func TestScheduleNoOpDetection(t *testing.T) {
	table := core.DefaultConfig().Node.Table
	s := Schedule{PerRank: repeatFreq(1400, 4), WrapOps: map[PhaseKey]bool{}}
	if !s.NoOp(table) {
		t.Error("all-top schedule not NoOp")
	}
	s.PerRank[2] = 600
	if s.NoOp(table) {
		t.Error("heterogeneous schedule reported NoOp")
	}
	s = Schedule{PerRank: repeatFreq(1400, 4), WrapOps: map[PhaseKey]bool{"alltoall": true}}
	if s.NoOp(table) {
		t.Error("wrapping schedule reported NoOp")
	}
}

func TestPolicyDeterministic(t *testing.T) {
	run := func() (float64, float64) {
		w, err := npb.CG(npb.ClassS, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Tune(w, core.DefaultConfig(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.Normalized.Delay, res.Normalized.Energy
	}
	d1, e1 := run()
	d2, e2 := run()
	if d1 != d2 || e1 != e2 {
		t.Fatalf("nondeterministic tuning: %v/%v vs %v/%v", d1, e1, d2, e2)
	}
}
