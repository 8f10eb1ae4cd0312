package autosched_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/autosched"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/micro"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/trace"
)

// opts shares one runner across the tests, so the microbenchmark probes
// and the untraced cells are simulated once per test binary.
var opts = func() experiments.Options {
	o := experiments.Default()
	o.Runner = runner.New(0)
	return o
}()

func tune(t *testing.T, code string, class npb.Class) *autosched.Result {
	t.Helper()
	w, err := npb.New(code, class, npb.PaperRanks(code))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opts.Tune(w)
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
	for _, code := range experiments.NPBCodes {
		res := tune(t, code, npb.ClassB)
		v := metrics.ED3P.Eval(res.Normalized.Delay, res.Normalized.Energy)
		if v > 1.02 {
			t.Errorf("%s: tuned ED3P %.3f worse than baseline", code, v)
		}
	}
}

// TestProfileBaselineIsUntracedRun: Tune takes its baseline from the
// traced profiling run, which is only sound because the tracer is
// passive — the traced result equals an untraced NoDVS run exactly.
func TestProfileBaselineIsUntracedRun(t *testing.T) {
	for _, code := range experiments.NPBCodes {
		res := tune(t, code, npb.ClassS)
		w, err := npb.New(code, npb.ClassS, npb.PaperRanks(code))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := opts.Sweep([]runner.Job{{Workload: w, Strategy: core.NoDVS(), Config: opts.Config}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Baseline, plain[0]) {
			t.Errorf("%s: traced profiling run differs from the untraced baseline", code)
		}
	}
}

func TestProfileCapturesPhases(t *testing.T) {
	w, err := npb.FT(npb.ClassW, 8)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New(w.Ranks)
	cfg := opts.Config
	cfg.Tracer = log
	res, err := opts.Sweep([]runner.Job{{Workload: w, Strategy: core.NoDVS(), Config: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	p := autosched.ProfileOf(log, res[0])
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

// TestMinPhaseGate: a collective is wrapped exactly when its profiled
// mean reaches 200 ms.
func TestMinPhaseGate(t *testing.T) {
	res, err := opts.Sweep(micro.Plan(opts.Config.Node))
	if err != nil {
		t.Fatal(err)
	}
	db, err := micro.Assemble(opts.Config.Node.Table, res)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mean time.Duration
		wrap bool
	}{{199 * time.Millisecond, false}, {200 * time.Millisecond, true}} {
		p := &autosched.Profile{Elapsed: 10 * time.Second,
			RankMixes: []micro.Mix{{CPU: 0.5, Comm: 0.5}, {CPU: 0.5, Comm: 0.5}},
			Asymmetry: 1,
			Phases:    map[autosched.PhaseKey]autosched.PhaseStat{"alltoall": {Count: 10, Mean: c.mean}}}
		s, err := autosched.Analyze(p, db)
		if err != nil {
			t.Fatal(err)
		}
		if s.WrapOps["alltoall"] != c.wrap {
			t.Errorf("%v mean phase: wrapped %v, want %v", c.mean, s.WrapOps["alltoall"], c.wrap)
		}
	}
}

func TestPolicyDeterministic(t *testing.T) {
	r1 := tune(t, "CG", npb.ClassS)
	r2 := tune(t, "CG", npb.ClassS)
	if r1.Normalized != r2.Normalized {
		t.Fatalf("nondeterministic tuning: %+v vs %+v", r1.Normalized, r2.Normalized)
	}
}
