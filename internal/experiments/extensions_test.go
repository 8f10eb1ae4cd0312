package experiments

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/npb"
	"repro/internal/paper"
	"repro/internal/runner"
)

func TestX1AutoScheduleShape(t *testing.T) {
	tbl, cells, err := X1AutoSchedule(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(NPBCodes) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Type III/IV codes get real savings; Type I/II are untouched.
	for _, code := range []string{"FT", "CG", "IS"} {
		if s := 1 - cells[code].Energy; s < 0.15 {
			t.Errorf("%s auto-tuned saving %.0f%%", code, s*100)
		}
	}
	for _, code := range []string{"EP", "BT", "LU", "MG"} {
		n := cells[code]
		if n.Energy < 0.999 || n.Delay > 1.001 {
			t.Errorf("%s should be untouched, got %+v", code, n)
		}
	}
	// Performance constraint: nobody pays more than 8% delay.
	for code, n := range cells {
		if n.Delay > 1.08 {
			t.Errorf("%s auto-tuned delay %.3f", code, n.Delay)
		}
	}
}

// TestX1RunsThroughTheSweepEngine: every X1 simulation goes through the
// shared runner. Each code adds a traced profiling run and a tuned run,
// both keyless; the 20 microbenchmark probes run for the first code and
// are cache hits for the rest.
func TestX1RunsThroughTheSweepEngine(t *testing.T) {
	o := Default()
	o.Class = npb.ClassS
	o.Runner = runner.New(2)
	if _, _, err := X1AutoSchedule(o); err != nil {
		t.Fatal(err)
	}
	st := o.Runner.Stats()
	if want := 2*len(NPBCodes) + 20; st.Runs != want {
		t.Errorf("runs = %d, want %d", st.Runs, want)
	}
	if want := 20 * (len(NPBCodes) - 1); st.Hits != want {
		t.Errorf("cache hits = %d, want %d", st.Hits, want)
	}
}

func TestX2PredictiveWinsOnMG(t *testing.T) {
	// Class C: the predictor's 250 ms windows must be shorter than the
	// application's iteration period (MG's V-cycle is ~1 s at class C but
	// collapses to one window at class B).
	_, out, err := X2PredictiveDaemon(Default(), []string{"MG", "EP"})
	if err != nil {
		t.Fatal(err)
	}
	mg := out["MG"]
	reactive := metrics.ED2P.Eval(mg[0].Delay, mg[0].Energy)
	predictive := metrics.ED2P.Eval(mg[1].Delay, mg[1].Energy)
	if predictive >= reactive {
		t.Errorf("predictive ED2P %.3f not below reactive %.3f on MG", predictive, reactive)
	}
	// EP stays at the top under all three governors.
	ep := out["EP"]
	for i, n := range ep {
		if n.Delay > 1.02 || n.Energy < 0.97 {
			t.Errorf("EP daemon %d moved the needle: %+v", i, n)
		}
	}
	// ondemand (index 2) is performance-safe by construction: it jumps to
	// top speed the moment load appears, so delay stays ≈1 everywhere.
	for code, cells := range out {
		if od := cells[2]; od.Delay > 1.03 {
			t.Errorf("%s: ondemand delay %.3f — should be performance-safe", code, od.Delay)
		}
	}
}

func TestX3BTIOBeatsBTOnSlack(t *testing.T) {
	_, out, err := X3DiskSlack(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	bt, btio := out["BT"], out["BTIO"]
	// At the bottom frequency BTIO pays clearly less delay than BT.
	if btio.Cells[0].Delay >= bt.Cells[0].Delay-0.05 {
		t.Errorf("BTIO delay %.2f not clearly below BT %.2f", btio.Cells[0].Delay, bt.Cells[0].Delay)
	}
}

func TestX4OpteronTypesSurvive(t *testing.T) {
	_, out, err := X4Opteron(testOptions(), []string{"EP", "FT"})
	if err != nil {
		t.Fatal(err)
	}
	if out["EP"].Type != paper.TypeI {
		t.Errorf("EP on Opteron classified %s", out["EP"].Type)
	}
	// FT stays a saving code (Type III or IV) on server parts.
	if ft := out["FT"].Type; ft != paper.TypeIII && ft != paper.TypeIV {
		t.Errorf("FT on Opteron classified %s", ft)
	}
	// Seven operating points in every crescendo.
	if len(out["FT"].Cells) != 7 {
		t.Errorf("cells = %d", len(out["FT"].Cells))
	}
}

func TestX5SavingsGrowWithScale(t *testing.T) {
	_, out, err := X5Scaling(testOptions(), []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	s2 := 1 - out[2].Energy
	s8 := 1 - out[8].Energy
	if s8 <= s2 {
		t.Errorf("savings did not grow with scale: %.0f%% at 2 ranks, %.0f%% at 8", s2*100, s8*100)
	}
	for n, cell := range out {
		if cell.Delay > 1.06 {
			t.Errorf("%d ranks: internal FT delay %.3f", n, cell.Delay)
		}
	}
}

func TestX6ReliabilityOrdering(t *testing.T) {
	// Class C: thermal contrast needs runs much longer than the ~10 s RC
	// time constant, or the die never reaches steady state.
	_, out, err := X6Reliability(Default())
	if err != nil {
		t.Fatal(err)
	}
	base := out["no DVS (1400)"]
	internal := out["internal 1400/600"]
	ext := out["external 600"]
	// Every DVS strategy runs cooler and lives longer than no-DVS.
	for label, r := range out {
		if label == "no DVS (1400)" {
			continue
		}
		if r.AvgTemperature() >= base.AvgTemperature() {
			t.Errorf("%s not cooler than no-DVS: %.1f vs %.1f",
				label, r.AvgTemperature(), base.AvgTemperature())
		}
		if r.MinLifetimeFactor() <= base.MinLifetimeFactor() {
			t.Errorf("%s lifetime %.2f not above no-DVS %.2f",
				label, r.MinLifetimeFactor(), base.MinLifetimeFactor())
		}
	}
	// The §1 claim: ≥10°C cooler ⇒ ≥2× lifetime. Internal scheduling
	// achieves it without giving up performance.
	if d := base.AvgTemperature() - internal.AvgTemperature(); d < 10 {
		t.Errorf("internal only %.1f°C cooler", d)
	}
	if ratio := internal.MinLifetimeFactor() / base.MinLifetimeFactor(); ratio < 2 {
		t.Errorf("internal lifetime gain only %.2fx", ratio)
	}
	// External 600 is coolest (lowest power) but pays the delay.
	if ext.AvgTemperature() >= internal.AvgTemperature() {
		t.Errorf("external 600 (%.1f°C) not below internal (%.1f°C)",
			ext.AvgTemperature(), internal.AvgTemperature())
	}
}

func TestX7PowerCapHoldsBudgets(t *testing.T) {
	// Class C: the controller needs tens of intervals to be judged.
	_, out, err := X7PowerCap(Default(), []float64{0.8, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	base := out[1]
	for _, frac := range []float64{0.8, 0.6} {
		r := out[frac]
		budget := base.AvgPower() * frac
		if r.AvgPower() > budget*1.05 {
			t.Errorf("cap %.0f%%: avg %.1f W above budget %.1f W", frac*100, r.AvgPower(), budget)
		}
		if r.Elapsed <= base.Elapsed {
			t.Errorf("cap %.0f%%: no delay cost (%v vs %v)", frac*100, r.Elapsed, base.Elapsed)
		}
	}
	// Tighter cap → lower average power and more delay.
	if out[0.6].AvgPower() >= out[0.8].AvgPower() {
		t.Error("tighter cap did not lower power")
	}
	if out[0.6].Elapsed < out[0.8].Elapsed {
		t.Error("tighter cap did not cost more time")
	}
}

func TestCalibrationRMSGuard(t *testing.T) {
	// The headline calibration claim: across the full class C grid (8
	// codes × 5 static points × both axes), RMS deviation from the
	// paper's Table 2 stays under 0.05 normalized units. This guards the
	// model against regressions from any future parameter change.
	ps, err := BuildProfiles(Default())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var n int
	worst := 0.0
	worstAt := ""
	for _, code := range NPBCodes {
		pub := paper.Find(code)
		prof := ps.Profiles[code]
		for mhz, pc := range pub.ByFreq {
			key := map[int]string{600: "600", 800: "800", 1000: "1000", 1200: "1200", 1400: "1400"}[mhz]
			cell := prof.Cells[key]
			for _, d := range []float64{cell.Delay - pc.Delay, cell.Energy - pc.Energy} {
				if code == "IS" && mhz == 1000 {
					continue // the paper's unexplained anomaly (documented)
				}
				sum += d * d
				n++
				if ad := math.Abs(d); ad > worst {
					worst = ad
					worstAt = code + "@" + key
				}
			}
		}
	}
	rms := math.Sqrt(sum / float64(n))
	t.Logf("calibration: RMS %.4f over %d cells, worst |Δ| %.3f at %s", rms, n, worst, worstAt)
	if rms > 0.05 {
		t.Fatalf("calibration drifted: RMS %.4f > 0.05", rms)
	}
	if worst > 0.11 {
		t.Fatalf("calibration outlier: |Δ| %.3f at %s", worst, worstAt)
	}
}
