package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/paper"
)

func TestMetricNamesAndExponents(t *testing.T) {
	cases := []struct {
		m    Metric
		name string
		exp  int
	}{{EDP, "EDP", 1}, {ED2P, "ED2P", 2}, {ED3P, "ED3P", 3}}
	for _, c := range cases {
		if c.m.String() != c.name || c.m.Exponent() != c.exp {
			t.Errorf("%v: got %q/%d", c.m, c.m.String(), c.m.Exponent())
		}
	}
}

func TestEval(t *testing.T) {
	if v := ED2P.Eval(2, 0.5); v != 2.0 {
		t.Fatalf("ED2P(2, .5) = %v", v)
	}
	if v := ED3P.Eval(1, 0.9); v != 0.9 {
		t.Fatalf("ED3P(1, .9) = %v", v)
	}
}

func TestSelectEmpty(t *testing.T) {
	if _, err := Select(ED3P, nil); err == nil {
		t.Fatal("empty selection accepted")
	}
}

func TestSelectPicksMinimum(t *testing.T) {
	cands := []Candidate{
		{"600", 1.13, 0.62},
		{"800", 1.07, 0.70},
		{"1000", 1.04, 0.80},
		{"1200", 1.02, 0.93},
		{"1400", 1.00, 1.00},
	}
	// FT's paper row: ED3P picks 800 — Figure 6's "saves 30% energy with
	// 7% delay increase" — while the laxer ED2P picks 600 — Figure 7's
	// "38% savings with 13% delay".
	got, err := Select(ED3P, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "800" {
		t.Fatalf("ED3P picked %s, want 800", got.Label)
	}
	got2, err := Select(ED2P, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Label != "600" {
		t.Fatalf("ED2P picked %s, want 600", got2.Label)
	}
}

func TestSelectEPPrefersTop(t *testing.T) {
	// Pure compute: no metric should move EP off the top frequency.
	cands := []Candidate{
		{"600", 2.35, 1.15},
		{"800", 1.75, 1.03},
		{"1000", 1.40, 1.02},
		{"1200", 1.17, 1.03},
		{"1400", 1.00, 1.00},
	}
	for _, m := range []Metric{EDP, ED2P, ED3P} {
		got, err := Select(m, cands)
		if err != nil {
			t.Fatal(err)
		}
		if got.Label != "1400" {
			t.Fatalf("%v picked %s for EP", m, got.Label)
		}
	}
}

func TestSelectTieBreaksOnDelay(t *testing.T) {
	cands := []Candidate{
		{"slow", 2.0, 0.25}, // ED2P = 1.0
		{"fast", 1.0, 1.00}, // ED2P = 1.0
	}
	got, err := Select(ED2P, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "fast" {
		t.Fatalf("tie broke to %s, want fast", got.Label)
	}
}

func TestED3PStricterThanED2P(t *testing.T) {
	// §4.5: the ED3P choice never has a worse delay than the ED2P choice.
	rows := [][]Candidate{}
	for _, p := range paper.Table2 {
		var cands []Candidate
		for f, c := range p.ByFreq {
			cands = append(cands, Candidate{Label: labelOf(f), Delay: c.Delay, Energy: c.Energy})
		}
		rows = append(rows, cands)
	}
	for i, cands := range rows {
		c3, err := Select(ED3P, cands)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Select(ED2P, cands)
		if err != nil {
			t.Fatal(err)
		}
		if c3.Delay > c2.Delay+1e-9 {
			t.Errorf("row %d (%s): ED3P delay %v > ED2P delay %v", i, paper.Table2[i].Code, c3.Delay, c2.Delay)
		}
	}
}

func labelOf(f int) string {
	return map[int]string{600: "600", 800: "800", 1000: "1000", 1200: "1200", 1400: "1400"}[f]
}

func TestRankOrdering(t *testing.T) {
	cands := []Candidate{
		{"a", 1.5, 0.9},
		{"b", 1.0, 1.0},
		{"c", 1.1, 0.7},
	}
	r := Rank(ED2P, cands)
	for i := 1; i < len(r); i++ {
		if r[i-1].Value(ED2P) > r[i].Value(ED2P)+1e-12 {
			t.Fatalf("not sorted: %+v", r)
		}
	}
	if r[0].Label != "c" {
		t.Fatalf("best = %s", r[0].Label)
	}
}

func TestClassifyPaperRows(t *testing.T) {
	// The classifier must assign every Table 2 row its §5.2 type.
	for _, p := range paper.Table2 {
		code := p.Code[:2]
		var c Crescendo
		for _, f := range []int{600, 800, 1000, 1200, 1400} {
			cell := p.ByFreq[f]
			c = append(c, Candidate{Label: labelOf(f), Delay: cell.Delay, Energy: cell.Energy})
		}
		want := paper.Types[code]
		if got := c.Classify(); got != want {
			t.Errorf("%s classified %v, want %v", p.Code, got, want)
		}
	}
}

func TestClassifyDegenerate(t *testing.T) {
	if got := (Crescendo{}).Classify(); got != paper.TypeII {
		t.Fatalf("empty crescendo → %v", got)
	}
	flat := Crescendo{{"600", 1.0, 1.0}, {"1400", 1.0, 1.0}}
	if got := flat.Classify(); got != paper.TypeII {
		t.Fatalf("flat crescendo → %v", got)
	}
}

func TestPropertySelectIsArgmin(t *testing.T) {
	f := func(ds, es []uint8) bool {
		n := len(ds)
		if len(es) < n {
			n = len(es)
		}
		if n == 0 {
			return true
		}
		var cands []Candidate
		for i := 0; i < n; i++ {
			cands = append(cands, Candidate{
				Label:  string(rune('a' + i%26)),
				Delay:  1 + float64(ds[i])/100,
				Energy: 0.1 + float64(es[i])/100,
			})
		}
		for _, m := range []Metric{EDP, ED2P, ED3P} {
			best, err := Select(m, cands)
			if err != nil {
				return false
			}
			for _, c := range cands {
				if best.Value(m) > c.Value(m)+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any candidate set, higher exponent never selects a
// higher-delay point.
func TestPropertyExponentMonotoneDelay(t *testing.T) {
	f := func(ds, es []uint8) bool {
		n := len(ds)
		if len(es) < n {
			n = len(es)
		}
		if n < 2 {
			return true
		}
		var cands []Candidate
		for i := 0; i < n; i++ {
			cands = append(cands, Candidate{
				Label:  string(rune('a' + i%26)),
				Delay:  1 + float64(ds[i])/100,
				Energy: 0.1 + float64(es[i])/100,
			})
		}
		c1, _ := Select(EDP, cands)
		c2, _ := Select(ED2P, cands)
		c3, _ := Select(ED3P, cands)
		return c3.Delay <= c2.Delay+1e-9 && c2.Delay <= c1.Delay+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltasAreEndToEnd pins the semantics the doc comment promises:
// deltas are the raw end-to-end changes of the normalized series between
// the fastest and slowest points — intermediate points ignored, and no
// division by the frequency span.
func TestDeltasAreEndToEnd(t *testing.T) {
	c := Crescendo{
		{"600", 1.20, 0.70},
		{"1000", 1.05, 0.90}, // must not influence the deltas
		{"1400", 1.00, 1.00},
	}
	d, e := c.deltas()
	if math.Abs(d-0.20) > 1e-12 || math.Abs(e-0.30) > 1e-12 {
		t.Fatalf("deltas = (%g, %g), want end-to-end (0.20, 0.30) with no span normalization", d, e)
	}
}

// TestFigure8Pinned hard-codes the §5.2/Figure 8 class of every NPB code,
// independent of the paper.Types table, so a classifier or threshold
// change that reshuffles Figure 8 fails loudly here.
func TestFigure8Pinned(t *testing.T) {
	want := map[string]paper.CrescendoType{
		"EP": paper.TypeI,
		"BT": paper.TypeII, "MG": paper.TypeII, "LU": paper.TypeII,
		"FT": paper.TypeIII, "CG": paper.TypeIII, "SP": paper.TypeIII,
		"IS": paper.TypeIV,
	}
	seen := 0
	for _, p := range paper.Table2 {
		code := p.Code[:2]
		w, ok := want[code]
		if !ok {
			t.Fatalf("Table 2 code %s missing from the Figure 8 pin", p.Code)
		}
		var c Crescendo
		for _, f := range []int{600, 800, 1000, 1200, 1400} {
			cell := p.ByFreq[f]
			c = append(c, Candidate{Label: labelOf(f), Delay: cell.Delay, Energy: cell.Energy})
		}
		if got := c.Classify(); got != w {
			t.Errorf("%s classified Type %v, want Type %v", p.Code, got, w)
		}
		seen++
	}
	if seen != len(want) {
		t.Fatalf("pinned %d codes, Table 2 has %d", len(want), seen)
	}
}
