package paper

import "testing"

func TestTable2Complete(t *testing.T) {
	if len(Table2) != 8 {
		t.Fatalf("Table2 has %d rows", len(Table2))
	}
	freqs := []int{600, 800, 1000, 1200, 1400}
	for _, p := range Table2 {
		if len(p.ByFreq) != 5 {
			t.Errorf("%s: %d frequencies", p.Code, len(p.ByFreq))
		}
		for _, f := range freqs {
			c, ok := p.ByFreq[f]
			if !ok {
				t.Errorf("%s: missing %d MHz", p.Code, f)
				continue
			}
			if c.Delay <= 0 || c.Energy <= 0 {
				t.Errorf("%s at %d: non-positive cell %+v", p.Code, f, c)
			}
		}
		top := p.ByFreq[1400]
		if top.Delay != 1.0 || top.Energy != 1.0 {
			t.Errorf("%s: 1400 MHz cell %+v, want (1,1)", p.Code, top)
		}
		if p.Auto.Delay <= 0 || p.Auto.Energy <= 0 {
			t.Errorf("%s: bad auto cell %+v", p.Code, p.Auto)
		}
	}
}

func TestOnlySPIsEstimated(t *testing.T) {
	for _, p := range Table2 {
		want := p.Code == "SP.C.9"
		if p.EnergyEstimated != want {
			t.Errorf("%s: EnergyEstimated = %v", p.Code, p.EnergyEstimated)
		}
	}
}

func TestTypesCoverAllCodes(t *testing.T) {
	for _, p := range Table2 {
		code := p.Code[:2]
		if _, ok := Types[code]; !ok {
			t.Errorf("no type for %s", code)
		}
	}
	counts := map[CrescendoType]int{}
	for _, ty := range Types {
		counts[ty]++
	}
	if counts[TypeI] != 1 || counts[TypeII] != 3 || counts[TypeIII] != 3 || counts[TypeIV] != 1 {
		t.Errorf("type distribution %v", counts)
	}
}

func TestTypeStrings(t *testing.T) {
	cases := map[CrescendoType]string{TypeI: "I", TypeII: "II", TypeIII: "III", TypeIV: "IV", CrescendoType(9): "?"}
	for ty, want := range cases {
		if ty.String() != want {
			t.Errorf("%d.String() = %q", ty, ty.String())
		}
	}
}

func TestFind(t *testing.T) {
	if p := Find("FT"); p == nil || p.Code != "FT.C.8" {
		t.Errorf("Find(FT) = %+v", p)
	}
	if p := Find("FT.C.8"); p == nil {
		t.Error("exact Find failed")
	}
	if p := Find("XX"); p != nil {
		t.Errorf("Find(XX) = %+v", p)
	}
}

func TestDelayMonotoneExceptISAndSP(t *testing.T) {
	// The published delays rise as frequency falls, except the IS 1000 MHz
	// anomaly and SP's sub-unity 1200 MHz point, both discussed in §5.2.
	for _, p := range Table2 {
		freqs := []int{1400, 1200, 1000, 800, 600}
		prev := -1.0
		for _, f := range freqs {
			d := p.ByFreq[f].Delay
			anomaly := (p.Code == "IS.C.8" && (f == 1000 || f == 800)) ||
				(p.Code == "SP.C.9" && (f == 1200 || f == 1000))
			if d < prev && !anomaly {
				t.Errorf("%s: delay drops at %d MHz (%v < %v)", p.Code, f, d, prev)
			}
			if d > prev {
				prev = d
			}
		}
	}
}

func TestEnergyDecreasesWithFrequencyExceptEP(t *testing.T) {
	for _, p := range Table2 {
		if p.Code == "EP.C.8" {
			continue // Type I: energy rises at low frequency
		}
		if e600, e1400 := p.ByFreq[600].Energy, p.ByFreq[1400].Energy; e600 >= e1400 {
			t.Errorf("%s: no energy saving at 600 (%v)", p.Code, e600)
		}
	}
}

func TestHeadlineConstants(t *testing.T) {
	if InternalFT.Energy > 0.65 || InternalFT.Delay > 1.01 {
		t.Errorf("InternalFT = %+v", InternalFT)
	}
	if len(InternalCG) != 2 {
		t.Errorf("InternalCG = %v", InternalCG)
	}
	if len(Swim) != 5 {
		t.Errorf("Swim has %d points", len(Swim))
	}
	if Swim[1400].Delay != 1 || Swim[1400].Energy != 1 {
		t.Errorf("Swim top point %+v", Swim[1400])
	}
}

func TestProfileAt(t *testing.T) {
	ft := Find("FT")
	if c, ok := ft.At("auto"); !ok || c != ft.Auto {
		t.Errorf("At(auto) = %+v, %v; want %+v", c, ok, ft.Auto)
	}
	if c, ok := ft.At("600"); !ok || c != ft.ByFreq[600] {
		t.Errorf("At(600) = %+v, %v; want %+v", c, ok, ft.ByFreq[600])
	}
	for _, key := range []string{"700", "fast", ""} {
		if _, ok := ft.At(key); ok {
			t.Errorf("At(%q) found a cell", key)
		}
	}
	if _, ok := Find("SWIM").At("auto"); ok {
		t.Error("a code without a Table 2 row has a cell")
	}
}
