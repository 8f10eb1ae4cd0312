package node

import (
	"math"
	"testing"
	"time"

	"repro/internal/dvs"
	"repro/internal/sim"
)

func TestThermalConfigValidate(t *testing.T) {
	if err := DefaultThermal().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := ThermalConfig{ResistanceCPerW: 0, TimeConstant: time.Second}
	if err := bad.Validate(); err == nil {
		t.Error("zero resistance accepted")
	}
	bad = ThermalConfig{ResistanceCPerW: 1, TimeConstant: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero time constant accepted")
	}
}

func TestTemperatureStartsAtAmbient(t *testing.T) {
	_, n := newNode(t)
	if got := n.Thermal().CurrentC; got != DefaultThermal().AmbientC {
		t.Fatalf("initial temperature %v", got)
	}
}

func TestTemperatureApproachesSteadyState(t *testing.T) {
	k, n := newNode(t)
	k.Spawn("w", func(p *sim.Proc) {
		n.Compute(p, 1400*120) // 2 min busy ≫ τ=10 s
	})
	run(t, k)
	cfg := n.Config()
	wantSS := cfg.Thermal.AmbientC + cfg.Power.CPUWatts(n.Table().Top(), dvs.ActCompute)*cfg.Thermal.ResistanceCPerW
	if got := n.Thermal().CurrentC; math.Abs(got-wantSS) > 0.5 {
		t.Fatalf("temperature %v, steady state %v", got, wantSS)
	}
	st := n.Thermal()
	if st.MaxC < wantSS-1 || st.MaxC > wantSS+1 {
		t.Fatalf("max %v vs steady state %v", st.MaxC, wantSS)
	}
	if st.AvgC >= st.MaxC || st.AvgC <= cfg.Thermal.AmbientC {
		t.Fatalf("avg %v outside (ambient, max)", st.AvgC)
	}
}

func TestTemperatureCoolsWhenIdle(t *testing.T) {
	k, n := newNode(t)
	var hot, cooled float64
	k.Spawn("w", func(p *sim.Proc) {
		n.Compute(p, 1400*60)
		hot = n.Thermal().CurrentC
		p.Sleep(time.Minute)
		cooled = n.Thermal().CurrentC
	})
	run(t, k)
	if cooled >= hot-10 {
		t.Fatalf("no cooling: %v → %v", hot, cooled)
	}
}

func TestLowFrequencyRunsCooler(t *testing.T) {
	tempAt := func(f dvs.MHz) float64 {
		k, n := newNode(t)
		if err := n.SetFrequency(f); err != nil {
			t.Fatal(err)
		}
		k.Spawn("w", func(p *sim.Proc) {
			n.Compute(p, float64(f)*120) // 2 min busy at f
		})
		run(t, k)
		return n.Thermal().CurrentC
	}
	hi := tempAt(1400)
	lo := tempAt(600)
	if lo >= hi-10 {
		t.Fatalf("600 MHz (%0.1f°C) not ≥10°C cooler than 1400 MHz (%0.1f°C)", lo, hi)
	}
}

func TestArrheniusLifetimeDoubling(t *testing.T) {
	// Running ~10°C cooler should roughly double the lifetime factor —
	// the paper's §1 reliability claim, reproduced end to end.
	lifeAt := func(f dvs.MHz) (float64, float64) {
		k, n := newNode(t)
		if err := n.SetFrequency(f); err != nil {
			t.Fatal(err)
		}
		k.Spawn("w", func(p *sim.Proc) {
			n.Compute(p, float64(f)*600) // 10 min busy: thermal steady state
		})
		run(t, k)
		st := n.Thermal()
		return st.AvgC, st.LifetimeFactor
	}
	tHi, lHi := lifeAt(1400)
	tLo, lLo := lifeAt(800)
	dT := tHi - tLo
	if dT < 5 {
		t.Fatalf("temperature delta only %.1f°C", dT)
	}
	wantRatio := math.Pow(2, dT/10)
	gotRatio := lLo / lHi
	if math.Abs(gotRatio-wantRatio)/wantRatio > 0.1 {
		t.Fatalf("lifetime ratio %.2f, Arrhenius predicts %.2f for ΔT=%.1f°C", gotRatio, wantRatio, dT)
	}
}

func TestThermalStatsEmptySpan(t *testing.T) {
	_, n := newNode(t)
	st := n.Thermal()
	if st.LifetimeFactor != 1 || st.AvgC != DefaultThermal().AmbientC {
		t.Fatalf("empty-span stats %+v", st)
	}
}
