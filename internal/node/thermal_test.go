package node

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dvs"
	"repro/internal/sim"
)

func TestThermalConfigValidate(t *testing.T) {
	if err := DefaultThermal().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*ThermalConfig)
	}{
		{"zero resistance", func(c *ThermalConfig) { c.ResistanceCPerW = 0 }},
		{"NaN resistance", func(c *ThermalConfig) { c.ResistanceCPerW = nan }},
		{"infinite resistance", func(c *ThermalConfig) { c.ResistanceCPerW = inf }},
		{"zero time constant", func(c *ThermalConfig) { c.TimeConstant = 0 }},
		{"NaN ambient", func(c *ThermalConfig) { c.AmbientC = nan }},
		{"infinite ambient", func(c *ThermalConfig) { c.AmbientC = -inf }},
		{"NaN reference", func(c *ThermalConfig) { c.ReferenceC = nan }},
		{"infinite reference", func(c *ThermalConfig) { c.ReferenceC = inf }},
	} {
		c := DefaultThermal()
		tc.edit(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
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
		compute(n, p, 1400*120) // 2 min busy ≫ τ=10 s
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
		compute(n, p, 1400*60)
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
			compute(n, p, float64(f)*120) // 2 min busy at f
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
			compute(n, p, float64(f)*600) // 10 min busy: thermal steady state
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

// powerSpan is one piece of a piecewise-constant CPU power trace.
type powerSpan struct {
	watts float64
	dt    time.Duration
}

// referenceThermal integrates a trace by brute force, independently of
// the integrator's coalescing and series: every span is cut into steps of
// at most 1 ms, each relaxed with math.Exp and integrated by Simpson's
// rule over math.Exp2 at its ends and midpoint.
func referenceThermal(c ThermalConfig, trace []powerSpan) ThermalStats {
	tau := c.TimeConstant.Seconds()
	arrhenius := func(T float64) float64 { return math.Exp2((T - c.ReferenceC) / 10) }
	T, maxC := c.AmbientC, c.AmbientC
	var integral, life float64
	var total time.Duration
	for _, s := range trace {
		tss := c.AmbientC + s.watts*c.ResistanceCPerW
		steps := (s.dt + time.Millisecond - 1) / time.Millisecond
		h := s.dt.Seconds() / float64(steps)
		for i := time.Duration(0); i < steps; i++ {
			mid := tss + (T-tss)*math.Exp(-h/2/tau)
			end := tss + (T-tss)*math.Exp(-h/tau)
			integral += tss*h - (T-tss)*tau*math.Expm1(-h/tau)
			life += h / 6 * (arrhenius(T) + 4*arrhenius(mid) + arrhenius(end))
			T = end
			maxC = max(maxC, T)
		}
		total += s.dt
	}
	return ThermalStats{
		CurrentC:       T,
		MaxC:           maxC,
		AvgC:           integral / total.Seconds(),
		LifetimeFactor: total.Seconds() / life,
		Span:           total,
	}
}

// randomTrace draws a power trace that mixes the spans a cell produces
// (µs to s), sub-µs slivers, repeats of the previous power (runs the
// integrator coalesces), and two spans of at least 10τ, where the die
// settles and the panel cap matters.
func randomTrace(r *rand.Rand, tau time.Duration) []powerSpan {
	levels := []float64{0, 2.5, 7, 13, 21}
	trace := make([]powerSpan, 40+r.Intn(80))
	w := levels[r.Intn(len(levels))]
	for i := range trace {
		if r.Intn(3) > 0 {
			w = levels[r.Intn(len(levels))]
		}
		var dt time.Duration
		if r.Intn(8) == 0 {
			dt = time.Duration(1 + r.Intn(999))
		} else {
			// Log-uniform over 1 µs .. 4 s.
			dt = time.Duration(math.Exp(math.Log(1e3) + r.Float64()*math.Log(4e6)))
		}
		trace[i] = powerSpan{w, dt}
	}
	for k := 0; k < 2; k++ {
		i := r.Intn(len(trace))
		trace[i].dt = 10*tau + time.Duration(r.Int63n(int64(5*tau)))
	}
	return trace
}

func integrate(c *ThermalConfig, trace []powerSpan) ThermalStats {
	ts := newThermalState(*c)
	for _, s := range trace {
		ts.advance(c, s.watts, s.dt)
	}
	return ts.stats(c)
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// TestThermalMatchesReference bounds the integrator against the
// sub-stepped reference: over random traces, AvgC, MaxC and
// LifetimeFactor agree to 1e-6 relative.
func TestThermalMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 16; i++ {
		c := DefaultThermal()
		if i%2 == 1 {
			c.TimeConstant = time.Second
		}
		trace := randomTrace(r, c.TimeConstant)
		got, want := integrate(&c, trace), referenceThermal(c, trace)
		if got.Span != want.Span {
			t.Fatalf("trace %d: span %v, want %v", i, got.Span, want.Span)
		}
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"AvgC", got.AvgC, want.AvgC},
			{"MaxC", got.MaxC, want.MaxC},
			{"LifetimeFactor", got.LifetimeFactor, want.LifetimeFactor},
		} {
			if e := relErr(m.got, m.want); !(e <= 1e-6) {
				t.Errorf("trace %d (τ=%v): %s %v, reference %v (relative error %.2g)", i, c.TimeConstant, m.name, m.got, m.want, e)
			}
		}
	}
}

// TestThermalSplitAndReadInvariant checks that the integrator's result
// depends on the power trace alone: cutting a span into pieces, or
// reading the stats mid-run, leaves the final stats where they were.
func TestThermalSplitAndReadInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	c := DefaultThermal()
	for i := 0; i < 32; i++ {
		trace := randomTrace(r, c.TimeConstant)
		want := integrate(&c, trace)

		ts := newThermalState(c)
		for _, s := range trace {
			k := 1 + r.Intn(5)
			piece := s.dt / time.Duration(k)
			for j := 1; j < k; j++ {
				ts.advance(&c, s.watts, piece)
				if r.Intn(2) == 0 {
					ts.stats(&c)
				}
			}
			ts.advance(&c, s.watts, s.dt-piece*time.Duration(k-1))
			if r.Intn(4) == 0 {
				ts.stats(&c)
			}
		}
		got := ts.stats(&c)
		if got.Span != want.Span {
			t.Fatalf("trace %d: span %v, want %v", i, got.Span, want.Span)
		}
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"CurrentC", got.CurrentC, want.CurrentC},
			{"AvgC", got.AvgC, want.AvgC},
			{"MaxC", got.MaxC, want.MaxC},
			{"LifetimeFactor", got.LifetimeFactor, want.LifetimeFactor},
		} {
			if e := relErr(m.got, m.want); !(e <= 1e-12) {
				t.Errorf("trace %d: split/read %s %v, whole %v (relative change %.2g)", i, m.name, m.got, m.want, e)
			}
		}
	}
}

// TestThermalSpanIsElapsedTime checks that the integrator accounts whole
// nanoseconds: across a compute phase that DVS transitions interrupt at
// odd instants, the thermal span is exactly the elapsed virtual time.
func TestThermalSpanIsElapsedTime(t *testing.T) {
	k, n := newNode(t)
	k.Spawn("w", func(p *sim.Proc) {
		compute(n, p, 1400*3)
		p.Sleep(777_777_777)
		compute(n, p, 999.999_999)
	})
	k.Spawn("dvs", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			p.Sleep(time.Duration(97_531_357 + 13*i))
			if err := n.SetFrequencyIndex(i % len(n.Table())); err != nil {
				t.Error(err)
			}
		}
	})
	run(t, k)
	if got, want := n.Thermal().Span, k.Now().Sub(0); got != want {
		t.Fatalf("thermal span %v, elapsed %v", got, want)
	}
}
