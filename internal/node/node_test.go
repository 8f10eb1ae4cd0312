package node

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dvs"
	"repro/internal/sim"
)

// compute runs a compute phase of megacycles on n from p's own body,
// parking p through each sleep StepCompute arms.
func compute(n *Node, p *sim.Proc, megacycles float64) {
	n.StartCompute(p, megacycles, dvs.ActCompute)
	for n.StepCompute(p) {
		p.Park(nil)
	}
}

// stall holds n at activity a and busy fraction busyFrac for d.
func stall(n *Node, p *sim.Proc, a dvs.Activity, busyFrac float64, d time.Duration) {
	n.BeginSpan(a, busyFrac)
	p.Sleep(d)
	n.EndSpan()
}

func newNode(t *testing.T) (*sim.Kernel, *Node) {
	t.Helper()
	k := sim.NewKernel()
	n, err := New(k, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k, n
}

func run(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.WaitBusyFrac = 1.5
	if _, err := New(k, 0, cfg); err == nil {
		t.Fatal("bad WaitBusyFrac accepted")
	}
	cfg = DefaultConfig()
	cfg.StartIndex = 99
	if _, err := New(k, 0, cfg); err == nil {
		t.Fatal("bad StartIndex accepted")
	}
	cfg = DefaultConfig()
	cfg.Table = nil
	cfg.Power.Table = nil
	if _, err := New(k, 0, cfg); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestStartsAtTopFrequency(t *testing.T) {
	_, n := newNode(t)
	if n.Frequency() != 1400 {
		t.Fatalf("start frequency = %v", n.Frequency())
	}
}

func TestComputeDurationScalesWithFrequency(t *testing.T) {
	// 1400 megacycles at 1400 MHz takes 1 s; at 600 MHz it takes 1400/600 s.
	for _, tc := range []struct {
		f    dvs.MHz
		want time.Duration
	}{
		{1400, time.Second},
		{600, time.Second * 1400 / 600},
		{1000, time.Second * 1400 / 1000},
	} {
		k, n := newNode(t)
		if err := n.SetFrequency(tc.f); err != nil {
			t.Fatal(err)
		}
		var took time.Duration
		k.Spawn("w", func(p *sim.Proc) {
			start := p.Now()
			compute(n, p, 1400)
			took = p.Now().Sub(start)
		})
		run(t, k)
		// Allow the transition stall (10 µs) and ns rounding.
		if diff := (took - tc.want); diff < -time.Microsecond || diff > 20*time.Microsecond {
			t.Errorf("f=%v: compute took %v, want ≈%v", tc.f, took, tc.want)
		}
	}
}

func TestMemoryStallFrequencyInsensitive(t *testing.T) {
	for _, f := range []dvs.MHz{600, 1400} {
		k, n := newNode(t)
		if err := n.SetFrequency(f); err != nil {
			t.Fatal(err)
		}
		var took time.Duration
		k.Spawn("w", func(p *sim.Proc) {
			start := p.Now()
			stall(n, p, dvs.ActMemory, 1, 500*time.Millisecond)
			took = p.Now().Sub(start)
		})
		run(t, k)
		if took != 500*time.Millisecond {
			t.Errorf("f=%v: stall took %v", f, took)
		}
	}
}

func TestMidPhaseTransitionStretchesCompute(t *testing.T) {
	// Start 1400 megacycles at 1400 MHz; halfway (0.5 s) drop to 700...
	// there is no 700, use 600: remaining 700 Mcycles at 600 MHz takes
	// 700/600 s, total ≈ 0.5 + 10µs + 700/600.
	k, n := newNode(t)
	var took time.Duration
	k.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		compute(n, p, 1400)
		took = p.Now().Sub(start)
	})
	k.At(sim.Time(500*time.Millisecond), func() {
		if err := n.SetFrequency(600); err != nil {
			t.Error(err)
		}
	})
	run(t, k)
	want := 500*time.Millisecond + 10*time.Microsecond + time.Second*700/600
	if d := took - want; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("stretched compute took %v, want %v", took, want)
	}
	if n.Transitions() != 1 {
		t.Fatalf("transitions = %d", n.Transitions())
	}
}

func TestUpshiftMidPhaseShrinksCompute(t *testing.T) {
	k, n := newNode(t)
	if err := n.SetFrequency(600); err != nil {
		t.Fatal(err)
	}
	var took time.Duration
	k.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		compute(n, p, 1200) // at 600 MHz: 2 s
		took = p.Now().Sub(start)
	})
	k.At(sim.Time(time.Second), func() {
		if err := n.SetFrequency(1200); err != nil {
			t.Error(err)
		}
	})
	run(t, k)
	// The initial 1400→600 transition stalls the first 10 µs, so by t=1s
	// only (1s−10µs)·600MHz cycles retired; the upshift stalls another
	// 10 µs and the remainder runs at 1200 MHz.
	retired := (time.Second - 10*time.Microsecond).Seconds() * 600 // Mcycles
	rest := time.Duration((1200 - retired) / 1200 * 1e9)
	want := time.Second + 10*time.Microsecond + rest
	if d := took - want; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("took %v, want %v", took, want)
	}
}

func TestEnergyIdleVersusBusy(t *testing.T) {
	k, n := newNode(t)
	k.Spawn("w", func(p *sim.Proc) {
		p.Sleep(time.Second) // idle second
		compute(n, p, 1400)  // busy second
	})
	run(t, k)
	e := n.Energy()
	m := n.Config().Power
	top := n.Table().Top()
	wantIdle := m.Watts(top, dvs.ActIdle)
	wantBusy := m.Watts(top, dvs.ActCompute)
	if got := e.Total(); math.Abs(got-(wantIdle+wantBusy)) > 0.01 {
		t.Fatalf("energy = %.3f J, want %.3f J", got, wantIdle+wantBusy)
	}
}

func TestEnergyLowerAtLowFrequencyForMemoryWork(t *testing.T) {
	energyAt := func(f dvs.MHz) float64 {
		k, n := newNode(t)
		if err := n.SetFrequency(f); err != nil {
			t.Fatal(err)
		}
		k.Spawn("w", func(p *sim.Proc) { stall(n, p, dvs.ActMemory, 1, 10*time.Second) })
		run(t, k)
		return n.Energy().Total()
	}
	if lo, hi := energyAt(600), energyAt(1400); lo >= hi {
		t.Fatalf("memory-bound energy at 600 (%v J) not below 1400 (%v J)", lo, hi)
	}
}

func TestEnergyComputePhaseTradeoff(t *testing.T) {
	// Pure compute: lower f takes proportionally longer; with the NEMO
	// calibration the energy at 600 MHz ends up higher (EP is Type I).
	energyAt := func(f dvs.MHz) float64 {
		k, n := newNode(t)
		if err := n.SetFrequency(f); err != nil {
			t.Fatal(err)
		}
		k.Spawn("w", func(p *sim.Proc) { compute(n, p, 14000) })
		run(t, k)
		return n.Energy().Total()
	}
	lo, hi := energyAt(600), energyAt(1400)
	if lo <= hi {
		t.Fatalf("pure-compute energy at 600 (%v) should exceed 1400 (%v): Type I", lo, hi)
	}
	if lo > hi*1.35 {
		t.Fatalf("Type I penalty too large: %v vs %v", lo, hi)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	k, n := newNode(t)
	var mid, end UtilSnapshot
	k.Spawn("w", func(p *sim.Proc) {
		compute(n, p, 1400) // 1 s busy
		mid = n.Util()
		p.Sleep(time.Second) // 1 s idle
		end = n.Util()
	})
	run(t, k)
	if u := Utilization(UtilSnapshot{}, mid); math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("busy-phase utilization = %v", u)
	}
	if u := Utilization(mid, end); u != 0 {
		t.Fatalf("idle-phase utilization = %v", u)
	}
}

func TestUtilizationWaitVisibility(t *testing.T) {
	k, n := newNode(t)
	var end UtilSnapshot
	k.Spawn("w", func(p *sim.Proc) {
		n.BeginSpan(dvs.ActCommWait, n.WaitBusyFrac())
		p.Sleep(time.Second)
		n.EndSpan()
		end = n.Util()
	})
	run(t, k)
	u := Utilization(UtilSnapshot{}, end)
	if math.Abs(u-n.WaitBusyFrac()) > 1e-9 {
		t.Fatalf("wait utilization = %v, want %v", u, n.WaitBusyFrac())
	}
}

func TestUtilizationClamped(t *testing.T) {
	if u := Utilization(UtilSnapshot{Busy: 10, Total: 5}, UtilSnapshot{Busy: 0, Total: 10}); u != 0 {
		t.Fatalf("negative delta not clamped: %v", u)
	}
	if u := Utilization(UtilSnapshot{}, UtilSnapshot{}); u != 0 {
		t.Fatalf("empty interval: %v", u)
	}
}

func TestTimeAtResidency(t *testing.T) {
	k, n := newNode(t)
	k.Spawn("w", func(p *sim.Proc) {
		p.Sleep(time.Second)
		if err := n.SetFrequency(600); err != nil {
			t.Error(err)
		}
		p.Sleep(2 * time.Second)
	})
	run(t, k)
	at := n.TimeAt()
	if at[len(at)-1] != time.Second {
		t.Errorf("residency at top = %v, want 1s", at[len(at)-1])
	}
	if at[0] != 2*time.Second {
		t.Errorf("residency at bottom = %v, want 2s", at[0])
	}
}

func TestSetFrequencySamePointNoTransition(t *testing.T) {
	_, n := newNode(t)
	if err := n.SetFrequency(1400); err != nil {
		t.Fatal(err)
	}
	if n.Transitions() != 0 {
		t.Fatalf("no-op transition counted: %d", n.Transitions())
	}
}

func TestSetFrequencyIndexOutOfRange(t *testing.T) {
	_, n := newNode(t)
	if err := n.SetFrequencyIndex(-1); err == nil {
		t.Fatal("accepted -1")
	}
	if err := n.SetFrequencyIndex(5); err == nil {
		t.Fatal("accepted 5")
	}
}

func TestSetFrequencyTransitionsObservable(t *testing.T) {
	k, n := newNode(t)
	type obs struct {
		f     dvs.MHz
		trans int
	}
	var seen []obs
	k.Spawn("w", func(p *sim.Proc) {
		n.SetFrequency(600)
		seen = append(seen, obs{n.Frequency(), n.Transitions()})
		p.Sleep(time.Millisecond)
		n.SetFrequency(1000)
		seen = append(seen, obs{n.Frequency(), n.Transitions()})
	})
	run(t, k)
	if len(seen) != 2 || seen[0] != (obs{600, 1}) || seen[1] != (obs{1000, 2}) {
		t.Fatalf("after each transition (frequency, count) = %v", seen)
	}
}

func TestTransitionStallCharged(t *testing.T) {
	// Back-to-back transitions while computing cost measurable time.
	k, n := newNode(t)
	var took time.Duration
	k.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		compute(n, p, 140) // 100 ms at 1400
		took = p.Now().Sub(start)
	})
	for i := 1; i <= 5; i++ {
		fi := i
		k.At(sim.Time(fi*10)*sim.Time(time.Millisecond), func() {
			tgt := dvs.MHz(600)
			if fi%2 == 0 {
				tgt = 1400
			}
			if err := n.SetFrequency(tgt); err != nil {
				t.Error(err)
			}
		})
	}
	run(t, k)
	if n.Transitions() != 5 {
		t.Fatalf("transitions = %d", n.Transitions())
	}
	// 50 ms at 1400 (first 5 ticks alternate)... just assert the stall made
	// it strictly longer than the ideal piecewise time without stalls.
	if took <= 100*time.Millisecond {
		t.Fatalf("transition stalls not charged: took %v", took)
	}
}

func TestConcurrentComputePanics(t *testing.T) {
	k, n := newNode(t)
	k.Spawn("a", func(p *sim.Proc) { compute(n, p, 1400) })
	k.Spawn("b", func(p *sim.Proc) { compute(n, p, 1400) })
	if err := k.Run(sim.MaxTime); err == nil {
		t.Fatal("concurrent Compute not rejected")
	}
}

// Property: energy is additive over arbitrary splits of a constant-state
// span and always non-negative.
func TestPropertyEnergyAdditive(t *testing.T) {
	f := func(splitsRaw []uint16) bool {
		k := sim.NewKernel()
		n := MustNew(k, 0, DefaultConfig())
		total := time.Duration(0)
		k.Spawn("w", func(p *sim.Proc) {
			for _, r := range splitsRaw {
				d := time.Duration(r) * time.Microsecond
				total += d
				stall(n, p, dvs.ActMemory, 1, d)
			}
		})
		if err := k.Run(sim.MaxTime); err != nil {
			return false
		}
		e := n.Energy().Total()
		if e < 0 {
			return false
		}
		m := n.Config().Power
		want := m.Watts(n.Table().Top(), dvs.ActMemory) * total.Seconds()
		return math.Abs(e-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: compute delay is monotone non-increasing in frequency.
func TestPropertyComputeDelayMonotone(t *testing.T) {
	cfg := DefaultConfig()
	durations := make([]time.Duration, len(cfg.Table))
	for i := range cfg.Table {
		k := sim.NewKernel()
		n := MustNew(k, 0, cfg)
		if err := n.SetFrequencyIndex(i); err != nil {
			t.Fatal(err)
		}
		var took time.Duration
		k.Spawn("w", func(p *sim.Proc) {
			start := p.Now()
			compute(n, p, 700)
			took = p.Now().Sub(start)
		})
		if err := k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		durations[i] = took
	}
	for i := 1; i < len(durations); i++ {
		if durations[i] >= durations[i-1] {
			t.Fatalf("delay not decreasing with frequency: %v", durations)
		}
	}
}

// Property: total residency across operating points equals elapsed time.
func TestPropertyResidencySumsToElapsed(t *testing.T) {
	f := func(seed int64) bool {
		k := sim.NewKernel()
		n := MustNew(k, 0, DefaultConfig())
		k.Spawn("w", func(p *sim.Proc) {
			idx := int(seed)
			if idx < 0 {
				idx = -idx
			}
			for i := 0; i < 5; i++ {
				n.SetFrequencyIndex((idx + i) % len(n.Table()))
				p.Sleep(time.Duration(100+i*37) * time.Millisecond)
			}
		})
		if err := k.Run(sim.MaxTime); err != nil {
			return false
		}
		var sum time.Duration
		for _, d := range n.TimeAt() {
			sum += d
		}
		return sum == time.Duration(k.Now())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStallFrequencyInsensitiveAndIdle(t *testing.T) {
	for _, f := range []dvs.MHz{600, 1400} {
		k, n := newNode(t)
		if err := n.SetFrequency(f); err != nil {
			t.Fatal(err)
		}
		var took time.Duration
		k.Spawn("w", func(p *sim.Proc) {
			start := p.Now()
			stall(n, p, dvs.ActDiskIO, 0, 2*time.Second)
			took = p.Now().Sub(start)
		})
		run(t, k)
		if took != 2*time.Second {
			t.Errorf("f=%v: disk stall took %v", f, took)
		}
		// iowait shows as idle to /proc-style accounting.
		if u := Utilization(UtilSnapshot{}, n.Util()); u > 0.01 {
			t.Errorf("f=%v: disk stall utilization %v, want ≈0", f, u)
		}
		// Disk energy accrues; CPU energy stays near idle levels.
		e := n.Energy()
		if e.Disk <= 0 {
			t.Errorf("no disk energy")
		}
		m := n.Config().Power
		idleCPU := m.CPUWatts(n.OperatingPoint(), dvs.ActIdle) * 2
		diskCPU := m.CPUWatts(n.OperatingPoint(), dvs.ActDiskIO) * 2
		if e.CPU < idleCPU-0.1 || e.CPU > diskCPU+0.1 {
			t.Errorf("disk-phase CPU energy %v outside [%v, %v]", e.CPU, idleCPU, diskCPU)
		}
	}
}

func TestEnergyBreakdownAdd(t *testing.T) {
	a := Energy{CPU: 1, Memory: 2, NIC: 3, Disk: 4, Base: 5}
	b := Energy{CPU: 10, Memory: 20, NIC: 30, Disk: 40, Base: 50}
	sum := a.Add(b)
	if sum.Total() != 165 {
		t.Fatalf("sum = %+v", sum)
	}
}
