package powerpack

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/sim"
)

// meteredRun is one seeded random experiment: a few nodes under a
// changing mix of compute at random operating points and idle gaps,
// metered for a minutes-long window while an ACPI poller reads every
// battery the way the PowerPack daemon polls /proc/acpi.
type meteredRun struct {
	nodes   int
	refresh time.Duration // battery refresh period
	length  time.Duration // measurement window
	seed    int64
}

func randomRuns(seed int64, n int) []meteredRun {
	rng := rand.New(rand.NewSource(seed))
	runs := make([]meteredRun, n)
	for i := range runs {
		runs[i] = meteredRun{
			nodes:   1 + rng.Intn(4),
			refresh: []time.Duration{15 * time.Second, 20 * time.Second}[rng.Intn(2)],
			length:  time.Duration(120+rng.Intn(360))*time.Second + time.Duration(rng.Int63n(int64(time.Second))),
			seed:    rng.Int63(),
		}
	}
	return runs
}

func (mr meteredRun) measure(t *testing.T) Measurement {
	t.Helper()
	k := sim.NewKernel()
	nodes := make([]*node.Node, mr.nodes)
	for i := range nodes {
		nodes[i] = node.MustNew(k, i, node.DefaultConfig())
	}
	m, err := NewMeter(k, nodes, BatteryConfig{CapacityMWh: 59_000, Refresh: mr.refresh})
	if err != nil {
		t.Fatal(err)
	}
	end := sim.Time(mr.length)
	rng := rand.New(rand.NewSource(mr.seed))
	for i, n := range nodes {
		n, load := n, rand.New(rand.NewSource(rng.Int63()))
		k.Spawn(fmt.Sprintf("load%d", i), func(p *sim.Proc) {
			for p.Now() < end {
				if err := n.SetFrequencyIndex(load.Intn(len(n.Table()))); err != nil {
					t.Error(err)
					return
				}
				if load.Intn(3) > 0 {
					compute(n, p, float64(100+load.Intn(20_000)))
				} else {
					p.Sleep(time.Duration(load.Intn(10_000)) * time.Millisecond)
				}
			}
		})
	}
	poll := time.Duration(1+rng.Intn(5)) * time.Second
	k.Spawn("acpi-poll", func(p *sim.Proc) {
		for p.Now() < end {
			for _, b := range m.batteries {
				b.Poll()
			}
			p.Sleep(poll)
		}
	})
	var meas Measurement
	k.Spawn("experiment", func(p *sim.Proc) {
		m.Begin()
		p.Sleep(mr.length)
		if meas, err = m.End(); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	return meas
}

// TestPropertyQuantizationBounds: at the paper's polling periods (battery
// refresh 15–20 s, strip window 1 min), each instrument lies within its
// derived bound of the true energy on any minutes-long run. ACPI differs
// only by the integer-mWh floor of its two endpoint readings, so it
// passes CrossCheck with no tolerance; the Baytech reconstruction misses
// exactly the run's last, partial strip window.
func TestPropertyQuantizationBounds(t *testing.T) {
	for i, mr := range randomRuns(7, 24) {
		meas := mr.measure(t)
		if meas.True <= 0 || meas.Elapsed != mr.length {
			t.Fatalf("run %d (%+v): true %.1f J over %v", i, mr, meas.True, meas.Elapsed)
		}
		if err := meas.CrossCheck(mr.nodes, 0); err != nil {
			t.Errorf("run %d (%+v): %v", i, mr, err)
		}
		sec := meas.Elapsed.Seconds()
		uncovered := meas.True / sec * math.Mod(sec, 60)
		if d := math.Abs(meas.Baytech - meas.True); d > uncovered*(1+1e-9) {
			t.Errorf("run %d (%+v): |Baytech - True| = %.2f J beyond the last partial window's %.2f J",
				i, mr, d, uncovered)
		}
	}
}
