package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/sim"
)

// TestPropertyDaemonsStayInTable drives every daemon over random seeded
// busy/idle traces with random control intervals and asserts that no
// daemon ever leaves the DVS table. A proposed index outside the table
// fails the node's SetFrequencyIndex and retires the daemon, so a clean
// Err is the in-table check. The loop must also step exactly once per
// whole interval before Stop, and every counted move must be one node
// transition.
func TestPropertyDaemonsStayInTable(t *testing.T) {
	const seeds = 30
	kinds := []string{"cpuspeed-v1.1", "cpuspeed-v1.2.1", "ondemand", "predictive", "powercap"}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				checkStaysInTable(t, kind, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func checkStaysInTable(t *testing.T, kind string, rng *rand.Rand) {
	k := sim.NewKernel()
	nodes := make([]*node.Node, 1+rng.Intn(4))
	base := make([]int, len(nodes))
	for i := range nodes {
		nodes[i] = newNode(t, k, i)
		if err := nodes[i].SetFrequencyIndex(rng.Intn(len(nodes[i].Table()))); err != nil {
			t.Fatal(err)
		}
		base[i] = nodes[i].Transitions()
	}
	interval := 10*time.Millisecond + time.Duration(rng.Int63n(int64(2*time.Second)))
	stopAt := 5*time.Second + time.Duration(rng.Int63n(int64(25*time.Second)))
	if stopAt%interval == 0 {
		stopAt++ // keep Stop off a wake-up instant
	}

	// Start the daemon under test: a cluster-level power cap, or one
	// governor per node.
	var (
		pc    *PowerCap
		govs  []*Governor
		loops []*loop
		err   error
	)
	switch kind {
	case "powercap":
		cfg := DefaultPowerCap(float64(len(nodes)) * (5 + 30*rng.Float64()))
		cfg.Interval = interval
		pc, err = StartPowerCap(k, nodes, cfg)
	case "cpuspeed-v1.1", "cpuspeed-v1.2.1":
		cfg := CPUSpeedV11()
		if kind == "cpuspeed-v1.2.1" {
			cfg = CPUSpeedV121()
		}
		cfg.Interval = interval
		govs, _, err = StartCluster(k, nodes, StartCPUSpeed, cfg)
	case "ondemand":
		cfg := DefaultOnDemand()
		cfg.SamplingRate = interval
		govs, _, err = StartCluster(k, nodes, StartOnDemand, cfg)
	case "predictive":
		cfg := DefaultPredictive()
		cfg.Window = interval
		govs, _, err = StartCluster(k, nodes, StartPredictive, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if pc != nil {
		loops = append(loops, &pc.loop)
	}
	for _, g := range govs {
		loops = append(loops, &g.loop)
	}

	// Each node alternates random busy and idle phases until the stop.
	for _, n := range nodes {
		k.Spawn("load", func(p *sim.Proc) {
			for p.Now() < sim.Time(stopAt) {
				busy := time.Duration(rng.Int63n(int64(3 * time.Second)))
				n.Compute(p, float64(n.Frequency())*busy.Seconds())
				p.Sleep(time.Duration(rng.Int63n(int64(3 * time.Second))))
			}
		})
	}
	k.At(sim.Time(stopAt), func() {
		for _, l := range loops {
			l.Stop()
		}
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}

	want := int(stopAt / interval)
	for _, l := range loops {
		if err := l.Err(); err != nil {
			t.Fatalf("interval %v: %v", interval, err)
		}
		if l.Steps != want {
			t.Errorf("interval %v, stop at %v: %d steps, want %d", interval, stopAt, l.Steps, want)
		}
	}
	// A per-node governor is the only thing moving its node; the power cap
	// moves one node per throttle or release.
	for i, g := range govs {
		if got := nodes[i].Transitions() - base[i]; got != g.Moves {
			t.Errorf("node %d: %d transitions, governor counted %d moves", i, got, g.Moves)
		}
	}
	if pc != nil {
		transitions := 0
		for i, n := range nodes {
			transitions += n.Transitions() - base[i]
		}
		if got := pc.Throttles + pc.Releases; got != transitions {
			t.Errorf("%d transitions, power cap counted %d moves", transitions, got)
		}
	}
}
