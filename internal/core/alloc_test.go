package core_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/npb"
)

// runAllocBudget bounds the heap objects one class-S core.Run may
// allocate. The MPI message path recycles its requests and deliveries, so
// a run allocates only its set-up (nodes, network, ranks, procs, result
// slices, freelist warm-up): about 280–800 objects per code, however many
// messages it sends.
const runAllocBudget = 1000

func TestRunAllocsPerCode(t *testing.T) {
	for _, code := range []string{"BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"} {
		e, ok := npb.Lookup(code)
		if !ok {
			t.Fatalf("%s not registered", code)
		}
		w, err := e.Build(npb.ClassS, e.PaperRanks)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := core.Run(w, core.NoDVS(), core.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > runAllocBudget {
			t.Errorf("%s: core.Run allocates %.0f objects, budget %d", code, allocs, runAllocBudget)
		}
	}
}

// strategyAllocPins are each strategy's heap objects for one run of its
// Example configuration on FT.S.8, as recorded with go1.24: a strategy
// that starts allocating more per node or per decision fails here.
var strategyAllocPins = map[string]float64{
	"nodvs":             223,
	"external":          225,
	"external-per-node": 227,
	"daemon":            267,
	"predictive":        275,
	"ondemand":          267,
	"powercap":          234,
}

// strategyAllocPinsGo is the toolchain the pins were recorded with;
// other toolchains are held only to runAllocBudget.
const strategyAllocPinsGo = "go1.24"

func TestRunAllocsPerStrategy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	pinned := strings.HasPrefix(runtime.Version(), strategyAllocPinsGo)
	w, err := npb.FT(npb.ClassS, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range core.Strategies() {
		strat := r.Example()
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := core.Run(w, strat, core.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
		budget := float64(runAllocBudget)
		if pin, ok := strategyAllocPins[r.Name]; !ok {
			t.Errorf("%s: no allocation pin", r.Name)
		} else if pinned {
			budget = pin
		}
		if allocs > budget {
			t.Errorf("%s: core.Run allocates %.0f objects on FT.S.8, budget %.0f", r.Name, allocs, budget)
		}
	}
}
