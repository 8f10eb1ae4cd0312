package core_test

import (
	"runtime"
	"runtime/debug"
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
	"nodvs":             199,
	"external":          201,
	"external-per-node": 203,
	"daemon":            243,
	"predictive":        251,
	"ondemand":          243,
	"powercap":          210,
}

// strategyAllocPinsGo is the toolchain the pins were recorded with;
// other toolchains are held only to runAllocBudget.
const strategyAllocPinsGo = "go1.24"

// allocsPerRun is testing.AllocsPerRun with the collector paused while
// it measures. A GC cycle during the measured runs empties fmt's printer
// pool, so the run's next Sprintf (workload and strategy labels)
// allocates a fresh pool-local array and printer, and it wakes runtime
// map cleanups that allocate on their own goroutine; all of them land
// in the process-wide count the pins are held to. AllocsPerRun's warm-up
// call refills the pool before counting starts.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

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
		allocs := allocsPerRun(3, func() {
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
