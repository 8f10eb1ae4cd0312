package core_test

import (
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
