package server

import (
	"net/http"
	"testing"
)

// TestSimulateHitAllocBudget pins the cost of dvsd's hottest path, a
// /simulate answered from the memo cache, end to end through the handler.
// Hashing the job for its cache key alone costs about 30 allocations, so
// a path that hashed twice — the frontend building the cell's key and
// the runner re-deriving it — would blow the budget.
func TestSimulateHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	s := testServer(t, Options{})
	if rec := post(s, "/simulate", simFTS2); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: status=%d body=%s", rec.Code, rec.Body.String())
	}
	const budget = 95
	allocs := testing.AllocsPerRun(50, func() {
		if rec := post(s, "/simulate", simFTS2); rec.Code != http.StatusOK {
			t.Fatalf("status=%d", rec.Code)
		}
	})
	if allocs > budget {
		t.Fatalf("cache-hit /simulate costs %.0f allocs, budget %d", allocs, budget)
	}
	t.Logf("cache-hit /simulate: %.0f allocs (budget %d)", allocs, budget)
}
