package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sweep"
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

// infPlacer answers every cell with a result whose average power is
// +Inf, a figure JSON has no form for.
type infPlacer struct{}

func (infPlacer) Place(context.Context, int, sweep.Cell) sweep.Outcome {
	return sweep.Outcome{Wire: &sweep.ResultJSON{Name: "FT.S.2", AvgPowerW: math.Inf(1)}}
}

// TestUnencodableResultFailsItsCell: a result the wire cannot carry is a
// typed sim_failed failure on both endpoints — a 500 with the error
// envelope from /simulate, an error record counted in the trailer from
// /sweep — never a 200 with an empty body or a silently missing record.
func TestUnencodableResultFailsItsCell(t *testing.T) {
	f := NewFrontend(Options{}, Daemon{Name: "stub", Placer: infPlacer{}})
	do := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}

	rec := do("/simulate", simFTS2)
	var env struct{ Error *sweep.APIError }
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &env) != nil ||
		env.Error == nil || env.Error.Code != sweep.CodeSimFailed || !strings.Contains(env.Error.Message, "avg_power_w") {
		t.Fatalf("/simulate: status %d, body %q; want 500 sim_failed naming avg_power_w", rec.Code, rec.Body)
	}

	rec = do("/sweep", `{"jobs":[`+simFTS2+`]}`)
	recs, trailer, err := sweep.DecodeStream(rec.Body)
	if err != nil {
		t.Fatalf("/sweep: %v", err)
	}
	if len(recs) != 1 || recs[0].Result != nil || recs[0].Error == nil || recs[0].Error.Code != sweep.CodeSimFailed {
		t.Fatalf("/sweep records %+v; want one sim_failed error record", recs)
	}
	if trailer.Jobs != 1 || trailer.Errors != 1 || trailer.CachedCells != 0 {
		t.Fatalf("/sweep trailer %+v; want jobs 1, errors 1", trailer)
	}
}
