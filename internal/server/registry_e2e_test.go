package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/node"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// TestRegisteredStrategyServedOverHTTP is the acceptance check for the
// registry refactor: a strategy registered in one place — this test file,
// no core or server source touched — is immediately decodable from a dvsd
// JSON spec, runnable through /simulate, and enumerated in the service's
// unknown-kind rejection.
func TestRegisteredStrategyServedOverHTTP(t *testing.T) {
	core.RegisterStrategy(core.Registration{
		Kind:   core.StrategyKind(200),
		Name:   "toy-floor",
		String: func(core.Strategy) string { return "toy-floor" },
		Plan: func(s core.Strategy) (core.StrategyPlan, error) {
			return core.PlanFunc("toy-floor", func(k *sim.Kernel, nodes []*node.Node, w *mpisim.World) (func(*core.Result) error, error) {
				// Pin every node at the bottom operating point.
				return nil, sched.SetAll(nodes, nodes[0].Table().Frequencies()[0])
			}), nil
		},
		Decode: func(a core.StrategyArgs) (core.Strategy, error) {
			if a.FreqMHz != 0 {
				return core.Strategy{}, spec.Errorf("freq_mhz", "toy-floor takes no parameters")
			}
			return core.Strategy{Kind: core.StrategyKind(200)}, nil
		},
		Example: func() core.Strategy { return core.Strategy{Kind: core.StrategyKind(200)} },
	})

	s := testServer(t, Options{})
	rec := post(s, "/simulate", `{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"toy-floor"}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status=%d body=%s", rec.Code, rec.Body.String())
	}
	var resp sweep.SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.Strategy != "toy-floor" {
		t.Fatalf("Result.Strategy = %q, want toy-floor", resp.Result.Strategy)
	}

	// Its decoder's rejections surface as field-level 400s like any
	// built-in strategy's.
	rec = post(s, "/simulate", `{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"toy-floor","freq_mhz":600}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status=%d, want 400", rec.Code)
	}
	if ae := errEnvelope(t, rec); ae.Field != "strategy.freq_mhz" || ae.Code != sweep.CodeInvalidStrategy {
		t.Fatalf("rejection %+v, want invalid_strategy at strategy.freq_mhz", ae)
	}

	// And the unknown-kind rejection now advertises it.
	rec = post(s, "/simulate", `{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"warp"}}`)
	if ae := errEnvelope(t, rec); !strings.Contains(ae.Message, "toy-floor") {
		t.Fatalf("unknown-kind rejection %q does not enumerate toy-floor", ae.Message)
	}
}
