package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sweep"
)

// Fuzz seeds: the README quickstart bodies, the CI smoke bodies, and one
// of each rejection family, so the fuzzer starts from every branch of
// the decode surface.
var fuzzSeeds = []string{
	// README /simulate example
	`{"workload":{"code":"FT","class":"W","ranks":8},"strategy":{"kind":"external","freq_mhz":600}}`,
	// README /sweep example
	`{"workloads":[{"code":"FT","class":"W","ranks":8}],
	  "strategies":[{"kind":"nodvs"},{"kind":"external","freq_mhz":600},{"kind":"daemon","preset":"v1.2.1"}],
	  "timeout_ms":60000}`,
	// CI dvsd-smoke bodies
	`{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"external","freq_mhz":600}}`,
	`{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"ondemand"}}`,
	`{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"powercap","budget_watts":200}}`,
	// the full parameter surface
	`{"workload":{"code":"CG","class":"S","ranks":8,"variant":"internal","high_mhz":1400,"low_mhz":600},
	  "strategy":{"kind":"external-per-node","per_node":{"0":600,"1":800}},
	  "config":{"spin_wait":true,"wait_busy_frac":0.5,"net_latency_us":50,"net_loss_rate":0.01,"net_seed":7}}`,
	// rejection families
	`{"workload":{"code":"ZZ"},"strategy":{"kind":"nodvs"}}`,
	`{"workload":{"code":"FT"},"strategy":{"kind":"warp"}}`,
	`{"workload":{"code":"FT"},"strategy":{"kind":"powercap","budget_watts":-3}}`,
	`{"jobs":[{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"external","freq_mhz":700}}]}`,
	`{"workloads":[{"code":"FT"}],"strategies":[{"kind":"nodvs"}],"config":{"wait_busy_frac":2}}`,
	`{}`, `null`, `[]`, `{"`,
}

// FuzzDecodeSpec drives arbitrary bytes through both wire decoders — the
// /simulate body and the /sweep body — asserting the decode surface never
// panics and that every rejection it produces is the service's typed
// error carrying a field path (the registry rejections must survive the
// translation into sweep.APIError with their paths intact).
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkErr := func(err error) {
			if err == nil {
				return
			}
			ae, ok := err.(*sweep.APIError)
			if !ok {
				t.Fatalf("decode error %T is not the typed sweep.APIError: %v", err, err)
			}
			if ae.Field == "" {
				t.Fatalf("decode rejection carries no field path: %v", ae)
			}
			if ae.Code == "" {
				t.Fatalf("decode rejection carries no code: %v", ae)
			}
		}

		var sim SimulateRequest
		if dec := json.NewDecoder(bytes.NewReader(data)); dec.Decode(&sim) == nil {
			_, err := sim.JobSpec.build()
			checkErr(err)
		}
		var swr SweepRequest
		if dec := json.NewDecoder(bytes.NewReader(data)); dec.Decode(&swr) == nil {
			_, err := swr.Plan(64)
			checkErr(err)
		}
	})
}
