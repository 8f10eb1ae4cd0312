package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/runner"
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
	`{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"predictive"}}`,
	`{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"daemon"}}`,
	`{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"external-per-node","per_node":{"99":600}}}`,
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
	// hostile bounds: a billion-rank world, a nanosecond governor period
	`{"workload":{"code":"EP","class":"S","ranks":1073741824},"strategy":{"kind":"nodvs"}}`,
	`{"workload":{"code":"EP","class":"S"},"strategy":{"kind":"daemon","interval_ms":0.000001}}`,
	`{}`, `null`, `[]`, `{"`,
}

// FuzzDecodeSpec drives arbitrary bytes through both wire decoders — the
// /simulate body and the /sweep body — asserting the decode surface never
// panics, that every rejection it produces is the service's typed error
// carrying a field path (the registry rejections must survive the
// translation into sweep.APIError with their paths intact), and that
// every accepted cell is inside the hostile-input bounds: at most
// npb.MaxRanks ranks and no governor period under core.MinInterval.
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkJob := func(j runner.Job) {
			if j.Workload.Ranks > npb.MaxRanks {
				t.Fatalf("accepted a %d-rank cell; the bound is %d", j.Workload.Ranks, npb.MaxRanks)
			}
			// Only the decoded kind's period is set; the others are zero.
			s := j.Strategy
			for _, p := range []time.Duration{s.Daemon.Interval, s.Predictive.Window,
				s.OnDemand.SamplingRate, s.PowerCap.Interval} {
				if p != 0 && p < core.MinInterval {
					t.Fatalf("accepted a %v governor period; the floor is %v", p, core.MinInterval)
				}
			}
		}
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
			j, err := sim.JobSpec.build()
			checkErr(err)
			if err == nil {
				checkJob(j)
			}
		}
		var swr SweepRequest
		if dec := json.NewDecoder(bytes.NewReader(data)); dec.Decode(&swr) == nil {
			plan, err := swr.Plan(64)
			checkErr(err)
			if err == nil {
				for _, c := range plan.Cells() {
					checkJob(c.Job)
				}
			}
		}
	})
}

// FuzzFrontend posts arbitrary bodies to /simulate and /sweep on a real
// dvsd frontend, asserting the handlers never panic, answer only 200,
// 400, 413 or 429, and give every non-200 the typed error envelope with a
// code. Bodies that would simulate more than a class-S, 8-rank cell, or
// run /simulate under a client deadline (a legitimate 504), are skipped.
func FuzzFrontend(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	const maxJobs = 4
	h := New(Options{Runner: runner.New(1), MaxJobs: maxJobs}).Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, path := range []string{"/simulate", "/sweep"} {
			if !fuzzSmall(path, data, maxJobs) {
				continue
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
			switch rec.Code {
			case http.StatusOK:
				continue
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			default:
				t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
			}
			var env struct{ Error *sweep.APIError }
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code == "" {
				t.Fatalf("%s: status %d body %q is not the typed error envelope (%v)", path, rec.Code, rec.Body, err)
			}
		}
	})
}

// fuzzSmall reports whether the frontend may serve body on path: true
// when it would be rejected before simulating, or would simulate only
// class-S cells of at most 8 ranks without a /simulate deadline.
func fuzzSmall(path string, body []byte, maxJobs int) bool {
	decode := func(v any) bool {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(v) == nil
	}
	var cells []sweep.Cell
	if path == "/simulate" {
		var req SimulateRequest
		if !decode(&req) {
			return true
		}
		c, err := req.JobSpec.Cell()
		if err != nil {
			return true
		}
		if req.TimeoutMS > 0 {
			return false
		}
		cells = []sweep.Cell{c}
	} else {
		var req SweepRequest
		if !decode(&req) {
			return true
		}
		plan, err := req.Plan(maxJobs)
		if err != nil {
			return true
		}
		cells = plan.Cells()
	}
	for _, c := range cells {
		if w := c.Job.Workload; w.Class != npb.ClassS || w.Ranks > 8 {
			return false
		}
	}
	return true
}
