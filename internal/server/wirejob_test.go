package server

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// TestJobSpecForRoundTrip pins the reverse wire mapping's contract: for
// every expressible job, the produced spec rebuilds to the same content
// key — so a remote backend computes exactly the cell the local engine
// would.
func TestJobSpecForRoundTrip(t *testing.T) {
	cfg := core.DefaultConfig()
	ft := func(t *testing.T) npb.Workload {
		w, err := npb.FT(npb.ClassS, 2)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	ftInternal, err := npb.FTInternal(npb.ClassS, 2, 1400, 600)
	if err != nil {
		t.Fatal(err)
	}
	netCfg := cfg
	netCfg.Net.Latency = 50 * time.Microsecond
	netCfg.Net.LossRate = 0.01
	netCfg.Net.RetransmitTimeout = 200 * time.Millisecond
	netCfg.Net.Seed = 7
	spinCfg := cfg
	spinCfg.MPI.SpinWait = true
	transCfg := cfg
	transCfg.Node.Transition.Latency = time.Millisecond

	cases := []struct {
		name string
		job  func(t *testing.T) runner.Job
	}{
		{"nodvs", func(t *testing.T) runner.Job {
			return runner.Job{Workload: ft(t), Strategy: core.NoDVS(), Config: cfg}
		}},
		{"external", func(t *testing.T) runner.Job {
			return runner.Job{Workload: ft(t), Strategy: core.External(600), Config: cfg}
		}},
		{"external-per-node", func(t *testing.T) runner.Job {
			return runner.Job{Workload: ft(t),
				Strategy: core.ExternalPerNode(map[int]dvs.MHz{0: 600, 1: 800}), Config: cfg}
		}},
		{"daemon v1.2.1", func(t *testing.T) runner.Job {
			return runner.Job{Workload: ft(t), Strategy: core.Daemon(sched.CPUSpeedV121()), Config: cfg}
		}},
		{"daemon v1.1", func(t *testing.T) runner.Job {
			return runner.Job{Workload: ft(t), Strategy: core.Daemon(sched.CPUSpeedV11()), Config: cfg}
		}},
		{"ondemand", func(t *testing.T) runner.Job {
			return runner.Job{Workload: ft(t), Strategy: core.OnDemand(sched.DefaultOnDemand()), Config: cfg}
		}},
		{"predictive", func(t *testing.T) runner.Job {
			return runner.Job{Workload: ft(t), Strategy: core.Predictive(sched.DefaultPredictive()), Config: cfg}
		}},
		{"powercap", func(t *testing.T) runner.Job {
			return runner.Job{Workload: ft(t), Strategy: core.PowerCap(sched.DefaultPowerCap(200)), Config: cfg}
		}},
		{"internal variant", func(t *testing.T) runner.Job {
			return runner.Job{Workload: ftInternal, Strategy: core.NoDVS(), Config: cfg}
		}},
		{"net overrides", func(t *testing.T) runner.Job {
			return runner.Job{Workload: ft(t), Strategy: core.External(800), Config: netCfg}
		}},
		{"spin-wait", func(t *testing.T) runner.Job {
			return runner.Job{Workload: ft(t), Strategy: core.NoDVS(), Config: spinCfg}
		}},
		{"transition latency", func(t *testing.T) runner.Job {
			return runner.Job{Workload: ftInternal, Strategy: core.NoDVS(), Config: transCfg}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := tc.job(t)
			spec, ok := JobSpecFor(j)
			if !ok {
				t.Fatal("job reported inexpressible")
			}
			rebuilt, err := spec.build()
			if err != nil {
				t.Fatalf("spec does not rebuild: %v", err)
			}
			want, _ := j.Key()
			got, gotOK := rebuilt.Key()
			if !gotOK || got != want {
				t.Fatalf("rebuilt key %q (ok=%v), want %q", got, gotOK, want)
			}
		})
	}
}

// TestJobSpecForInexpressible pins what must stay local: closures the
// wire form cannot carry.
func TestJobSpecForInexpressible(t *testing.T) {
	cfg := core.DefaultConfig()
	ftw, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	cgPolicy, err := npb.CGWithPolicy(npb.ClassS, 2, npb.CGCommSlow, 1400, 600)
	if err != nil {
		t.Fatal(err)
	}
	customTable := cfg
	customTable.Node.Table = dvs.Opteron246()
	customTable.Node.Power = dvs.DefaultPowerModel(customTable.Node.Table)
	tracer := cfg
	tracer.Tracer = trace.New(2)
	customDaemon := sched.CPUSpeedV121()
	customDaemon.MaxThreshold = 0.93 // hand-tuned: matches no wire preset

	cases := []struct {
		name string
		job  runner.Job
	}{
		{"CG policy variant", runner.Job{Workload: cgPolicy, Strategy: core.NoDVS(), Config: cfg}},
		{"custom DVS table", runner.Job{Workload: ftw, Strategy: core.External(800), Config: customTable}},
		{"tracer attached", runner.Job{Workload: ftw, Strategy: core.NoDVS(), Config: tracer}},
		{"hand-tuned daemon", runner.Job{Workload: ftw, Strategy: core.Daemon(customDaemon), Config: cfg}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if spec, ok := JobSpecFor(tc.job); ok {
				t.Fatalf("job reported expressible as %+v; it must stay local", spec)
			}
		})
	}
}

// TestRegistryRoundTrip walks the whole strategy table: each row's
// example encodes to a wire form that decodes back to the same content
// key, and JobSpecFor reports the job expressible. A new row that
// forgets its Encode fails here instead of silently staying local.
func TestRegistryRoundTrip(t *testing.T) {
	cfg := core.DefaultConfig()
	w, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range core.Strategies() {
		t.Run(r.Name, func(t *testing.T) {
			j := runner.Job{Workload: w, Strategy: r.Example(), Config: cfg}
			want, ok := j.Key()
			if !ok {
				t.Fatal("example job has no content key")
			}
			specs := core.EncodeStrategy(j.Strategy)
			if len(specs) == 0 {
				t.Fatal("no wire form")
			}
			matched := false
			for _, ss := range specs {
				if ss.Kind != r.Name {
					t.Fatalf("wire form %+v names kind %q", ss, ss.Kind)
				}
				s, err := core.DecodeStrategy(ss, cfg.Node.Table, w.Ranks)
				if err != nil {
					t.Fatalf("wire form %+v does not decode: %v", ss, err)
				}
				got, _ := runner.Job{Workload: w, Strategy: s, Config: cfg}.Key()
				matched = matched || got == want
			}
			if !matched {
				t.Fatalf("no wire form in %+v decodes back to key %q", specs, want)
			}
			if _, ok := JobSpecFor(j); !ok {
				t.Fatal("JobSpecFor reports the example inexpressible")
			}
		})
	}
}

// TestHostileBoundsAtDecode: a billion-rank world and a nanosecond
// governor period are rejected when the spec compiles, before any
// simulation is built, in both the /simulate and the /sweep grid forms.
func TestHostileBoundsAtDecode(t *testing.T) {
	cases := []struct {
		body, code, field, gridField string
	}{
		{`{"workload":{"code":"EP","class":"S","ranks":1073741824},"strategy":{"kind":"nodvs"}}`,
			sweep.CodeInvalidWorkload, "workload.ranks", "workloads[0].ranks"},
		{`{"workload":{"code":"EP","class":"S"},"strategy":{"kind":"daemon","interval_ms":0.000001}}`,
			sweep.CodeInvalidStrategy, "strategy.interval_ms", "strategies[0].interval_ms"},
		{`{"workload":{"code":"EP","class":"S"},"strategy":{"kind":"powercap","budget_watts":200,"interval_ms":0.5}}`,
			sweep.CodeInvalidStrategy, "strategy.interval_ms", "strategies[0].interval_ms"},
	}
	for _, tc := range cases {
		var js JobSpec
		if err := json.Unmarshal([]byte(tc.body), &js); err != nil {
			t.Fatal(err)
		}
		_, err := js.Cell()
		ae, ok := err.(*sweep.APIError)
		if !ok || ae.Code != tc.code || ae.Field != tc.field {
			t.Fatalf("%s: Cell() error %v, want %s at %s", tc.body, err, tc.code, tc.field)
		}
		grid := SweepRequest{Workloads: []WorkloadSpec{js.Workload}, Strategies: []StrategySpec{js.Strategy}}
		_, err = grid.Plan(4)
		ae, ok = err.(*sweep.APIError)
		if !ok || ae.Code != tc.code || ae.Field != tc.gridField {
			t.Fatalf("%s: grid Plan error %v, want %s at %s", tc.body, err, tc.code, tc.gridField)
		}
	}
}
