package server

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/sched"
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
