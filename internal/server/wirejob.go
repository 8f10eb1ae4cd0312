// Reverse wire mapping: from a compiled runner.Job back to the JSON spec
// that rebuilds it. The sweep pipeline needs this when an embedder (the
// reproduce CLI, the experiments engine) wants to place locally-authored
// jobs on a remote dvsd: only jobs whose full closure survives the wire
// round trip may leave the process. The workload and strategy tables
// propose the wire forms (npb.SpecFor, core.EncodeStrategy); correctness
// is enforced by construction — a candidate spec is accepted only if
// rebuilding it yields the same content key as the original job — so
// anything the wire form cannot express (custom DVS tables, CG scheduling
// policies, tracers, hand-tuned daemon configs) is reported inexpressible
// and the caller keeps it local.
package server

import (
	"time"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/runner"
)

// JobSpecFor maps a compiled job back to a wire spec, reporting whether
// the job is wire-expressible. The returned spec is verified: building it
// reproduces the job's content key exactly, so a remote backend given the
// spec computes the same cell the local runner would.
func JobSpecFor(j runner.Job) (JobSpec, bool) {
	key, ok := j.Key()
	if !ok {
		return JobSpec{}, false // uncacheable ⇒ closure not value-identified
	}
	ws, ok := npb.SpecFor(j.Workload)
	if !ok {
		return JobSpec{}, false
	}
	cs := configSpecFor(j.Config)
	for _, ss := range core.EncodeStrategy(j.Strategy) {
		spec := JobSpec{Workload: ws, Strategy: ss, Config: cs}
		rebuilt, err := spec.build()
		if err != nil {
			continue
		}
		if rk, rok := rebuilt.Key(); rok && rk == key {
			return spec, true
		}
	}
	return JobSpec{}, false
}

// configSpecFor diffs a config against the calibrated default, emitting
// only the overridden fields; nil means "all defaults". Differences the
// wire form cannot carry (a custom DVS table, power model, MPI tunings)
// are not detected here — the rebuild-and-compare step in JobSpecFor
// catches them as a key mismatch.
func configSpecFor(cfg core.Config) *ConfigSpec {
	def := core.DefaultConfig()
	var cs ConfigSpec
	any := false
	if cfg.MPI.SpinWait != def.MPI.SpinWait {
		v := cfg.MPI.SpinWait
		cs.SpinWait, any = &v, true
	}
	if cfg.Node.WaitBusyFrac != def.Node.WaitBusyFrac {
		v := cfg.Node.WaitBusyFrac
		cs.WaitBusyFrac, any = &v, true
	}
	if cfg.Net.Latency != def.Net.Latency {
		v := float64(cfg.Net.Latency) / float64(time.Microsecond)
		cs.NetLatencyUS, any = &v, true
	}
	if cfg.Net.BandwidthBps != def.Net.BandwidthBps {
		v := cfg.Net.BandwidthBps
		cs.NetBandwidthBps, any = &v, true
	}
	if cfg.Net.LossRate != def.Net.LossRate {
		v := cfg.Net.LossRate
		cs.NetLossRate, any = &v, true
	}
	if cfg.Net.Seed != def.Net.Seed {
		v := cfg.Net.Seed
		cs.NetSeed, any = &v, true
	}
	if cfg.Node.Transition.Latency != def.Node.Transition.Latency {
		v := float64(cfg.Node.Transition.Latency) / float64(time.Microsecond)
		cs.TransitionLatencyUS, any = &v, true
	}
	if !any {
		return nil
	}
	return &cs
}
