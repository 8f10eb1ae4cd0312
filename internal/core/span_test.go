package core_test

import (
	"context"
	"maps"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/sched"
)

// simRunAttrs runs w under strat inside a traced root span and returns
// the result and its sim.run span's attributes.
func simRunAttrs(t *testing.T, w npb.Workload, strat core.Strategy) (core.Result, map[string]string) {
	t.Helper()
	tr := obs.New("core", 1)
	ctx, root := obs.Start(obs.WithTracer(context.Background(), tr), "cell")
	res, err := core.RunContext(ctx, w, strat, core.DefaultConfig())
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	for _, tj := range tr.Snapshot(0) {
		for _, sp := range tj.Spans {
			if sp.Name == "sim.run" {
				return res, sp.Attrs
			}
		}
	}
	t.Fatal("no sim.run span recorded")
	return res, nil
}

// TestSimRunSpanCarriesKernelCounters reads the simulator's counters off
// a traced class-S run's sim.run span: the kernel's events, handoffs and
// absorbed wakes, and the network's messages, which must match the
// result's own count. The counters are deterministic, so a second run
// carries the same attributes.
func TestSimRunSpanCarriesKernelCounters(t *testing.T) {
	w, err := npb.CG(npb.ClassS, 8)
	if err != nil {
		t.Fatal(err)
	}
	strat := core.Daemon(sched.CPUSpeedV121())
	res, attrs := simRunAttrs(t, w, strat)
	count := func(name string) int {
		n, err := strconv.Atoi(attrs[name])
		if err != nil {
			t.Fatalf("sim.run attribute %s = %q: %v", name, attrs[name], err)
		}
		return n
	}
	events, handoffs, absorbed, messages := count("events"), count("handoffs"), count("absorbed"), count("messages")
	if messages != res.Net.Messages || messages == 0 {
		t.Fatalf("sim.run messages = %d, result counts %d", messages, res.Net.Messages)
	}
	if handoffs == 0 || absorbed == 0 || handoffs+absorbed > events {
		t.Fatalf("events %d, handoffs %d, absorbed %d: every handoff and absorbed wake is a dispatched event",
			events, handoffs, absorbed)
	}
	if _, again := simRunAttrs(t, w, strat); !maps.Equal(again, attrs) {
		t.Fatalf("second run's attributes %v, first %v", again, attrs)
	}
	t.Logf("CG.S.8 daemon: %d events, %d handoffs, %d absorbed, %d messages", events, handoffs, absorbed, messages)
}
