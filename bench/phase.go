package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// options configures one workload run.
type options struct {
	seed    int64
	seconds float64
	// trace selects the phases: 0 runs the untraced phase for the whole
	// time and reports end-to-end metrics; 1 splits the time between an
	// untraced and a traced phase and reports per-layer metrics; -1 runs
	// the untraced phase for the whole time, then the traced phase, and
	// reports both.
	trace int
	// minOps is the fewest operations the untraced phase measures, past
	// its deadline if need be.
	minOps int
	// setups is how many times set-up runs; setup_s is their median.
	setups  int
	scratch string
	probe   *hostProbe
}

// overrun bounds how long a phase may run past its time to reach minOps.
const overrun = 60 * time.Second

// maxTracedCells caps the cells of a traced phase; at about four spans a
// cell, the kept traces stay in the tens of megabytes.
const maxTracedCells = 10000

// phase is one closed-loop measurement: what the clients did, and what
// the bench observed from outside the program while they did it.
type phase struct {
	tracer    *obs.Tracer // the bench's own tracer; nil when untraced
	deadline  time.Time
	hardStop  time.Time
	minOps    int
	maxRounds int64 // a fixed number of rounds instead of a deadline
	rounds    atomic.Int64

	mu      sync.Mutex
	lat     []float64 // ms per operation
	cells   int       // cells attempted
	failed  int       // cells failed, shed or different from the reference
	reasons []string
	samples map[string][]float64 // client-side layer timings
	shed    int                  // requests refused with 429
	bodies  [][]byte             // traced sweep bodies, planned again after the phase

	elapsed    time.Duration
	allocKB    float64
	gcFrac     float64
	heapPeakMB float64
}

func newPhase(tr *obs.Tracer) *phase {
	return &phase{tracer: tr, samples: map[string][]float64{}}
}

// next reports whether a client should start another round.
func (p *phase) next() bool {
	now := time.Now()
	if !p.hardStop.IsZero() && now.After(p.hardStop) {
		return false
	}
	if p.maxRounds > 0 {
		return p.rounds.Add(1) <= p.maxRounds
	}
	if now.Before(p.deadline) {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.lat) < p.minOps
}

// op records one operation's latency and the cells it attempted.
func (p *phase) op(lat time.Duration, cells int) {
	p.mu.Lock()
	p.lat = append(p.lat, ms(lat))
	p.cells += cells
	p.mu.Unlock()
}

func (p *phase) fail(cells int, why string) {
	p.mu.Lock()
	p.failed += cells
	if len(p.reasons) < 3 {
		p.reasons = append(p.reasons, why)
	}
	p.mu.Unlock()
}

func (p *phase) sample(name string, v float64) {
	p.mu.Lock()
	p.samples[name] = append(p.samples[name], v)
	p.mu.Unlock()
}

func (p *phase) addShed() {
	p.mu.Lock()
	p.shed++
	p.mu.Unlock()
}

func (p *phase) keepBody(b []byte) {
	p.mu.Lock()
	p.bodies = append(p.bodies, b)
	p.mu.Unlock()
}

func (p *phase) cellsPerS() float64 {
	return ratio(float64(p.cells-p.failed), p.elapsed.Seconds())
}

// run drives clients closed-loop goroutines until next says stop, and
// measures the process while they run.
func (p *phase) run(e env, clients int, seconds float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	proc := startProc()
	start := time.Now()
	p.deadline = start.Add(time.Duration(seconds * float64(time.Second)))
	p.hardStop = p.deadline.Add(overrun)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p.next() {
				e.round(p)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.gcFrac, p.heapPeakMB = proc.finish()
	runtime.ReadMemStats(&after)
	p.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
}

// procSampler watches the Go runtime during a phase: the share of CPU
// time the GC took, and the peak of live heap objects.
type procSampler struct {
	stop, done chan struct{}
	gc0, all0  float64
	peak       uint64
}

func startProc() *procSampler {
	s := &procSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.gc0, s.all0 = cpuSeconds()
	go func() {
		defer close(s.done)
		heap := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			rtmetrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *procSampler) finish() (gcFrac, heapPeakMB float64) {
	close(s.stop)
	<-s.done
	gc, all := cpuSeconds()
	return ratio(gc-s.gc0, all-s.all0), float64(s.peak) / (1 << 20)
}

func cpuSeconds() (gc, all float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// result is one workload run.
type result struct {
	workload   string
	e2e        map[string]float64 // end-to-end metrics at the reference host speed
	raw        map[string]float64 // the same, at the speed the host ran
	speed      float64            // host speed over reference, around the untraced phase
	failedFrac float64
	ops        int
	layer      map[string]float64 // per-layer metrics, nil when untraced
	spans      *spanSet
	tracedOps  int
	attempted  int
	failed     int
	problems   []string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// runWorkload sets w up o.setups times, keeps the last environment, and
// runs the phases o.trace selects on it.
func runWorkload(w *workload, o options) (*result, error) {
	var e env
	var info setupInfo
	var setupS, serialCPS, serialAllocs, serialKB []float64
	for i := 0; i < o.setups; i++ {
		start := time.Now()
		next, inf, err := w.setup(o)
		if err != nil {
			if e != nil {
				e.close()
			}
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		serialCPS = append(serialCPS, inf.serial.cellsPerS)
		serialAllocs = append(serialAllocs, inf.serial.allocsPerCell)
		serialKB = append(serialKB, inf.serial.kbPerCell)
		if e != nil {
			e.close()
		}
		e, info = next, inf
	}
	defer e.close()
	info.serial = serialPass{median(serialCPS), median(serialAllocs), median(serialKB)}

	// With -trace 1 the untraced phase only gives the per-layer metrics
	// their untraced baseline, so it needs no minimum for a p90.
	res := &result{workload: w.name}
	un := newPhase(nil)
	untracedS := o.seconds
	if o.trace == 1 {
		untracedS /= 2
	} else {
		un.minOps = o.minOps
	}
	before := o.probe.speed()
	un.run(e, w.clients, untracedS)
	res.speed = (before + o.probe.speed()) / 2
	res.attempted, res.failed = un.cells, un.failed
	res.ops = len(un.lat)
	res.failedFrac = ratio(float64(un.failed), float64(un.cells))
	res.problems = append(res.problems, un.reasons...)
	var tooFew string
	res.raw, tooFew = endToEnd(un, median(setupS))
	res.e2e = atReferenceSpeed(res.raw, res.speed)
	if tooFew != "" && o.trace != 1 {
		res.problems = append(res.problems, tooFew)
	}
	if o.trace == 0 {
		return res, nil
	}

	// The traced phase runs a fixed number of rounds: o.seconds/2 at the
	// untraced rate, but no more than maxTracedCells cells, which bounds
	// the memory the kept traces take. Every tracer's ring can hold all
	// its traces: a tracer records at most one trace per cell attempt, and
	// a cell makes at most three attempts.
	rounds := int64(math.Round(float64(un.cells) / float64(w.cellsPerRound) / un.elapsed.Seconds() * o.seconds / 2))
	rounds = min(rounds, int64(maxTracedCells/w.cellsPerRound))
	if rounds < 1 {
		rounds = 1
	}
	ring := 3*int(rounds)*w.cellsPerRound + 64
	tracers, err := e.traced(ring)
	if err != nil {
		return nil, fmt.Errorf("%s: start traced servers: %w", w.name, err)
	}
	tr := newPhase(obs.New("bench", ring))
	tr.maxRounds = rounds
	start := e.counters()
	tr.run(e, w.clients, o.seconds)
	end := e.counters()
	if err := timePlans(tr); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	full := 0
	var snaps [][]obs.TraceJSON
	for _, t := range append(tracers, tr.tracer) {
		snap := t.Snapshot(0)
		if len(snap) >= ring {
			full++ // a full ring may have evicted traces
		}
		snaps = append(snaps, snap)
	}
	res.spans = joinSpans(snaps...)
	res.tracedOps = len(tr.lat)
	res.attempted += tr.cells
	res.failed += tr.failed
	res.problems = append(res.problems, tr.reasons...)
	res.layer = perLayer(info, un, tr, res.spans, start, end, full, res.speed)
	if d := res.layer["obs.spans_dropped"]; d > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%g spans dropped or traces evicted", d))
	}
	return res, nil
}

// timePlans times server.SweepRequest.Plan, the expansion dvsgw runs on
// every /sweep, on the bodies the traced phase sent; doing it after the
// phase keeps the extra work out of the measured loop.
func timePlans(p *phase) error {
	for _, b := range p.bodies {
		var req server.SweepRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return fmt.Errorf("decode sweep body: %w", err)
		}
		start := time.Now()
		if _, err := req.Plan(maxJobs); err != nil {
			return fmt.Errorf("plan sweep body: %w", err)
		}
		p.sample("sweep.plan_ms", ms(time.Since(start)))
	}
	return nil
}

// endToEnd computes the end-to-end metrics of an untraced phase. A
// percentile with fewer than minBeyond samples above it is still
// computed, and tooFew says so.
func endToEnd(p *phase, setupS float64) (m map[string]float64, tooFew string) {
	p50, ok50 := percentile(p.lat, 0.5)
	p90, ok90 := percentile(p.lat, 0.9)
	if !ok50 || !ok90 {
		tooFew = fmt.Sprintf("%d operations are too few for a p90 with %d samples above it", len(p.lat), minBeyond)
	}
	completed := float64(p.cells - p.failed)
	return map[string]float64{
		"cells_per_s":       p.cellsPerS(),
		"latency_p50_ms":    p50,
		"latency_p90_ms":    p90,
		"alloc_kb_per_cell": ratio(p.allocKB, completed),
		"setup_s":           setupS,
	}, tooFew
}

// atReferenceSpeed rescales a run's end-to-end timings from the host
// speed they were measured at to the reference speed: a rate divides by
// the speed, a duration multiplies by it.
func atReferenceSpeed(raw map[string]float64, speed float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range raw {
		m[k] = v
	}
	m["cells_per_s"] /= speed
	m["latency_p50_ms"] *= speed
	m["latency_p90_ms"] *= speed
	m["setup_s"] *= speed
	return m
}

// perLayer computes the per-layer metrics from the traced phase's spans,
// the bench's own timings, the layers' counters, and the set-up's serial
// reference pass. They are as measured, not rescaled; speed, the host
// speed the run saw, is reported beside them. Metrics of a layer the
// workload does not reach are 0.
func perLayer(info setupInfo, un, tr *phase, s *spanSet, before, after layerCounters, fullRings int, speed float64) map[string]float64 {
	m := map[string]float64{}

	// core: the phases of core.Run, per simulated cell.
	var cellMS, attach, collect []float64
	var runMS, phasesMS, virtualS, msgs float64
	for _, root := range s.roots {
		var a, r, c float64
		sims := 0
		walk(root, func(sp *span) {
			switch sp.Name {
			case "strategy.attach":
				a += sp.DurationMS
				attach = append(attach, sp.DurationMS)
			case "sim.run":
				r += sp.DurationMS
				sims++
				if d, err := time.ParseDuration(sp.Attrs["virtual_elapsed"]); err == nil {
					virtualS += d.Seconds()
				}
				msgs += float64(info.msgs[sp.Attrs["workload"]])
			case "collect":
				c += sp.DurationMS
				collect = append(collect, sp.DurationMS)
			}
		})
		if sims > 0 {
			cellMS = append(cellMS, a+r+c)
		}
		runMS += r
		phasesMS += a + r + c
	}
	m["core.cell_ms"] = median(cellMS)
	m["core.attach_ms"] = mean(attach)
	m["core.collect_ms"] = mean(collect)
	m["core.sim_run_share"] = ratio(runMS, phasesMS)
	m["core.ns_per_msg"] = ratio(runMS*1e6, msgs)
	m["core.virtual_s_per_wall_s"] = ratio(virtualS, runMS/1e3)
	m["core.serial_cells_per_s"] = info.serial.cellsPerS
	m["core.allocs_per_cell"] = info.serial.allocsPerCell
	m["core.alloc_kb_per_cell"] = info.serial.kbPerCell

	// runner: the memo cache, and the pool against the serial baseline.
	m["runner.parallel_efficiency"] = ratio(un.cellsPerS(), workers*info.serial.cellsPerS)
	runs := float64(after.runner.Runs - before.runner.Runs)
	hits := float64(after.runner.Hits - before.runner.Hits)
	m["runner.hit_ratio"] = ratio(hits, hits+runs)
	m["runner.evictions"] = float64(after.runner.Evictions - before.runner.Evictions)
	waits := durations(s.named("cache.wait"))
	m["runner.coalesced"] = float64(len(waits))
	m["runner.cache_wait_ms"] = mean(waits)

	// sweep: plan expansion, the NDJSON stream.
	m["sweep.plan_ms"] = median(tr.samples["sweep.plan_ms"])
	m["sweep.decode_us_per_record"] = median(tr.samples["sweep.decode_us_per_record"])
	m["sweep.first_record_ms"] = median(tr.samples["sweep.first_record_ms"])

	// server: dvsd's /simulate handler.
	var hit, miss, depth, wire []float64
	for _, sp := range s.named("dvsd.simulate") {
		switch sp.Attrs["cached"] {
		case "true":
			hit = append(hit, sp.DurationMS)
		case "false":
			miss = append(miss, sp.DurationMS)
		}
		if v, err := strconv.ParseFloat(sp.Attrs["queue_depth"], 64); err == nil {
			depth = append(depth, v)
		}
		if p := sp.parent; p != nil && p.Name == "bench.op" {
			wire = append(wire, p.DurationMS-sp.DurationMS)
		}
	}
	m["server.simulate_hit_ms"] = median(hit)
	m["server.simulate_miss_ms"] = median(miss)
	m["server.wire_ms"] = median(wire)
	m["server.queue_depth_mean"] = mean(depth)
	m["server.shed"] = float64(tr.shed)

	// fleet: the gateway's per-cell ladder.
	var routeWire []float64
	for _, sp := range s.named("route") {
		if c := sp.child("dvsd.simulate"); c != nil {
			routeWire = append(routeWire, sp.DurationMS-c.DurationMS)
		}
	}
	gwCells := s.named("gw.cell")
	var gwSelf []float64
	for _, sp := range gwCells {
		gwSelf = append(gwSelf, sp.selfMS)
	}
	m["fleet.cell_ms"] = median(durations(gwCells))
	m["fleet.queue_ms"] = median(durations(s.named("queue")))
	m["fleet.gateway_self_ms"] = median(gwSelf)
	m["fleet.route_wire_ms"] = median(routeWire)
	var reqs, maxReqs float64
	for b, v := range after.backendReqs {
		d := v - before.backendReqs[b]
		reqs += d
		maxReqs = math.Max(maxReqs, d)
	}
	m["fleet.backend_share_max"] = ratio(maxReqs, reqs)
	m["fleet.retried"] = float64(after.fleet.Retried - before.fleet.Retried)
	m["fleet.hedged"] = float64(after.fleet.Hedged - before.fleet.Hedged)
	m["fleet.local"] = float64(after.fleet.Local - before.fleet.Local)

	// proc: the Go runtime during the untraced phase.
	m["proc.gc_cpu_frac"] = un.gcFrac
	m["proc.heap_peak_mb"] = un.heapPeakMB
	m["proc.host_speed"] = speed

	// obs: what tracing costs, and whether the rings kept everything.
	m["obs.overhead_frac"] = 1 - ratio(tr.cellsPerS(), un.cellsPerS())
	m["obs.spans_per_cell"] = ratio(float64(len(s.spans)), float64(tr.cells))
	m["obs.spans_dropped"] = float64(s.dropped + fullRings)
	return m
}

func walk(sp *span, f func(*span)) {
	f(sp)
	for _, c := range sp.children {
		walk(c, f)
	}
}

func durations(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, sp := range spans {
		out[i] = sp.DurationMS
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
