package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dvsclient"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sweep"
)

// workers is the number of simulations a workload may run at once: the
// benchmark is sized for two cores, and each workload uses both and no
// more.
const workers = 2

// maxJobs is the per-request cell bound dvsd and dvsgw apply by default.
const maxJobs = 4096

// coldCodes are the codes of the class-S cells: the cheapest (EP), two in
// the middle (IS, FT) and an expensive one (MG), so misses differ in cost.
var coldCodes = []string{"EP", "FT", "IS", "MG"}

// poolSize is the number of distinct cells simulate-mix draws its
// repeated requests from; with the fresh cells it does not fit the
// 128-entry runner cache.
const poolSize = 64

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// cellsPerRound is the number of grid cells one loop iteration places.
	cellsPerRound int
	// clients is the number of closed-loop client goroutines.
	clients int
	setup   func(o options) (env, setupInfo, error)
}

var workloads = []*workload{
	{
		name:          "grid-cold",
		why:           "the in-process reproduce path on the Table 2 grid; simulation does the work and no HTTP is involved",
		cellsPerRound: 48,
		clients:       1,
		setup:         setupGridCold,
	},
	{
		name:          "gw-sweep-warm",
		why:           "the Table 2 grid through dvsgw to two dvsd backends with warm caches; only the service layers do work",
		cellsPerRound: 48,
		clients:       1,
		setup:         func(o options) (env, setupInfo, error) { return setupSweep(o, false) },
	},
	{
		name:          "simulate-mix",
		why:           "Zipf repeats plus fresh cells on one dvsd whose cache is smaller than the working set: hits, misses and evictions",
		cellsPerRound: 1,
		clients:       2,
		setup:         setupMix,
	},
	{
		name:          "gw-sweep-cold",
		why:           "fresh class-S grids through dvsgw with a checkpoint journal; every cell misses, so the whole stack works",
		cellsPerRound: 24,
		clients:       1,
		setup:         func(o options) (env, setupInfo, error) { return setupSweep(o, true) },
	},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is a set-up workload: its servers, its inputs and its references.
type env interface {
	// round runs one closed-loop iteration and records it into ph.
	round(ph *phase)
	// traced puts servers with tracers of the given ring size behind the
	// same URLs and returns those tracers.
	traced(ring int) ([]*obs.Tracer, error)
	// counters reads the public counters of the layers below the bench.
	counters() layerCounters
	close()
}

// setupInfo is what set-up learns besides the environment itself.
type setupInfo struct {
	serial serialPass
	// msgs maps a workload name (the sim.run span's "workload" attribute)
	// to the network messages one run of it sends. The count does not
	// depend on the DVS strategy.
	msgs map[string]int
}

// serialPass measures the set-up's reference pass: every distinct cell
// run once, one after another, with a direct core.Run.
type serialPass struct {
	cellsPerS     float64
	allocsPerCell float64
	kbPerCell     float64
}

// layerCounters are cumulative counters read from the layers' public
// interfaces; the per-layer metrics use their change over a phase.
type layerCounters struct {
	runner      runner.Stats
	fleet       fleet.Counters
	backendReqs map[string]float64
}

// reference runs every job once with core.Run, in order, and returns the
// wire form of each result.
func reference(jobs []runner.Job) ([]sweep.ResultJSON, setupInfo, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	want := make([]sweep.ResultJSON, len(jobs))
	for i, j := range jobs {
		res, err := core.Run(j.Workload, j.Strategy, j.Config)
		if err != nil {
			return nil, setupInfo{}, fmt.Errorf("reference run %s/%s: %w", j.Workload.Name(), j.Strategy, err)
		}
		want[i] = sweep.ToResultJSON(res)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(len(jobs))
	info := setupInfo{
		serial: serialPass{
			cellsPerS:     n / elapsed.Seconds(),
			allocsPerCell: float64(after.Mallocs-before.Mallocs) / n,
			kbPerCell:     float64(after.TotalAlloc-before.TotalAlloc) / n / 1024,
		},
		msgs: map[string]int{},
	}
	for _, w := range want {
		info.msgs[w.Name] = w.NetMessages
	}
	return want, info, nil
}

// netSeedBase spaces the net_seeds of different benchmark seeds a billion
// apart, so no two seeds share a cell. With net_loss_rate at 0 the
// net_seed changes a cell's cache key but not its result.
func netSeedBase(seed int64) int64 { return seed * 1_000_000_000 }

// profileStrategies are the wire forms of runner.PlanProfile's settings,
// in its order: every operating point ascending (the top one is NoDVS),
// then the cpuspeed daemon.
func profileStrategies() []server.StrategySpec {
	table := core.DefaultConfig().Node.Table
	top := table.Top().Frequency
	var out []server.StrategySpec
	for _, f := range table.Frequencies() {
		if f == top {
			out = append(out, server.StrategySpec{Kind: "nodvs"})
			continue
		}
		out = append(out, server.StrategySpec{Kind: "external", FreqMHz: float64(f)})
	}
	return append(out, server.StrategySpec{Kind: "daemon"})
}

// gridRequest is the /sweep body for codes × profileStrategies at class,
// with the given net_seed (nil keeps the default configuration).
func gridRequest(codes []string, class string, netSeed *int64) server.SweepRequest {
	req := server.SweepRequest{Strategies: profileStrategies()}
	for _, c := range codes {
		req.Workloads = append(req.Workloads, server.WorkloadSpec{Code: c, Class: class})
	}
	if netSeed != nil {
		req.Config = &server.ConfigSpec{NetSeed: netSeed}
	}
	return req
}

// warmRequest is gw-sweep-warm's body: the Table 2 grid, the same on
// every operation.
func warmRequest(seed int64) server.SweepRequest {
	ns := netSeedBase(seed)
	return gridRequest(experiments.NPBCodes, "C", &ns)
}

// coldRequest is gw-sweep-cold's k-th body: a new net_seed moves every
// cache key of the grid.
func coldRequest(seed, k int64) server.SweepRequest {
	ns := netSeedBase(seed) + k
	return gridRequest(coldCodes, "S", &ns)
}

// mustJSON marshals request structs, which hold only plain fields and
// so always marshal.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func planJobs(p *sweep.Plan) []runner.Job {
	jobs := make([]runner.Job, p.Len())
	for i, c := range p.Cells() {
		jobs[i] = c.Job
	}
	return jobs
}

// ---------------------------------------------------------------- grid-cold

// gridEnv runs the Table 2 grid in-process, as cmd/reproduce does, on a
// fresh runner per grid so every cell simulates.
type gridEnv struct {
	cfg  core.Config
	want []sweep.ResultJSON

	mu    sync.Mutex
	stats runner.Stats // summed over the grids' runners
}

func setupGridCold(o options) (env, setupInfo, error) {
	e := &gridEnv{cfg: core.DefaultConfig()}
	e.cfg.Net.Seed = netSeedBase(o.seed)
	plan, err := e.plan()
	if err != nil {
		return nil, setupInfo{}, err
	}
	var info setupInfo
	if e.want, info, err = reference(planJobs(plan)); err != nil {
		return nil, setupInfo{}, err
	}
	return e, info, nil
}

// plan expands the grid the way experiments.BuildProfiles does.
func (e *gridEnv) plan() (*sweep.Plan, error) {
	daemon := experiments.Default().Daemon
	var cells []sweep.Cell
	for _, code := range experiments.NPBCodes {
		w, err := npb.New(code, npb.ClassC, npb.PaperRanks(code))
		if err != nil {
			return nil, err
		}
		pp, err := runner.PlanProfile(w, e.cfg, daemon)
		if err != nil {
			return nil, err
		}
		for _, j := range pp.Jobs() {
			key, _ := j.Key()
			cells = append(cells, sweep.Cell{Key: key, Job: j})
		}
	}
	return sweep.NewPlan(cells), nil
}

func (e *gridEnv) round(ph *phase) {
	start := time.Now()
	plan, err := e.plan()
	if err != nil {
		ph.op(0, len(e.want))
		ph.fail(len(e.want), err.Error())
		return
	}
	ph.sample("sweep.plan_ms", ms(time.Since(start)))
	r := runner.New(workers)
	outs, _ := sweep.Execute(context.Background(), plan, &timedPlacer{local: sweep.Local{Runner: r}, ph: ph},
		sweep.ExecOptions{Parallel: workers})
	e.mu.Lock()
	e.stats = addStats(e.stats, r.Stats())
	e.mu.Unlock()
	for i, o := range outs {
		if got := o.ResultJSON(); got == nil || *got != e.want[i] {
			ph.fail(1, fmt.Sprintf("cell %d: %s", i, describe(o.Err, got, e.want[i])))
		}
	}
}

// timedPlacer is sweep.Local plus the bench's clock: one operation of
// grid-cold is one cell placement. When the phase is traced, each cell
// gets a bench.op root span, under which core.Run's phase spans hang.
type timedPlacer struct {
	local sweep.Local
	ph    *phase
}

func (p *timedPlacer) Place(ctx context.Context, i int, c sweep.Cell) sweep.Outcome {
	ctx, sp := obs.Start(obs.WithTracer(ctx, p.ph.tracer), "bench.op")
	start := time.Now()
	o := p.local.Place(ctx, i, c)
	lat := time.Since(start)
	sp.End()
	p.ph.op(lat, 1)
	return o
}

func (e *gridEnv) traced(int) ([]*obs.Tracer, error) { return nil, nil }

func (e *gridEnv) counters() layerCounters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return layerCounters{runner: e.stats}
}

func (e *gridEnv) close() {}

// ---------------------------------------------------------- service plumbing

// swapHandler serves whichever handler was set last. The traced phase
// puts traced servers behind the URLs the untraced phase used: the
// gateway's hash ring is keyed by backend URL, so new URLs would re-home
// every cell away from its warm cache.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) set(h http.Handler) { s.h.Store(h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// dvsd is one in-process backend on a loopback listener.
type dvsd struct {
	r  *runner.Runner
	sw *swapHandler
	ts *httptest.Server
}

func startDvsd(r *runner.Runner) *dvsd {
	d := &dvsd{r: r, sw: &swapHandler{}}
	d.sw.set(server.New(server.Options{Runner: r}).Handler())
	d.ts = httptest.NewServer(d.sw)
	return d
}

// retrace replaces the server with one that traces into a new ring; the
// runner, and so the cache, stays.
func (d *dvsd) retrace(name string, ring int) *obs.Tracer {
	tr := obs.New(name, ring)
	d.sw.set(server.New(server.Options{Runner: d.r, Tracer: tr}).Handler())
	return tr
}

// gateway is an in-process dvsgw on a loopback listener.
type gateway struct {
	opts fleet.Options
	g    *fleet.Gateway
	sw   *swapHandler
	ts   *httptest.Server
}

func startGateway(opts fleet.Options) (*gateway, error) {
	g, err := fleet.New(opts)
	if err != nil {
		return nil, err
	}
	g.Start()
	gw := &gateway{opts: opts, g: g, sw: &swapHandler{}}
	gw.sw.set(g.Handler())
	gw.ts = httptest.NewServer(gw.sw)
	return gw, nil
}

func (gw *gateway) retrace(ring int) (*obs.Tracer, error) {
	opts := gw.opts
	opts.Tracer = obs.New("dvsgw", ring)
	g, err := fleet.New(opts)
	if err != nil {
		return nil, err
	}
	g.Start()
	old := gw.g
	gw.g = g
	gw.sw.set(g.Handler())
	stopGateway(old)
	return opts.Tracer, nil
}

func stopGateway(g *fleet.Gateway) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = g.Shutdown(ctx) // no listener of its own: this only stops the health probes
}

// backendRequests reads dvsgw_backend_requests_total per backend from
// the gateway's /metrics.
func (gw *gateway) backendRequests(hc *http.Client) map[string]float64 {
	out := map[string]float64{}
	resp, err := hc.Get(gw.ts.URL + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	const prefix = "dvsgw_backend_requests_total{"
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// newClient returns the bench's HTTP client: at most one connection per
// client goroutine.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}
}

// ------------------------------------------------------------ gw-sweep-*

// sweepEnv posts whole grids to a gateway in front of two backends.
type sweepEnv struct {
	backends []*dvsd
	gw       *gateway
	client   *http.Client
	journal  string
	body     func(k int64) []byte // the /sweep body of the k-th operation
	want     []sweep.ResultJSON
	k        atomic.Int64
}

func setupSweep(o options, cold bool) (env, setupInfo, error) {
	e := &sweepEnv{client: newClient()}
	var refReq server.SweepRequest
	if cold {
		// Every operation is a fresh grid whose results are those of the
		// default configuration.
		refReq = gridRequest(coldCodes, "S", nil)
		e.body = func(k int64) []byte { return mustJSON(coldRequest(o.seed, k)) }
	} else {
		refReq = warmRequest(o.seed)
		body := mustJSON(refReq)
		e.body = func(int64) []byte { return body }
	}
	plan, err := refReq.Plan(maxJobs)
	if err != nil {
		return nil, setupInfo{}, err
	}
	want, info, err := reference(planJobs(plan))
	if err != nil {
		return nil, setupInfo{}, err
	}
	e.want = want

	var peers []string
	for i := 0; i < workers; i++ {
		d := startDvsd(runner.New(1))
		e.backends = append(e.backends, d)
		peers = append(peers, d.ts.URL)
	}
	opts := fleet.Options{Peers: peers, Local: runner.New(1), Fanout: workers}
	if cold {
		if e.journal, err = os.MkdirTemp(o.scratch, "journal-"); err != nil {
			e.close()
			return nil, setupInfo{}, err
		}
		opts.CheckpointDir = e.journal
	}
	if e.gw, err = startGateway(opts); err != nil {
		e.close()
		return nil, setupInfo{}, err
	}
	// One sweep opens the connections and, on gw-sweep-warm, fills the
	// backend caches: from here on every warm cell is a hit.
	ph := newPhase(nil)
	e.round(ph)
	if ph.failed > 0 {
		e.close()
		return nil, setupInfo{}, fmt.Errorf("warm-up sweep: %s", ph.reasons[0])
	}
	return e, info, nil
}

func (e *sweepEnv) round(ph *phase) {
	body := e.body(e.k.Add(1) - 1)
	ctx, sp := obs.Start(obs.WithTracer(context.Background(), ph.tracer), "bench.op")
	start := time.Now()
	raw, first, err := e.post(ctx, body)
	lat := time.Since(start)
	sp.End()
	ph.op(lat, len(e.want))
	if err != nil {
		ph.fail(len(e.want), err.Error())
		return
	}
	ph.sample("sweep.first_record_ms", ms(first))
	start = time.Now()
	recs, trailer, err := sweep.DecodeStream(bytes.NewReader(raw))
	if len(recs) > 0 {
		ph.sample("sweep.decode_us_per_record", float64(time.Since(start).Microseconds())/float64(len(recs)))
	}
	if ph.tracer != nil {
		ph.keepBody(body)
	}
	if bad, why := checkStream(recs, trailer, err, e.want); bad > 0 {
		ph.fail(bad, why)
	}
}

// post sends one sweep and reads the whole NDJSON stream, noting when the
// first record arrived.
func (e *sweepEnv) post(ctx context.Context, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.gw.ts.URL+"/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, 0, fmt.Errorf("sweep: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var buf bytes.Buffer
	var first time.Duration
	chunk := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(chunk)
		if n > 0 {
			if first == 0 && bytes.IndexByte(chunk[:n], '\n') >= 0 {
				first = time.Since(start)
			}
			buf.Write(chunk[:n])
		}
		if err == io.EOF {
			return buf.Bytes(), first, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("sweep: read stream: %w", err)
		}
	}
}

// checkStream counts the cells of a sweep stream that are missing, failed
// or differ from the reference, and describes the first.
func checkStream(recs []sweep.SweepRecord, tr *sweep.SweepTrailer, err error, want []sweep.ResultJSON) (int, string) {
	if err != nil {
		return len(want), err.Error()
	}
	if tr.Jobs != len(want) || len(recs) != len(want) {
		return len(want), fmt.Sprintf("stream has %d records and a trailer for %d jobs, want %d", len(recs), tr.Jobs, len(want))
	}
	seen := make([]bool, len(want))
	bad, why := 0, ""
	for _, r := range recs {
		if r.Index < 0 || r.Index >= len(want) || seen[r.Index] {
			return len(want), fmt.Sprintf("record index %d out of range or repeated", r.Index)
		}
		seen[r.Index] = true
		var rerr error
		if r.Error != nil {
			rerr = r.Error
		}
		if r.Result == nil || *r.Result != want[r.Index] {
			bad++
			if why == "" {
				why = fmt.Sprintf("cell %d: %s", r.Index, describe(rerr, r.Result, want[r.Index]))
			}
		}
	}
	return bad, why
}

func (e *sweepEnv) traced(ring int) ([]*obs.Tracer, error) {
	var trs []*obs.Tracer
	for i, d := range e.backends {
		trs = append(trs, d.retrace(fmt.Sprintf("dvsd-%d", i), ring))
	}
	tr, err := e.gw.retrace(ring)
	if err != nil {
		return nil, err
	}
	return append(trs, tr), nil
}

func (e *sweepEnv) counters() layerCounters {
	var c layerCounters
	for _, d := range e.backends {
		c.runner = addStats(c.runner, d.r.Stats())
	}
	c.fleet = e.gw.g.Counters()
	c.backendReqs = e.gw.backendRequests(e.client)
	return c
}

func (e *sweepEnv) close() {
	if e.gw != nil {
		e.gw.ts.Close()
		stopGateway(e.gw.g)
	}
	for _, d := range e.backends {
		d.ts.Close()
	}
	e.client.CloseIdleConnections()
	if e.journal != "" {
		_ = os.RemoveAll(e.journal) // scratch space; a leftover is harmless
	}
}

// ------------------------------------------------------------ simulate-mix

// mixInputs generates simulate-mix's requests. Request k is a pure
// function of (seed, k), so the sequence does not depend on which client
// sends which request: every fifth request is a fresh cell that no cache
// holds, the others are Zipf(1.1) draws from a pool of poolSize cells.
type mixInputs struct {
	seed  int64
	specs []server.JobSpec // the base cells, in reference order
	pool  [][]byte         // pool bodies, hottest rank first
	base  []int            // base cell of each pool body
	cdf   []float64        // Zipf CDF over pool ranks
}

func newMixInputs(seed int64, specs []server.JobSpec) *mixInputs {
	m := &mixInputs{seed: seed, specs: specs}
	// A seeded shuffle decides which cells are hot.
	perm := rand.New(rand.NewSource(seed)).Perm(poolSize)
	for _, j := range perm {
		b := j % len(specs)
		m.pool = append(m.pool, m.body(b, netSeedBase(seed)+int64(j)))
		m.base = append(m.base, b)
	}
	// P(rank r) ∝ (1+r)^-1.1, the distribution of rand.NewZipf(_, 1.1, 1, poolSize-1).
	var sum float64
	for r := 0; r < poolSize; r++ {
		sum += math.Pow(float64(1+r), -1.1)
		m.cdf = append(m.cdf, sum)
	}
	for r := range m.cdf {
		m.cdf[r] /= sum
	}
	return m
}

func (m *mixInputs) body(base int, netSeed int64) []byte {
	spec := m.specs[base]
	spec.Config = &server.ConfigSpec{NetSeed: &netSeed}
	return mustJSON(server.SimulateRequest{JobSpec: spec})
}

// at returns request k's body and the index of its reference result.
// Fresh cells cycle through the base cells, so every seed's misses cost
// the same mix of simulations.
func (m *mixInputs) at(k int64) ([]byte, int) {
	if k%5 == 4 {
		b := int((k/5 + m.seed) % int64(len(m.specs)))
		if b < 0 {
			b += len(m.specs)
		}
		return m.body(b, netSeedBase(m.seed)+poolSize+k), b
	}
	u := float64(hash64(m.seed, k)>>11) / (1 << 53)
	r := sort.SearchFloat64s(m.cdf, u)
	if r >= poolSize {
		r = poolSize - 1
	}
	return m.pool[r], m.base[r]
}

// hash64 is a splitmix64 finalizer over (seed, k).
func hash64(seed, k int64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(k)*0xbf58476d1ce4e9b5
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b5
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// mixEnv is two clients posting /simulate to one dvsd.
type mixEnv struct {
	d      *dvsd
	client *http.Client
	in     *mixInputs
	want   []sweep.ResultJSON
	k      atomic.Int64
}

// baseSpecs are coldCodes × profileStrategies at class S, grid order.
func baseSpecs() []server.JobSpec {
	req := gridRequest(coldCodes, "S", nil)
	var specs []server.JobSpec
	for _, w := range req.Workloads {
		for _, s := range req.Strategies {
			specs = append(specs, server.JobSpec{Workload: w, Strategy: s})
		}
	}
	return specs
}

func setupMix(o options) (env, setupInfo, error) {
	specs := baseSpecs()
	jobs := make([]runner.Job, len(specs))
	for i, s := range specs {
		c, err := s.Cell()
		if err != nil {
			return nil, setupInfo{}, err
		}
		jobs[i] = c.Job
	}
	want, info, err := reference(jobs)
	if err != nil {
		return nil, setupInfo{}, err
	}
	e := &mixEnv{
		d:      startDvsd(runner.NewWithOptions(runner.Options{Workers: workers, MaxEntries: 128})),
		client: newClient(),
		in:     newMixInputs(o.seed, specs),
		want:   want,
	}
	// Warm-up: every pool cell once, so measurement starts near the
	// steady-state hit ratio rather than from an empty cache.
	for i, body := range e.in.pool {
		res := dvsclient.Do(context.Background(), e.client, e.d.ts.URL, body, "")
		if !res.Ok || res.Resp.Result != want[e.in.base[i]] {
			e.close()
			return nil, setupInfo{}, fmt.Errorf("warm-up request %d failed or differs from the reference", i)
		}
	}
	return e, info, nil
}

func (e *mixEnv) round(ph *phase) {
	body, b := e.in.at(e.k.Add(1) - 1)
	ctx, sp := obs.Start(obs.WithTracer(context.Background(), ph.tracer), "bench.op")
	start := time.Now()
	res := dvsclient.Do(ctx, e.client, e.d.ts.URL, body, obs.Traceparent(sp))
	lat := time.Since(start)
	sp.End()
	ph.op(lat, 1)
	switch {
	case res.Shed:
		ph.addShed()
		ph.fail(1, "shed with 429")
	case res.AE != nil:
		ph.fail(1, res.AE.Error())
	case !res.Ok:
		ph.fail(1, "no usable response")
	case res.Resp.Result != e.want[b]:
		r := res.Resp.Result
		ph.fail(1, describe(nil, &r, e.want[b]))
	}
}

func (e *mixEnv) traced(ring int) ([]*obs.Tracer, error) {
	return []*obs.Tracer{e.d.retrace("dvsd-0", ring)}, nil
}

func (e *mixEnv) counters() layerCounters { return layerCounters{runner: e.d.r.Stats()} }

func (e *mixEnv) close() {
	e.d.ts.Close()
	e.client.CloseIdleConnections()
}

// ----------------------------------------------------------------- helpers

func addStats(a, b runner.Stats) runner.Stats {
	a.Runs += b.Runs
	a.Hits += b.Hits
	a.Evictions += b.Evictions
	return a
}

func describe(err error, got *sweep.ResultJSON, want sweep.ResultJSON) string {
	switch {
	case err != nil:
		return err.Error()
	case got == nil:
		return "no result"
	}
	return fmt.Sprintf("result %+v differs from reference %+v", *got, want)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
