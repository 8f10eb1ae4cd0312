package repro

// Benchmark harness: one benchmark per paper table/figure (regenerating
// the artifact end-to-end on the simulated cluster), the §5.3.2 ablations,
// and substrate micro-benchmarks for the simulator itself.
//
// Artifact benches run at class W (Quick) so `go test -bench=.` completes
// in seconds; cmd/reproduce regenerates the same artifacts at the paper's
// class C.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// compute runs a compute phase of megacycles on n from p's own body,
// parking p through each sleep StepCompute arms.
func compute(n *node.Node, p *sim.Proc, megacycles float64) {
	n.StartCompute(p, megacycles, dvs.ActCompute)
	for n.StepCompute(p) {
		p.Park(nil)
	}
}

// stall holds n at activity a and busy fraction busyFrac for d.
func stall(n *node.Node, p *sim.Proc, a dvs.Activity, busyFrac float64, d time.Duration) {
	n.BeginSpan(a, busyFrac)
	p.Sleep(d)
	n.EndSpan()
}

// ------------------------------------------------------- paper artifacts

func BenchmarkTable1OperatingPoints(b *testing.B) {
	o := experiments.Default()
	for i := 0; i < b.N; i++ {
		if t := experiments.Table1(o); len(t.Rows) != 5 {
			b.Fatal("bad table 1")
		}
	}
}

func BenchmarkFigure1PowerBreakdown(b *testing.B) {
	o := experiments.Default()
	for i := 0; i < b.N; i++ {
		if f := experiments.Figure1(o); f.CPUShareLoad <= 0 {
			b.Fatal("bad figure 1")
		}
	}
}

func BenchmarkFigure2SwimCrescendo(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Profiles(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		ps, err := experiments.BuildProfiles(o)
		if err != nil {
			b.Fatal(err)
		}
		if t := ps.Table2(); len(t.Rows) != 16 {
			b.Fatal("bad table 2")
		}
	}
}

// benchBuildProfiles times the full 8-code × 6-setting grid through the
// sweep engine at a fixed worker count. A fresh engine per iteration keeps
// the memo cache cold, so the numbers measure simulation fan-out, not
// cache hits. Compare Serial vs Parallel for the pool's speedup.
func benchBuildProfiles(b *testing.B, workers int) {
	b.Helper()
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		o.Runner = runner.New(workers)
		if _, err := experiments.BuildProfiles(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildProfilesSerial(b *testing.B)   { benchBuildProfiles(b, 1) }
func BenchmarkBuildProfilesParallel(b *testing.B) { benchBuildProfiles(b, 0) }

func BenchmarkFigure5CPUSpeed(b *testing.B) {
	o := experiments.Quick()
	ps, err := experiments.BuildProfiles(o)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := ps.Figure5(); len(t.Rows) == 0 {
			b.Fatal("bad figure 5")
		}
	}
}

func benchSelection(b *testing.B, m metrics.Metric) {
	b.Helper()
	ps, err := experiments.BuildProfiles(experiments.Quick())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.SelectExternal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6ExternalED3P(b *testing.B) { benchSelection(b, metrics.ED3P) }
func BenchmarkFigure7ExternalED2P(b *testing.B) { benchSelection(b, metrics.ED2P) }

func BenchmarkFigure8Crescendos(b *testing.B) {
	ps, err := experiments.BuildProfiles(experiments.Quick())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, _ := ps.Figure8(); len(res) != 8 {
			b.Fatal("bad figure 8")
		}
	}
}

func BenchmarkFigure9FTTrace(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11FTInternal(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12CGTrace(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure12(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure14CGInternal(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure14(o); err != nil {
			b.Fatal(err)
		}
	}
}

// -------------------------------------------------------------- ablations

func BenchmarkAblationCGPhasePolicies(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		for _, pol := range []npb.CGPolicy{npb.CGCommSlow, npb.CGWaitSlow} {
			w, err := npb.CGWithPolicy(o.Class, 8, pol, 1400, 600)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Run(w, core.NoDVS(), o.Config); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblationCPUSpeedVersions(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblationCPUSpeed(o, "FT"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTransitionCost(b *testing.B) {
	o := experiments.Quick()
	lats := []time.Duration{10 * time.Microsecond, 30 * time.Microsecond, time.Millisecond}
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblationTransitionCost(o, lats); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------- extensions

func BenchmarkX1AutoSchedule(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		w, err := npb.FT(o.Class, 8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.Tune(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkX2PredictiveDaemon(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.X2PredictiveDaemon(o, []string{"MG"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkX3DiskSlack(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.X3DiskSlack(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkX4OpteronProjection(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.X4Opteron(o, []string{"FT"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkX5Scaling(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.X5Scaling(o, []int{2, 4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkX6Reliability(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.X6Reliability(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkX7PowerCap(b *testing.B) {
	o := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.X7PowerCap(o, []float64{0.8}); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------- substrate benchmarks

// BenchmarkSimKernelEvents measures raw event throughput of the
// discrete-event kernel.
func BenchmarkSimKernelEvents(b *testing.B) {
	k := sim.NewKernel()
	n := 0
	var tick func()
	at := sim.Time(0)
	tick = func() {
		n++
		if n < b.N {
			at = at.Add(time.Microsecond)
			k.At(at, tick)
		}
	}
	k.At(0, tick)
	b.ResetTimer()
	if err := k.Run(sim.MaxTime); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimProcSwitch measures proc suspend/resume round-trips.
func BenchmarkSimProcSwitch(b *testing.B) {
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(sim.MaxTime); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimProcHandoff measures cross-proc resumes: two procs
// ping-pong by parking with nothing armed and waking each other, so every
// op hands the baton from one proc to the other and back (two handoffs,
// no self-resume).
func BenchmarkSimProcHandoff(b *testing.B) {
	k := sim.NewKernel()
	var ping *sim.Proc
	// pong is spawned first so it is already parked for ping's first
	// wake.
	pong := k.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Park(nil)
			ping.Wake()
		}
	})
	ping = k.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			pong.Wake()
			p.Park(nil)
		}
	})
	b.ResetTimer()
	if err := k.Run(sim.MaxTime); err != nil {
		b.Fatal(err)
	}
	if st := k.Stats(); st.Handoffs < 2*b.N {
		b.Fatalf("%d handoffs for %d ops, want 2 per op", st.Handoffs, b.N)
	}
}

// BenchmarkMPIPingPong measures simulated small-message round-trips.
func BenchmarkMPIPingPong(b *testing.B) {
	k := sim.NewKernel()
	nodes := []*node.Node{
		node.MustNew(k, 0, node.DefaultConfig()),
		node.MustNew(k, 1, node.DefaultConfig()),
	}
	net := netsim.MustNew(k, 2, netsim.DefaultConfig())
	w, err := mpisim.NewWorld(k, net, nodes, mpisim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Launch("pingpong", func(r *mpisim.Rank) {
		for i := 0; i < b.N; i++ {
			if r.ID() == 0 {
				r.Send(1, 0, 64)
				r.Recv(1, 1)
			} else {
				r.Recv(0, 0)
				r.Send(0, 1, 64)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := k.Run(sim.MaxTime); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMPIAlltoall measures a full 8-rank exchange per iteration.
func BenchmarkMPIAlltoall(b *testing.B) {
	k := sim.NewKernel()
	var nodes []*node.Node
	for i := 0; i < 8; i++ {
		nodes = append(nodes, node.MustNew(k, i, node.DefaultConfig()))
	}
	net := netsim.MustNew(k, 8, netsim.DefaultConfig())
	w, err := mpisim.NewWorld(k, net, nodes, mpisim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Launch("alltoall", func(r *mpisim.Rank) {
		for i := 0; i < b.N; i++ {
			r.Alltoall(4096)
		}
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := k.Run(sim.MaxTime); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNodeEnergyAccounting measures the power integrator under
// frequent DVS transitions.
func BenchmarkNodeEnergyAccounting(b *testing.B) {
	k := sim.NewKernel()
	n := node.MustNew(k, 0, node.DefaultConfig())
	k.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := n.SetFrequencyIndex(i % 5); err != nil {
				panic(err)
			}
			stall(n, p, dvs.ActMemory, 1, 10*time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(sim.MaxTime); err != nil {
		b.Fatal(err)
	}
	_ = n.Energy()
}

// BenchmarkThermalIntegrator measures the die-temperature integrator. One
// op is what a rank's node sees over a stretch of a run: 64 alternations of
// 1 ms busy and 1 ms idle (message-bound phases) and then one 30 s compute
// span, three thermal time constants long (an EP-style compute phase).
func BenchmarkThermalIntegrator(b *testing.B) {
	k := sim.NewKernel()
	n := node.MustNew(k, 0, node.DefaultConfig())
	mhz := float64(n.Frequency())
	k.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				compute(n, p, mhz/1000)
				p.Sleep(time.Millisecond)
			}
			compute(n, p, mhz*30)
		}
	})
	b.ResetTimer()
	if err := k.Run(sim.MaxTime); err != nil {
		b.Fatal(err)
	}
	if th := n.Thermal(); th.LifetimeFactor <= 0 {
		b.Fatalf("implausible thermal %+v", th)
	}
}

// BenchmarkDaemonDecision measures one cpuspeed poll+decide step.
func BenchmarkDaemonDecision(b *testing.B) {
	k := sim.NewKernel()
	n := node.MustNew(k, 0, node.DefaultConfig())
	cfg := sched.CPUSpeedV121()
	cfg.Interval = time.Millisecond
	d, err := sched.StartCPUSpeed(k, n, cfg)
	if err != nil {
		b.Fatal(err)
	}
	k.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			stall(n, p, dvs.ActMemory, 1, time.Millisecond)
		}
		d.Stop()
	})
	b.ResetTimer()
	if err := k.Run(sim.MaxTime); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFullRun measures one end-to-end class W cluster run per NPB
// code: the cost every uncached sweep cell pays. FT keeps the 8 ranks
// its benchmark history was measured at; the other codes run at the
// paper's rank count.
func BenchmarkFullRun(b *testing.B) {
	for _, code := range experiments.NPBCodes {
		e, ok := npb.Lookup(code)
		if !ok {
			b.Fatalf("%s not registered", code)
		}
		ranks := e.PaperRanks
		if code == "FT" {
			ranks = 8
		}
		w, err := e.Build(npb.ClassW, ranks)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(code, func(b *testing.B) {
			cfg := core.DefaultConfig()
			// One untimed run first: the benchmark harness collects
			// garbage before timing, which empties the sync.Pools a run
			// refills. At 100ms a code runs only a few times, so that
			// refill would add to allocs/op an amount that depends on b.N.
			if _, err := core.Run(w, core.External(dvs.MHz(600)), cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(w, core.External(dvs.MHz(600)), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJobKey measures one content address: what every cached cell
// pays twice, in the gateway's sweep plan and in the backend's
// /simulate. The job is a class-C cell under the cpuspeed daemon.
func BenchmarkJobKey(b *testing.B) {
	w, err := npb.FT(npb.ClassC, 8)
	if err != nil {
		b.Fatal(err)
	}
	j := runner.Job{Workload: w, Strategy: core.Daemon(sched.CPUSpeedV121()), Config: core.DefaultConfig()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := j.Key(); !ok {
			b.Fatal("job not cacheable")
		}
	}
}

// BenchmarkWireResult measures the result codec on one class-C result:
// encoding and decoding the /simulate body dvsd sends and the gateway
// reads, then encoding the /sweep record line the gateway streams. A
// client reads that line through sweep.DecodeStream, whose per-line cost
// internal/sweep's TestWireCodecAllocs pins.
func BenchmarkWireResult(b *testing.B) {
	r := sweep.ResultJSON{
		Name: "FT.C.8", Strategy: "auto",
		ElapsedSec: 43.26061727, EnergyJ: 6556.248790759172, AvgPowerW: 151.55236343115575,
		EnergyPerNodeJ: 819.5310988448965, Transitions: 32, DaemonMoves: 32,
		AvgTempC: 36.807296973209965, MinLifetimeFactor: 4.941368488379609,
		NetMessages: 1600, NetBytes: 2660007680,
	}
	resp := sweep.SimulateResponse{Cached: true, Result: r}
	rec := sweep.SweepRecord{Index: 41, Cached: true, Result: &r}
	buf := make([]byte, 0, 1024)
	var gotResp sweep.SimulateResponse
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if buf, err = sweep.AppendResponse(buf[:0], &resp); err != nil {
			b.Fatal(err)
		}
		if err = sweep.DecodeResponse(buf, &gotResp); err != nil {
			b.Fatal(err)
		}
		if buf, err = sweep.AppendRecord(buf[:0], &rec); err != nil {
			b.Fatal(err)
		}
	}
	if gotResp != resp {
		b.Fatalf("round trip changed the result: %+v", gotResp)
	}
}

// flushWriter stands in for a streaming http.ResponseWriter: lines
// collect in a buffer, and each flush sends them on in one write to the
// null device, as a response flush sends one chunk. It counts flushes.
type flushWriter struct {
	f       *os.File
	buf     []byte
	flushes int
}

func (w *flushWriter) Write(p []byte) (int, error) { w.buf = append(w.buf, p...); return len(p), nil }

func (w *flushWriter) Flush() {
	_, _ = w.f.Write(w.buf) // the null device takes every byte
	w.buf = w.buf[:0]
	w.flushes++
}

// instantPlacer answers every cell at once with one shared wire result,
// the way the gateway's memo answers a repeated grid.
type instantPlacer struct{ out sweep.Outcome }

func (p instantPlacer) Place(context.Context, int, sweep.Cell) sweep.Outcome { return p.out }

// BenchmarkSweepStream measures what the /sweep stream costs around the
// cells themselves: one Execute of 48 instantly placed cells (the Table 2
// grid's size) at the gateway's fanout of 2, encoded into a flushing
// writer, then the trailer. flushes/sweep counts the writer's flushes,
// each one write system call.
func BenchmarkSweepStream(b *testing.B) {
	r := sweep.ResultJSON{Name: "FT.C.8", Strategy: "external(600MHz)", ElapsedSec: 43.26061727, EnergyJ: 6556.248790759172}
	cells := make([]sweep.Cell, 48)
	for i := range cells {
		cells[i] = sweep.Cell{Key: fmt.Sprintf("key-%02d", i)}
	}
	plan := sweep.NewPlan(cells)
	pl := instantPlacer{sweep.Outcome{Cached: true, Wire: &r}}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer null.Close()
	w := flushWriter{f: null}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := sweep.NewEncoder(&w)
		_, sum := sweep.Execute(context.Background(), plan, pl, sweep.ExecOptions{Parallel: 2, OnRecord: enc.Record, Flush: enc.Flush})
		enc.Trailer(sum)
		if sum.Cached != len(cells) {
			b.Fatalf("summary %+v, want every cell cached", sum)
		}
	}
	b.ReportMetric(float64(w.flushes)/float64(b.N), "flushes/sweep")
}

// table2Body is the /sweep body of the Table 2 grid at class C: the eight
// NPB codes × every operating point (the top one as NoDVS) and the
// cpuspeed daemon, 48 cells.
func table2Body() []byte {
	table := core.DefaultConfig().Node.Table
	var req server.SweepRequest
	for _, code := range experiments.NPBCodes {
		req.Workloads = append(req.Workloads, server.WorkloadSpec{Code: code, Class: "C"})
	}
	for _, f := range table.Frequencies() {
		if f == table.Top().Frequency {
			req.Strategies = append(req.Strategies, server.StrategySpec{Kind: "nodvs"})
		} else {
			req.Strategies = append(req.Strategies, server.StrategySpec{Kind: "external", FreqMHz: float64(f)})
		}
	}
	req.Strategies = append(req.Strategies, server.StrategySpec{Kind: "daemon"})
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// warmTable2 is a dvsd handler whose runner has simulated the Table 2
// grid once, built on first use and shared by every run of
// BenchmarkSweepRepeat in the process.
var warmTable2 = sync.OnceValues(func() (http.Handler, error) {
	h := server.New(server.Options{Runner: runner.New(0)}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(string(table2Body()))))
	if _, trailer, err := sweep.DecodeStream(rec.Body); err != nil || trailer.Errors != 0 {
		return nil, fmt.Errorf("warm-up sweep: trailer %+v, err %v", trailer, err)
	}
	return h, nil
})

// BenchmarkSweepRepeat measures a repeated /sweep on a warm dvsd: the
// Table 2 grid posted to the handler again, every cell a memo-cache hit,
// so the request path around the cells (body, plan, admission, stream)
// is the cost.
func BenchmarkSweepRepeat(b *testing.B) {
	h, err := warmTable2()
	if err != nil {
		b.Fatal(err)
	}
	body := string(table2Body())
	var rec *httptest.ResponseRecorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	if _, trailer, err := sweep.DecodeStream(rec.Body); err != nil || trailer.CachedCells != trailer.Jobs || trailer.Jobs != 48 {
		b.Fatalf("repeat sweep: trailer %+v, err %v; want 48 cached cells", trailer, err)
	}
}
