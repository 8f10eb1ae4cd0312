package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sweep"
)

func TestPercentileNeedsTenSamplesAbove(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	if v, ok := percentile(seq(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 samples above", v, ok)
	}
	if _, ok := percentile(seq(99), 0.9); ok {
		t.Error("p90 of 99 samples has only 9 above it, but was reported")
	}
	if v, ok := percentile(seq(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10 with 10 samples above", v, ok)
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("p50 of 19 samples has only 9 above it, but was reported")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) gives
	// [2.75, 5.5, 8.25]; with three values the cuts are the extremes.
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v, %v; want 1, 3", q1, q3)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	sd := func(id, parent string, start, dur float64) obs.SpanData {
		return obs.SpanData{SpanID: id, ParentID: parent, Name: id, Start: at(start), DurationMS: dur}
	}
	// The root is [0,10]. Its children [1,4] and [3,6] overlap, as a hedge
	// and its primary do; [8,12] runs past the root's end. They cover
	// [1,6] and [8,10]: 7 ms, so the root's own time is 3 ms. The
	// grandchild comes from a second process, joined by trace ID.
	gw := []obs.TraceJSON{{TraceID: "t", Spans: []obs.SpanData{
		sd("root", "", 0, 10), sd("a", "root", 1, 3), sd("b", "root", 3, 3), sd("c", "root", 8, 4),
	}}}
	backend := []obs.TraceJSON{{TraceID: "t", Spans: []obs.SpanData{sd("a.1", "a", 1.5, 1)}}}
	s := joinSpans(gw, backend)
	self := map[string]float64{}
	for _, sp := range s.spans {
		self[sp.Name] = sp.selfMS
	}
	want := map[string]float64{"root": 3, "a": 2, "b": 3, "c": 4, "a.1": 1}
	for name, w := range want {
		if d := self[name] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", name, self[name], w)
		}
	}
	if len(s.roots) != 1 || s.roots[0].Name != "root" {
		t.Errorf("roots = %v, want the one root", s.roots)
	}
}

// inputDigest hashes every input the workloads generate from seed, and
// returns the net_seeds they use.
func inputDigest(t *testing.T, seed int64) (string, map[int64]bool) {
	t.Helper()
	h := sha256.New()
	seeds := map[int64]bool{}
	add := func(b []byte) {
		h.Write(b)
		var body struct {
			Config *server.ConfigSpec `json:"config"`
		}
		if err := json.Unmarshal(b, &body); err != nil {
			t.Fatal(err)
		}
		seeds[*body.Config.NetSeed] = true
	}
	fmt.Fprintf(h, "grid-cold net_seed %d\n", netSeedBase(seed))
	seeds[netSeedBase(seed)] = true
	add(mustJSON(warmRequest(seed)))
	for k := int64(0); k < 20; k++ {
		add(mustJSON(coldRequest(seed, k)))
	}
	mix := newMixInputs(seed, baseSpecs())
	for k := int64(0); k < 500; k++ {
		b, base := mix.at(k)
		fmt.Fprintf(h, "%d:", base)
		add(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), seeds
}

func TestInputsFollowTheSeed(t *testing.T) {
	d1, s1 := inputDigest(t, 1)
	again, _ := inputDigest(t, 1)
	d2, s2 := inputDigest(t, 2)
	if d1 != again {
		t.Error("the same seed generated different inputs")
	}
	if d1 == d2 {
		t.Error("seeds 1 and 2 generated the same inputs")
	}
	for s := range s1 {
		if s2[s] {
			t.Errorf("seeds 1 and 2 share net_seed %d", s)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d = %+v, the bench has %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if fmt.Sprint(spec.EndToEnd) != fmt.Sprint(endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end = %v\nbench emits %v", spec.EndToEnd, endToEndDefs)
	}
	if fmt.Sprint(spec.PerLayer) != fmt.Sprint(perLayerDefs) {
		t.Errorf("BENCHMARK.json per_layer = %v\nbench emits %v", spec.PerLayer, perLayerDefs)
	}

	// The computed maps hold exactly the declared names, so the result
	// line reports every metric and nothing else.
	ph := newPhase(nil)
	e2e, _ := endToEnd(ph, 1)
	layer := perLayer(setupInfo{}, ph, ph, joinSpans(), layerCounters{}, layerCounters{}, 0, 1)
	r := &result{e2e: e2e, layer: layer, spans: joinSpans()}
	for _, c := range []struct {
		trace int
		defs  []metricDef
	}{{0, spec.EndToEnd}, {1, spec.PerLayer}} {
		var out bytes.Buffer
		report(&out, workloads[0], options{trace: c.trace}, r)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for name := range line.Metrics {
			got = append(got, name)
		}
		for _, d := range c.defs {
			want = append(want, d.Name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("-trace %d emits %v\nwant %v", c.trace, got, want)
		}
	}
	if len(e2e) != len(endToEndDefs) || len(layer) != len(perLayerDefs) {
		t.Errorf("computed %d end-to-end and %d per-layer metrics, declared %d and %d",
			len(e2e), len(layer), len(endToEndDefs), len(perLayerDefs))
	}
}

func TestCheckStreamCountsEveryBadCell(t *testing.T) {
	want := []sweep.ResultJSON{{Name: "EP.S.8", EnergyJ: 1}, {Name: "FT.S.8", EnergyJ: 2}, {Name: "IS.S.8", EnergyJ: 3}}
	rec := func(i int, r sweep.ResultJSON) sweep.SweepRecord { return sweep.SweepRecord{Index: i, Result: &r} }
	off := want[1]
	off.EnergyJ += 1e-9
	recs := []sweep.SweepRecord{
		rec(2, want[2]),
		rec(1, off),
		{Index: 0, Error: &sweep.APIError{Code: sweep.CodeSimFailed}},
	}
	trailer := &sweep.SweepTrailer{Done: true, Jobs: 3}
	if bad, why := checkStream(recs, trailer, nil, want); bad != 2 || why == "" {
		t.Errorf("checkStream = %d, %q; want the differing and the failed cell", bad, why)
	}
	if bad, _ := checkStream(recs[:2], trailer, nil, want); bad != 3 {
		t.Errorf("a stream missing a record counted %d bad cells, want all 3", bad)
	}
	if bad, _ := checkStream([]sweep.SweepRecord{rec(0, want[0]), rec(1, want[1]), rec(2, want[2])}, trailer, nil, want); bad != 0 {
		t.Errorf("a correct stream counted %d bad cells", bad)
	}
}

func TestCompareVerdicts(t *testing.T) {
	s := func(med, q1, q3 float64) *series { return &series{Median: med, Q1: q1, Q3: q3} }
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "cells_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b *series
		want string
	}{
		{lower, s(10, 9.9, 10.1), s(10.5, 10.4, 10.6), "same"},
		{lower, s(10, 9.9, 10.1), s(12, 11.9, 12.1), "worse"},
		{lower, s(10, 9.9, 10.1), s(8, 7.9, 8.1), "better"},
		{lower, s(10, 9, 11.5), s(12, 11.9, 12.1), "unresolved"},
		{metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}, s(1, 0.8, 1.1), s(1.1, 1, 1.4), "same"},
		{higher, s(100, 99, 101), s(80, 79, 81), "worse"},
		{failedDef, s(0, 0, 0), s(0.01, 0, 0.02), "worse"},
		{failedDef, s(0, 0, 0), s(0, 0, 0), "same"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.d.Name, *c.a, *c.b, got, c.want)
		}
	}
}

// TestSmoke runs one or two operations of every workload, untraced and
// traced, and expects every result to match its reference.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and simulates")
	}
	probe := newHostProbe(20 * time.Millisecond)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, options{seed: 7, seconds: 0, trace: -1, minOps: 1, setups: 1,
				scratch: t.TempDir(), probe: probe})
			if err != nil {
				t.Fatal(err)
			}
			_, tooFew := endToEnd(&phase{lat: make([]float64, res.ops)}, 0)
			for _, p := range res.problems {
				if p != tooFew {
					t.Error(p)
				}
			}
			if res.failed != 0 || res.failedFrac != 0 || res.ops < 1 || res.tracedOps < 1 {
				t.Errorf("failed %d of %d cells (failed_frac %v), %d untraced and %d traced ops",
					res.failed, res.attempted, res.failedFrac, res.ops, res.tracedOps)
			}
			if d := res.layer["obs.spans_dropped"]; d != 0 {
				t.Errorf("obs.spans_dropped = %v", d)
			}
			if len(res.spans.named("bench.op")) != res.tracedOps {
				t.Errorf("%d bench.op spans for %d traced ops", len(res.spans.named("bench.op")), res.tracedOps)
			}
		})
	}
}
