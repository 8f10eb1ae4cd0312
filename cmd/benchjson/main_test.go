package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestReadReportComparedLedger: a committed ledger carries only compared
// entries, and its after values become the baseline.
func TestReadReportComparedLedger(t *testing.T) {
	rep, err := readReport("../../BENCH_15.json")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile("../../BENCH_15.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger Report
	if err := json.Unmarshal(buf, &ledger); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 13 {
		t.Fatalf("baseline has %d benchmarks, want 13", len(rep.Benchmarks))
	}
	for name, c := range ledger.Compared {
		if got, ok := rep.Benchmarks[name]; !ok || got != c.After {
			t.Errorf("%s: baseline %+v, want the ledger's after %+v", name, got, c.After)
		}
	}
}

func TestCompareMissingBaselineEntry(t *testing.T) {
	base := &Report{Benchmarks: map[string]Result{"BenchmarkA": {NsPerOp: 10}}}
	cur := &Report{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 10},
		"BenchmarkB": {NsPerOp: 20},
	}}
	if _, err := compare(base, cur); err == nil || !strings.Contains(err.Error(), "BenchmarkB") {
		t.Fatalf("compare err = %v, want one naming BenchmarkB", err)
	}
}

func TestAllocGrowthFlagsMoreAllocs(t *testing.T) {
	base := &Report{Benchmarks: map[string]Result{
		"BenchmarkSame":  {NsPerOp: 100, AllocsPerOp: 3},
		"BenchmarkFewer": {NsPerOp: 100, AllocsPerOp: 3},
		"BenchmarkMore":  {NsPerOp: 100, AllocsPerOp: 0},
	}}
	cur := &Report{Benchmarks: map[string]Result{
		"BenchmarkSame":  {NsPerOp: 300, AllocsPerOp: 3}, // slower only
		"BenchmarkFewer": {NsPerOp: 100, AllocsPerOp: 2},
		"BenchmarkMore":  {NsPerOp: 50, AllocsPerOp: 1}, // faster, but allocates
	}}
	rep, err := compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	grown := allocGrowth(rep)
	if len(grown) != 1 || grown[0] != "BenchmarkMore (0 -> 1)" {
		t.Fatalf("allocGrowth = %v, want only BenchmarkMore (0 -> 1)", grown)
	}
}

// TestAllocGrowthAgainstLedgerIsClean: a run that reproduces a ledger's
// after values passes the gate. BENCH_29.json also carries the host-speed
// fields of the probe benchjson once had; it must still load.
func TestAllocGrowthAgainstLedgerIsClean(t *testing.T) {
	for _, ledger := range []string{"BENCH_15.json", "BENCH_29.json"} {
		t.Run(ledger, func(t *testing.T) {
			base, err := readReport("../../" + ledger)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := compare(base, base)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Compared) == 0 {
				t.Fatal("compared no benchmarks")
			}
			if grown := allocGrowth(rep); len(grown) != 0 {
				t.Fatalf("allocGrowth = %v, want none", grown)
			}
		})
	}
	buf, err := os.ReadFile("../../BENCH_29.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"host_adjusted"`) {
		t.Fatal("BENCH_29.json has no host_adjusted field; pick a ledger that still carries the host-speed fields")
	}
}

// TestCIBaselineIsNewestLedger: CI's bench job gates against the newest
// BENCH_<n>.json, and that ledger has an entry for every benchmark
// defaultBench selects, so the gate's missing-entry error cannot fire.
func TestCIBaselineIsNewestLedger(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`-baseline BENCH_(\d+)\.json`).FindSubmatch(ci)
	if m == nil {
		t.Fatal("ci.yml runs benchjson with no -baseline BENCH_<n>.json")
	}
	gated, _ := strconv.Atoi(string(m[1]))
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	newest := 0
	for _, p := range paths {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		newest = max(newest, n)
	}
	if gated != newest {
		t.Errorf("CI gates against BENCH_%d.json, but the newest ledger is BENCH_%d.json", gated, newest)
	}
	base, err := readReport(fmt.Sprintf("../../BENCH_%d.json", gated))
	if err != nil {
		t.Fatal(err)
	}
	tops := map[string]bool{}
	for name := range base.Benchmarks {
		top, _, _ := strings.Cut(name, "/")
		tops[top] = true
	}
	for _, want := range strings.Split(defaultBench, "|") {
		if !tops[want] {
			t.Errorf("BENCH_%d.json has no entry for %s", gated, want)
		}
	}
}

func TestParseKeepsBestOfEachMetric(t *testing.T) {
	rep := &Report{Benchmarks: map[string]Result{}}
	parse(rep, `goos: linux
BenchmarkX-2   	     100	      2000 ns/op	      64 B/op	       3 allocs/op
BenchmarkX-2   	     100	      1000 ns/op	      96 B/op	       4 allocs/op
BenchmarkX-2   	     100	      1500 ns/op	      80 B/op	       3 allocs/op
`)
	want := Result{NsPerOp: 1000, BytesPerOp: 64, AllocsPerOp: 3}
	if got := rep.Benchmarks["BenchmarkX"]; got != want {
		t.Fatalf("parse kept %+v, want %+v", got, want)
	}
}
