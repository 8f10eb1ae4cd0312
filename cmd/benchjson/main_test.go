package main

import (
	"encoding/json"
	"os"
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

func TestRegressionsFlagsSlowdown(t *testing.T) {
	base := &Report{Benchmarks: map[string]Result{
		"BenchmarkFast": {NsPerOp: 100},
		"BenchmarkSlow": {NsPerOp: 100},
	}}
	cur := &Report{Benchmarks: map[string]Result{
		"BenchmarkFast": {NsPerOp: 95},
		"BenchmarkSlow": {NsPerOp: 200}, // 0.5x
	}}
	rep, err := compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	slow := regressions(rep, 0.9)
	if len(slow) != 1 || !strings.HasPrefix(slow[0], "BenchmarkSlow (0.500x)") {
		t.Fatalf("regressions = %v, want only BenchmarkSlow at 0.500x", slow)
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

func TestAllocGrowthAgainstLedgerIsClean(t *testing.T) {
	// A run that reproduces a ledger's after values passes the gate.
	base, err := readReport("../../BENCH_15.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := compare(base, base)
	if err != nil {
		t.Fatal(err)
	}
	if grown := allocGrowth(rep); len(grown) != 0 {
		t.Fatalf("allocGrowth = %v, want none", grown)
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

// TestCompareAdjustsForHostSpeed: a host running at half the baseline's
// speed doubles every ns/op; the adjusted speedup reads 1, the raw one
// 0.5, and the gates still see only the raw figures.
func TestCompareAdjustsForHostSpeed(t *testing.T) {
	base := &Report{Host: &HostProbe{BeforePerS: 100, AfterPerS: 100},
		Benchmarks: map[string]Result{"BenchmarkA": {NsPerOp: 10, AllocsPerOp: 1}}}
	cur := &Report{Host: &HostProbe{BeforePerS: 60, AfterPerS: 40},
		Benchmarks: map[string]Result{"BenchmarkA": {NsPerOp: 20, AllocsPerOp: 1}}}
	rep, err := compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Compared["BenchmarkA"]; c.Speedup != 0.5 || c.HostAdjusted != 1 {
		t.Fatalf("compared %+v, want speedup 0.5 and host-adjusted 1", c)
	}
	if rep.Host != cur.Host || rep.BaselineHost != base.Host {
		t.Fatalf("ledger host readings %+v / %+v, want this run's and the baseline's", rep.Host, rep.BaselineHost)
	}
	if slow := regressions(rep, 0.9); len(slow) != 1 {
		t.Fatalf("regressions = %v; -fail-under must keep gating the raw speedup", slow)
	}
}

// TestOldLedgerHasNoHostReadings: a ledger from before the probe loads,
// and a comparison against it leaves speedups unadjusted.
func TestOldLedgerHasNoHostReadings(t *testing.T) {
	base, err := readReport("../../BENCH_28.json")
	if err != nil {
		t.Fatal(err)
	}
	if base.Host != nil {
		t.Fatalf("BENCH_28.json host readings = %+v, want none", base.Host)
	}
	cur := &Report{Host: &HostProbe{BeforePerS: 1, AfterPerS: 1}, Benchmarks: base.Benchmarks}
	rep, err := compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range rep.Compared {
		if c.HostAdjusted != 0 {
			t.Fatalf("%s: host-adjusted %v against a ledger without readings", name, c.HostAdjusted)
		}
	}
}
