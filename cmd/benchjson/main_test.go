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
