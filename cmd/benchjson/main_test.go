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
