package core_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/sched"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/results_S.golden from the current model")

// goldenCell is one pinned run: its label, the full-precision core.Result
// JSON, and, for the traced cell, each rank's event list.
type goldenCell struct {
	Cell   string          `json:"cell"`
	Result json.RawMessage `json:"result"`
	// Trace holds one entry per rank: its event count and the SHA-256 of
	// its event list's JSON.
	Trace []string `json:"trace,omitempty"`
}

// goldenCells runs every pinned cell: each NPB code at class S under the
// Table 2 settings (every static point, NoDVS at the top, and the
// cpuspeed 1.2.1 daemon), each registered strategy's example on MG.S.8,
// CG.S.8 with the MPI ordering verifier and with spin-waiting receives,
// and LU.S.8 under a trace.Log.
func goldenCells(t *testing.T) []goldenCell {
	t.Helper()
	var cells []goldenCell
	run := func(label string, w npb.Workload, strat core.Strategy, cfg core.Config) {
		var log *trace.Log
		if label == "traced" {
			log = trace.New(w.Ranks)
			cfg.Tracer = log
		}
		res, err := core.Run(w, strat, cfg)
		if err != nil {
			t.Fatalf("%s %s/%s: %v", label, w.Name(), strat, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		c := goldenCell{Cell: fmt.Sprintf("%s %s/%s", label, w.Name(), strat), Result: raw}
		if log != nil {
			for r := 0; r < w.Ranks; r++ {
				evs := log.RankEvents(r)
				b, err := json.Marshal(evs)
				if err != nil {
					t.Fatal(err)
				}
				c.Trace = append(c.Trace, fmt.Sprintf("%d %x", len(evs), sha256.Sum256(b)))
			}
		}
		cells = append(cells, c)
	}
	build := func(code string) npb.Workload {
		e, ok := npb.Lookup(code)
		if !ok {
			t.Fatalf("%s not registered", code)
		}
		w, err := e.Build(npb.ClassS, e.PaperRanks)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	cfg := core.DefaultConfig()
	top := cfg.Node.Table.Top().Frequency
	for _, code := range npb.Codes() {
		w := build(code)
		for _, f := range cfg.Node.Table.Frequencies() {
			strat := core.External(f)
			if f == top {
				strat = core.NoDVS()
			}
			run("table2", w, strat, cfg)
		}
		run("table2", w, core.Daemon(sched.CPUSpeedV121()), cfg)
	}
	for _, r := range core.Strategies() {
		run("registry", build("MG"), r.Example(), cfg)
	}
	ordered := core.DefaultConfig()
	ordered.MPI.CheckOrdering = true
	run("ordering", build("CG"), core.Daemon(sched.CPUSpeedV121()), ordered)
	spin := core.DefaultConfig()
	spin.MPI.SpinWait = true
	run("spinwait", build("CG"), core.External(800), spin)
	run("traced", build("LU"), core.Daemon(sched.CPUSpeedV121()), cfg)
	return cells
}

// TestResultsGolden pins core.Result byte for byte: a change to the
// kernel, the MPI layer or the node model that moves any event, span
// split or float shows up here as a changed cell. Regenerate with
// `go test ./internal/core -run TestResultsGolden -update` only when the
// model is meant to change (and bump the runner's modelVersion with it).
func TestResultsGolden(t *testing.T) {
	const path = "testdata/results_S.golden"
	cells := goldenCells(t)
	var got bytes.Buffer
	for _, c := range cells {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(b)
		got.WriteByte('\n')
	}
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantLines := bufio.NewScanner(bytes.NewReader(want))
	wantLines.Buffer(nil, 1<<24)
	for i := 0; wantLines.Scan(); i++ {
		if i >= len(cells) {
			t.Fatalf("golden has more than the %d cells run", len(cells))
		}
		b, _ := json.Marshal(cells[i])
		if w := wantLines.Bytes(); !bytes.Equal(b, w) {
			at := 0
			for at < len(b) && at < len(w) && b[at] == w[at] {
				at++
			}
			from := max(at-80, 0)
			t.Errorf("cell %d (%s) differs from the golden at byte %d:\n got …%.160s\nwant …%.160s",
				i, cells[i].Cell, at, b[from:], w[from:])
		}
	}
	t.Fatal("results differ from testdata/results_S.golden")
}
