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

var updateGolden = flag.Bool("update", false, "rewrite testdata/results_{S,C}.golden from the current model")

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
	build := func(code string) npb.Workload { return paperWorkload(t, code, npb.ClassS) }

	cfg := core.DefaultConfig()
	for _, code := range npb.Codes() {
		w := build(code)
		for _, strat := range table2Strategies(cfg) {
			run("table2", w, strat, cfg)
		}
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

// paperWorkload builds an NPB code at the class and the paper's rank
// count.
func paperWorkload(t *testing.T, code string, class npb.Class) npb.Workload {
	t.Helper()
	e, ok := npb.Lookup(code)
	if !ok {
		t.Fatalf("%s not registered", code)
	}
	w, err := e.Build(class, e.PaperRanks)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// table2Strategies are Table 2's settings: every static operating point,
// NoDVS at the top one, then the cpuspeed 1.2.1 daemon.
func table2Strategies(cfg core.Config) []core.Strategy {
	top := cfg.Node.Table.Top().Frequency
	var out []core.Strategy
	for _, f := range cfg.Node.Table.Frequencies() {
		if f == top {
			out = append(out, core.NoDVS())
		} else {
			out = append(out, core.External(f))
		}
	}
	return append(out, core.Daemon(sched.CPUSpeedV121()))
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
	checkGolden(t, path, got.Bytes())
}

// digestCell is one line of the class-C digest: a cell's label and the
// SHA-256 of its core.Result JSON.
type digestCell struct {
	Cell   string `json:"cell"`
	SHA256 string `json:"sha256"`
}

// TestResultsDigestC pins every class-C Table 2 cell at full precision:
// one SHA-256 of each cell's core.Result JSON. The class-C artifacts
// golden prints rounded tables, so a drift below their last printed
// digit shows only here. Regenerate with
// `go test ./internal/core -run TestResultsDigestC -update` under the
// same rule as TestResultsGolden.
func TestResultsDigestC(t *testing.T) {
	const path = "testdata/results_C.golden"
	cfg := core.DefaultConfig()
	var got bytes.Buffer
	for _, code := range npb.Codes() {
		w := paperWorkload(t, code, npb.ClassC)
		for _, strat := range table2Strategies(cfg) {
			res, err := core.Run(w, strat, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name(), strat, err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			d := digestCell{Cell: fmt.Sprintf("table2 %s/%s", w.Name(), strat), SHA256: fmt.Sprintf("%x", sha256.Sum256(raw))}
			line, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			got.Write(line)
			got.WriteByte('\n')
		}
	}
	checkGolden(t, path, got.Bytes())
}

// checkGolden compares got with the golden file at path, one JSON cell
// with a "cell" label per line, or rewrites the file under -update. A
// mismatch names each differing cell and its first differing byte.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	wantLines := bufio.NewScanner(bytes.NewReader(want))
	wantLines.Buffer(nil, 1<<24)
	for i := 0; wantLines.Scan(); i++ {
		if i >= len(gotLines) {
			t.Fatalf("golden has more than the %d cells run", len(gotLines))
		}
		b := gotLines[i]
		if w := wantLines.Bytes(); !bytes.Equal(b, w) {
			at := 0
			for at < len(b) && at < len(w) && b[at] == w[at] {
				at++
			}
			var c struct {
				Cell string `json:"cell"`
			}
			_ = json.Unmarshal(b, &c) // the label only names the cell in the message
			from := max(at-80, 0)
			t.Errorf("cell %d (%s) differs from the golden at byte %d:\n got …%.160s\nwant …%.160s",
				i, c.Cell, at, b[from:], w[from:])
		}
	}
	t.Fatalf("results differ from %s", path)
}
