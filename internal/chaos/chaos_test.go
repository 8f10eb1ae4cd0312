package chaos

import (
	"context"
	"flag"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sweep"
)

var (
	seedCount = flag.Int("chaos.seeds", 25, "seeds to sweep in TestSeedSweep")
	seedStart = flag.Int64("chaos.seed", 0, "first seed; replay one failure with -chaos.seeds=1 -chaos.seed=N")
)

// TestSeedSweep is the harness's main entry: -chaos.seeds schedules,
// each a different fault mix over the same sweep, each checked against
// the full invariant suite. A failure prints the seed and the replay
// command.
func TestSeedSweep(t *testing.T) {
	env, err := NewEnv(2)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	for i := 0; i < *seedCount; i++ {
		seed := *seedStart + int64(i)
		sched := ScheduleFor(seed)
		sched.Env = env
		rep, err := Run(seed, sched, DefaultInvariants())
		if err != nil {
			t.Fatalf("seed %d (%s): harness error: %v", seed, sched.Profile, err)
		}
		if rep.Failed() {
			t.Errorf("%s\nreplay: go test ./internal/chaos -run TestSeedSweep -chaos.seeds=1 -chaos.seed=%d -v",
				rep, seed)
		}
	}
}

// TestTransportDeterministic pins the core property everything rests on:
// the same (seed, body, attempt) always draws the same fault, regardless
// of when or in what order the request arrives.
func TestTransportDeterministic(t *testing.T) {
	plan := Plan{PConnRefused: 0.25, PCutBody: 0.25, P429: 0.25, P500: 0.25}
	kinds := func() []string {
		tr := &Transport{Base: stubBase{}, Seed: 7, Plan: plan}
		var out []string
		for attempt := 0; attempt < 32; attempt++ {
			req, _ := http.NewRequest(http.MethodPost, "http://unused.invalid/simulate",
				strings.NewReader(`{"cell":"x"}`))
			resp, err := tr.RoundTrip(req)
			switch {
			case err != nil:
				out = append(out, "err:"+err.Error())
			default:
				out = append(out, "status:"+resp.Status)
				resp.Body.Close()
			}
		}
		return out
	}
	a, b := kinds(), kinds()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: %q then %q — fault schedule is not deterministic", i, a[i], b[i])
		}
	}
	// With all four kinds at 25%, 32 attempts must hit more than one kind
	// (collapsing to one would mean the draw ignores the attempt number).
	distinct := map[string]bool{}
	for _, k := range a {
		distinct[k] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("32 attempts produced a single outcome %v — attempt number is not feeding the draw", a[0])
	}
}

// stubBase answers every pass-through attempt with a fixed 200, so the
// schedule tests need no network: a real dial's error text would embed
// an ephemeral port and make identical schedules compare unequal.
type stubBase struct{}

func (stubBase) RoundTrip(req *http.Request) (*http.Response, error) {
	return synthesize(req, http.StatusOK, "application/json", "{}\n"), nil
}

// TestSeedsDiffer guards the other direction: different seeds must
// produce different schedules, or the sweep explores nothing.
func TestSeedsDiffer(t *testing.T) {
	outcome := func(seed int64) string {
		tr := &Transport{Base: stubBase{}, Seed: seed, Plan: Plan{PConnRefused: 0.5, P500: 0.5}}
		var out strings.Builder
		for attempt := 0; attempt < 16; attempt++ {
			req, _ := http.NewRequest(http.MethodPost, "http://unused.invalid/simulate",
				strings.NewReader(`{"cell":"x"}`))
			if _, err := tr.RoundTrip(req); err != nil {
				out.WriteByte('r')
			} else {
				out.WriteByte('5')
			}
		}
		return out.String()
	}
	a := outcome(1)
	for seed := int64(2); seed <= 8; seed++ {
		if outcome(seed) != a {
			return
		}
	}
	t.Fatalf("seeds 1..8 all produced the identical fault sequence %q", a)
}

// TestCompactionRenameFailure is the regression test for the checkpoint
// compaction fix: a failed rename must surface an error and must not
// strand the temp file.
func TestCompactionRenameFailure(t *testing.T) {
	dir := t.TempDir()
	plan := testPlan(t)
	path := sweep.CheckpointPath(dir, plan)

	fsys := &FS{FailRenames: true}
	ck, err := sweep.OpenCheckpointFS(fsys, path, plan)
	if err == nil {
		t.Fatalf("OpenCheckpointFS succeeded through a failing rename (ck=%v)", ck)
	}
	if !strings.Contains(err.Error(), "chaos: injected fs failure") {
		t.Fatalf("error does not surface the rename failure: %v", err)
	}
	ents, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Fatalf("compaction stranded temp file %s after a failed rename", e.Name())
		}
	}
}

// TestCheckpointOpenFailureSurfaced: a journal that cannot open must not
// fail the sweep — but it must be counted, because a sweep silently
// running uncheckpointed is a resume that silently won't work.
func TestCheckpointOpenFailureSurfaced(t *testing.T) {
	env, err := NewEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	dir := t.TempDir()
	g, err := gatewayFor(env, Schedule{MaxAttempts: 3, Backoff: time.Millisecond},
		&Transport{Seed: 1}, dir, &FS{CrashAtOp: 1}) // dies at CreateTemp: open always fails
	if err != nil {
		t.Fatal(err)
	}
	recs, trailer, err := postSweep(g, env.body(0))
	if err != nil {
		t.Fatalf("sweep failed outright on a checkpoint open error: %v", err)
	}
	if len(recs) != env.N || trailer.Errors != 0 {
		t.Fatalf("stream degraded: %d records, %d errors", len(recs), trailer.Errors)
	}
	if c := g.Counters(); c.CheckpointErrors != 1 {
		t.Fatalf("CheckpointErrors = %d, want 1", c.CheckpointErrors)
	}
	if files := journalFiles(dir); len(files) != 0 {
		t.Fatalf("unexpected journal files %v", files)
	}
}

// testPlan builds a tiny two-cell plan through the server's expansion
// path, the same way both daemons do.
func testPlan(t *testing.T) *sweep.Plan {
	t.Helper()
	req := server.SweepRequest{
		Workloads:  []server.WorkloadSpec{{Code: "FT", Class: "S", Ranks: 2}},
		Strategies: []server.StrategySpec{{Kind: "nodvs"}, {Kind: "daemon"}},
	}
	plan, err := req.Plan(16)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestFSCrashFreezesJournal pins the FS crash semantics directly: ops
// before the threshold land, the crashing write is torn, later ops fail.
func TestFSCrashFreezesJournal(t *testing.T) {
	dir := t.TempDir()
	plan := testPlan(t)
	path := sweep.CheckpointPath(dir, plan)

	// Ops: 1 CreateTemp, 2 header write, 3 rename — crash at op 5 lands
	// on the second record append.
	fsys := &FS{CrashAtOp: 5}
	ck, err := sweep.OpenCheckpointFS(fsys, path, plan)
	if err != nil {
		t.Fatal(err)
	}
	_ = ck
	raw0, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw0), "\n"); n != 1 {
		t.Fatalf("fresh journal has %d lines, want header only", n)
	}
	if got := fsys.Ops(); got != 3 {
		t.Fatalf("open performed %d mutating ops, want 3 (CreateTemp, write, rename)", got)
	}
	// Fault-free append (op 4), then the torn one (op 5).
	appendViaExecute(t, ck, plan)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	// header + 1 intact record + torn prefix (no trailing newline).
	if len(lines) != 3 || lines[2] == "" {
		t.Fatalf("journal shape after crash: %q", lines)
	}
	if journalPrefix(dir) != 1 {
		t.Fatalf("journalPrefix = %d, want 1 intact record", journalPrefix(dir))
	}
}

// appendViaExecute drives two appends through the executor, the only
// append path production code uses.
func appendViaExecute(t *testing.T, ck *sweep.Checkpoint, plan *sweep.Plan) {
	t.Helper()
	sweep.Execute(context.Background(), plan, sweep.Local{Runner: runner.New(1)}, sweep.ExecOptions{
		Parallel:   1,
		Checkpoint: ck,
	})
}
