package trace_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/sim"
	"repro/internal/trace"
)

func runTraced(t *testing.T, w npb.Workload) (*trace.Log, core.Result) {
	t.Helper()
	log := trace.New(w.Ranks)
	cfg := core.DefaultConfig()
	cfg.Tracer = log
	r, err := core.Run(w, core.NoDVS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return log, r
}

func TestLogCollectsEvents(t *testing.T) {
	w, err := npb.FT(npb.ClassS, 8)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := runTraced(t, w)
	if log.Len() == 0 {
		t.Fatal("no events")
	}
	if len(log.Events()) != log.Len() {
		t.Fatal("Events length mismatch")
	}
	if len(log.RankEvents(0)) == 0 {
		t.Fatal("rank 0 has no events")
	}
	if log.RankEvents(-1) != nil || log.RankEvents(99) != nil {
		t.Fatal("out-of-range rank returned events")
	}
}

func TestFTCommComputeRatioRoughlyTwoToOne(t *testing.T) {
	// Figure 9: FT's communication-to-computation ratio is about 2:1.
	// (Class B: small classes inflate the comm share because per-message
	// latency does not scale with problem size.)
	w, err := npb.FT(npb.ClassB, 8)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := runTraced(t, w)
	for r := 0; r < 8; r++ {
		s := log.Summarize(r)
		ratio := s.CommComputeRatio()
		if ratio < 1.5 || ratio > 2.8 {
			t.Errorf("rank %d comm:comp = %.2f, want ≈2", r, ratio)
		}
	}
}

func TestFTBalanced(t *testing.T) {
	// Figure 9: "the workload is almost balanced across all nodes".
	w, err := npb.FT(npb.ClassB, 8)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := runTraced(t, w)
	if a := log.Asymmetry(); a > 1.3 {
		t.Fatalf("FT asymmetry %.2f, want ≈1", a)
	}
}

func TestCGAsymmetricRanks(t *testing.T) {
	// Figure 12 observation 4: ranks 4–7 have a larger comm-to-comp ratio.
	w, err := npb.CG(npb.ClassW, 8)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := runTraced(t, w)
	sums := log.SummarizeAll()
	loMax, hiMin := 0.0, 1e18
	for r := 0; r < 4; r++ {
		if v := sums[r].CommComputeRatio(); v > loMax {
			loMax = v
		}
	}
	for r := 4; r < 8; r++ {
		if v := sums[r].CommComputeRatio(); v < hiMin {
			hiMin = v
		}
	}
	if hiMin <= loMax {
		t.Fatalf("no clean asymmetry: ranks 0-3 max %.2f, ranks 4-7 min %.2f", loMax, hiMin)
	}
	if a := log.Asymmetry(); a < 1.1 {
		t.Fatalf("CG asymmetry %.2f, want > 1.1", a)
	}
}

func TestSummaryCountsMessages(t *testing.T) {
	w, err := npb.FT(npb.ClassS, 8)
	if err != nil {
		t.Fatal(err)
	}
	log, r := runTraced(t, w)
	s := log.Summarize(0)
	if s.Messages == 0 || s.Bytes == 0 {
		t.Fatalf("summary: %+v", s)
	}
	if s.Span <= 0 || s.Span > r.Elapsed+time.Second {
		t.Fatalf("span %v vs elapsed %v", s.Span, r.Elapsed)
	}
}

func TestTimelineRendering(t *testing.T) {
	w, err := npb.FT(npb.ClassS, 8)
	if err != nil {
		t.Fatal(err)
	}
	log, r := runTraced(t, w)
	tl := log.Timeline(0, 0, sim.Time(r.Elapsed), 80)
	if len(tl) != 80 {
		t.Fatalf("timeline width %d", len(tl))
	}
	if !strings.ContainsAny(tl, "#=@") {
		t.Fatalf("timeline has no activity glyphs: %q", tl)
	}
	if log.Timeline(0, 0, 0, 80) != "" {
		t.Fatal("degenerate span should render empty")
	}
	if log.Timeline(0, 0, sim.Time(r.Elapsed), 0) != "" {
		t.Fatal("zero width should render empty")
	}
}

func TestRenderAllRanks(t *testing.T) {
	w, err := npb.CG(npb.ClassS, 8)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := runTraced(t, w)
	out := log.Render(60)
	if !strings.Contains(out, "rank  0") || !strings.Contains(out, "rank  7") {
		t.Fatalf("render missing ranks:\n%s", out)
	}
	if !strings.Contains(out, "legend") {
		t.Fatal("render missing legend")
	}
}

func TestRenderEmpty(t *testing.T) {
	log := trace.New(2)
	if out := log.Render(40); !strings.Contains(out, "empty") {
		t.Fatalf("empty render: %q", out)
	}
}

func TestEventIgnoresOutOfRangeRank(t *testing.T) {
	log := trace.New(2)
	log.Event(5, mpisim.EvCompute, "x", 0, 1, 0, -1)
	if log.Len() != 0 {
		t.Fatal("out-of-range event recorded")
	}
}

func TestNestedCollectiveNotDoubleCounted(t *testing.T) {
	// A collective's internal sends/recvs/waits must not inflate Comm.
	log := trace.New(1)
	log.Event(0, mpisim.EvCollective, "alltoall", 0, sim.Time(10*time.Second), 100, -1)
	log.Event(0, mpisim.EvSend, "send", sim.Time(1*time.Second), sim.Time(2*time.Second), 50, 1)
	log.Event(0, mpisim.EvWait, "wait", sim.Time(2*time.Second), sim.Time(9*time.Second), 0, 1)
	s := log.Summarize(0)
	if s.Comm != 10*time.Second {
		t.Fatalf("comm = %v, want 10s", s.Comm)
	}
	if s.Messages != 1 {
		t.Fatalf("messages = %d, want 1 (the collective)", s.Messages)
	}
}

func TestDiskEventsSummarized(t *testing.T) {
	w, err := npb.BTIO(npb.ClassS, 9)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := runTraced(t, w)
	s := log.Summarize(0)
	if s.Disk <= 0 {
		t.Fatalf("no disk time in summary: %+v", s)
	}
	// Disk phases appear in the timeline with their own glyph.
	var t1 sim.Time
	for _, e := range log.Events() {
		if e.End > t1 {
			t1 = e.End
		}
	}
	tl := log.Timeline(0, 0, t1, 200)
	if !strings.Contains(tl, "D") {
		t.Fatalf("timeline missing disk glyph: %q", tl)
	}
}
