package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TraceResult is a Figure 9/12-style performance-trace study.
type TraceResult struct {
	Workload  string
	Log       *trace.Log
	Summaries []trace.Summary
	Asymmetry float64
	Elapsed   sim.Time
}

// traceOf runs w with tracing at the baseline frequency. The traced job
// is keyless (a tracer makes a run uncacheable) and local-only (the trace
// never crosses the wire), so it always simulates afresh in-process.
func traceOf(w npb.Workload, o Options) (TraceResult, error) {
	log := trace.New(w.Ranks)
	cfg := o.Config
	cfg.Tracer = log
	res, err := o.localOnly().Sweep([]runner.Job{{Workload: w, Strategy: core.NoDVS(), Config: cfg}})
	if err != nil {
		return TraceResult{}, err
	}
	r := res[0]
	return TraceResult{
		Workload:  w.Name(),
		Log:       log,
		Summaries: log.SummarizeAll(),
		Asymmetry: log.Asymmetry(),
		Elapsed:   sim.Time(r.Elapsed),
	}, nil
}

// Figure9 reproduces the FT.C.8 MPE trace study: per-rank activity split,
// the ≈2:1 communication-to-computation ratio, and balance across nodes.
func Figure9(o Options) (TraceResult, error) {
	w, err := npb.FT(o.Class, npb.PaperRanks("FT"))
	if err != nil {
		return TraceResult{}, err
	}
	return traceOf(w, o)
}

// Figure12 reproduces the CG.C.8 trace study: frequent small cycles and
// the rank 0–3 vs 4–7 communication asymmetry.
func Figure12(o Options) (TraceResult, error) {
	w, err := npb.CG(o.Class, npb.PaperRanks("CG"))
	if err != nil {
		return TraceResult{}, err
	}
	return traceOf(w, o)
}

// Render formats the per-rank summary table plus an ASCII timeline.
func (tr TraceResult) Render(title string, timelineWidth int) string {
	t := report.NewTable(title, "rank", "compute", "memory", "comm", "comm:comp", "messages")
	for _, s := range tr.Summaries {
		t.AddRow(fmt.Sprintf("%d", s.Rank),
			fmt.Sprintf("%.2fs", s.Compute.Seconds()),
			fmt.Sprintf("%.2fs", s.Memory.Seconds()),
			fmt.Sprintf("%.2fs", s.Comm.Seconds()),
			fmt.Sprintf("%.2f", s.CommComputeRatio()),
			fmt.Sprintf("%d", s.Messages))
	}
	t.AddNote("comm:comp asymmetry (max/min across ranks): %.2f", tr.Asymmetry)
	return t.String() + tr.Log.Render(timelineWidth)
}
