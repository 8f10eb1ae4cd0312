package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one finished span placed in its joined trace.
type span struct {
	obs.SpanData
	end      time.Time
	selfMS   float64
	parent   *span
	children []*span
	root     *span
}

// spanSet is every span the traced phase recorded, across all tracers,
// joined into traces by trace ID: a backend's dvsd.simulate root, stitched
// through the traceparent header, becomes the child of the caller's span.
type spanSet struct {
	spans   []*span
	roots   []*span
	dropped int // spans a full trace did not keep
}

// joinSpans merges tracer snapshots by trace ID, links each span to its
// parent, and computes self times.
func joinSpans(snaps ...[]obs.TraceJSON) *spanSet {
	set := &spanSet{}
	byTrace := map[string][]*span{}
	var order []string
	for _, snap := range snaps {
		for _, tr := range snap {
			set.dropped += tr.SpansDropped
			if _, seen := byTrace[tr.TraceID]; !seen {
				order = append(order, tr.TraceID)
			}
			for _, d := range tr.Spans {
				sp := &span{SpanData: d, end: d.Start.Add(time.Duration(d.DurationMS * float64(time.Millisecond)))}
				byTrace[tr.TraceID] = append(byTrace[tr.TraceID], sp)
				set.spans = append(set.spans, sp)
			}
		}
	}
	for _, id := range order {
		spans := byTrace[id]
		byID := make(map[string]*span, len(spans))
		for _, sp := range spans {
			byID[sp.SpanID] = sp
		}
		var roots []*span
		for _, sp := range spans {
			if p := byID[sp.ParentID]; p != nil && sp.ParentID != "" {
				sp.parent = p
				p.children = append(p.children, sp)
			} else {
				roots = append(roots, sp)
			}
		}
		for _, r := range roots {
			markRoot(r, r)
		}
		set.roots = append(set.roots, roots...)
	}
	for _, sp := range set.spans {
		sp.selfMS = selfMS(sp)
	}
	return set
}

func markRoot(sp, root *span) {
	sp.root = root
	for _, c := range sp.children {
		markRoot(c, root)
	}
}

// selfMS is the span's duration minus the union of the intervals its
// children cover, each clipped to the span's own interval. Taking the
// union, not the sum, keeps overlapping children (a hedge racing its
// primary) from being charged twice.
func selfMS(sp *span) float64 {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(sp.children))
	for _, c := range sp.children {
		a, b := c.Start, c.end
		if a.Before(sp.Start) {
			a = sp.Start
		}
		if b.After(sp.end) {
			b = sp.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return sp.DurationMS - float64(covered)/1e6
}

// named returns the spans called name.
func (s *spanSet) named(name string) []*span {
	var out []*span
	for _, sp := range s.spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// child returns sp's first child called name, or nil.
func (sp *span) child(name string) *span {
	for _, c := range sp.children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// spanRow is one line of the per-span table.
type spanRow struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
	P50MS   float64
	// Share is the name's total time over the total time of the roots of
	// the traces it appears in.
	Share float64
}

// table aggregates the spans by name, largest total first.
func (s *spanSet) table() []spanRow {
	durs := map[string][]float64{}
	rows := map[string]*spanRow{}
	rootsOf := map[string]map[*span]bool{}
	for _, sp := range s.spans {
		r := rows[sp.Name]
		if r == nil {
			r = &spanRow{Name: sp.Name}
			rows[sp.Name] = r
			rootsOf[sp.Name] = map[*span]bool{}
		}
		r.Count++
		r.TotalMS += sp.DurationMS
		r.SelfMS += sp.selfMS
		durs[sp.Name] = append(durs[sp.Name], sp.DurationMS)
		rootsOf[sp.Name][sp.root] = true
	}
	out := make([]spanRow, 0, len(rows))
	for name, r := range rows {
		r.P50MS = median(durs[name])
		var rootMS float64
		for root := range rootsOf[name] {
			rootMS += root.DurationMS
		}
		if rootMS > 0 {
			r.Share = r.TotalMS / rootMS
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMS != out[j].TotalMS {
			return out[i].TotalMS > out[j].TotalMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// closure returns, per root span name, the self time summed over every
// span of the traces with that root, divided by the roots' total time.
// A value near 1 means the spans account for all of the root's time.
func (s *spanSet) closure() map[string]float64 {
	self := map[string]float64{}
	total := map[string]float64{}
	for _, sp := range s.spans {
		self[sp.root.Name] += sp.selfMS
	}
	for _, r := range s.roots {
		total[r.Name] += r.DurationMS
	}
	out := map[string]float64{}
	for name, t := range total {
		if t > 0 {
			out[name] = self[name] / t
		}
	}
	return out
}

func printSpanTable(w io.Writer, s *spanSet) {
	fmt.Fprintf(w, "  %-18s %8s %12s %12s %10s %7s\n", "span", "count", "total_ms", "self_ms", "p50_ms", "share")
	for _, r := range s.table() {
		fmt.Fprintf(w, "  %-18s %8d %12.1f %12.1f %10.3f %6.1f%%\n",
			r.Name, r.Count, r.TotalMS, r.SelfMS, r.P50MS, 100*r.Share)
	}
	cl := s.closure()
	names := make([]string, 0, len(cl))
	for n := range cl {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  self-time closure under %s: %.1f%% of its total\n", n, 100*cl[n])
	}
}
