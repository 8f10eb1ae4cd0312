// Package trace is the MPE/Jumpshot analogue: it records per-rank
// timelines of compute, memory, and communication events from the MPI
// layer and renders the summaries the paper reads off its Figures 9 and 12
// — communication-to-computation ratios, dominant event kinds, per-rank
// asymmetry — plus ASCII timelines at iteration or message granularity.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/mpisim"
	"repro/internal/sim"
)

// Event is one recorded interval on one rank.
type Event struct {
	Rank  int
	Kind  mpisim.EventKind
	Name  string
	Start sim.Time
	End   sim.Time
	Bytes int
	Peer  int
}

// Duration returns the event length.
func (e Event) Duration() time.Duration { return e.End.Sub(e.Start) }

// Log collects events; it implements mpisim.Tracer. Install with
// world.SetTracer(log) or core.Config.Tracer.
type Log struct {
	ranks  int
	events []Event
	// keep per-rank indexes for cheap per-rank queries
	byRank [][]int
}

// New creates a log for a world of the given size.
func New(ranks int) *Log {
	return &Log{ranks: ranks, byRank: make([][]int, ranks)}
}

// Event implements mpisim.Tracer.
func (l *Log) Event(rank int, kind mpisim.EventKind, name string, start, end sim.Time, bytes, peer int) {
	if rank < 0 || rank >= l.ranks {
		return
	}
	l.byRank[rank] = append(l.byRank[rank], len(l.events))
	l.events = append(l.events, Event{rank, kind, name, start, end, bytes, peer})
}

// Len returns the number of recorded events.
func (l *Log) Len() int { return len(l.events) }

// Events returns a copy of all events in record order.
func (l *Log) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// RankEvents returns rank r's events in record order.
func (l *Log) RankEvents(r int) []Event {
	if r < 0 || r >= l.ranks {
		return nil
	}
	out := make([]Event, 0, len(l.byRank[r]))
	for _, i := range l.byRank[r] {
		out = append(out, l.events[i])
	}
	return out
}

// Summary aggregates one rank's time by activity.
type Summary struct {
	Rank     int
	Compute  time.Duration
	Memory   time.Duration
	Comm     time.Duration // send + recv + wait + collectives
	Disk     time.Duration
	Events   int
	Messages int
	Bytes    int64
	Span     time.Duration // first start to last end
}

// CommComputeRatio returns communication time over computation time
// (compute + memory), the figure the paper reads off the FT trace ("about
// 2:1"). Returns 0 when there is no computation.
func (s Summary) CommComputeRatio() float64 {
	den := (s.Compute + s.Memory).Seconds()
	if den <= 0 {
		return 0
	}
	return s.Comm.Seconds() / den
}

// collIntervals returns rank r's collective intervals ordered by start.
// Collectives on one rank never overlap (the rank is sequential), and the
// MPI layer records them after their nested point-to-point events, so the
// intervals must be gathered in a first pass.
func (l *Log) collIntervals(r int) [][2]sim.Time {
	var out [][2]sim.Time
	for _, e := range l.RankEvents(r) {
		if e.Kind == mpisim.EvCollective {
			out = append(out, [2]sim.Time{e.Start, e.End})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// insideAny reports whether [start, end] is contained in one of the sorted
// non-overlapping intervals, advancing *idx monotonically (callers iterate
// events in time order).
func insideAny(ivs [][2]sim.Time, idx *int, start, end sim.Time) bool {
	for *idx < len(ivs) && ivs[*idx][1] <= start {
		*idx++
	}
	return *idx < len(ivs) && ivs[*idx][0] <= start && end <= ivs[*idx][1]
}

// Summarize aggregates rank r. Nested events (pt2pt inside a collective)
// are not double-counted: only top-level collective/comm events and
// compute/memory events contribute.
func (l *Log) Summarize(r int) Summary {
	s := Summary{Rank: r}
	var first, last sim.Time
	first = -1
	colls := l.collIntervals(r)
	idx := 0
	for _, e := range l.RankEvents(r) {
		if first < 0 || e.Start < first {
			first = e.Start
		}
		if e.End > last {
			last = e.End
		}
		s.Events++
		switch e.Kind {
		case mpisim.EvCompute:
			s.Compute += e.Duration()
		case mpisim.EvMemory:
			s.Memory += e.Duration()
		case mpisim.EvDisk:
			s.Disk += e.Duration()
		case mpisim.EvCollective:
			s.Comm += e.Duration()
			s.Bytes += int64(e.Bytes)
			s.Messages++
		case mpisim.EvSend, mpisim.EvRecv, mpisim.EvWait:
			if insideAny(colls, &idx, e.Start, e.End) {
				continue // inside a collective, already counted
			}
			s.Comm += e.Duration()
			if e.Kind != mpisim.EvWait {
				s.Messages++
				s.Bytes += int64(e.Bytes)
			}
		}
	}
	if first < 0 {
		first = 0
	}
	s.Span = last.Sub(first)
	return s
}

// SummarizeAll returns every rank's summary.
func (l *Log) SummarizeAll() []Summary {
	out := make([]Summary, l.ranks)
	for r := 0; r < l.ranks; r++ {
		out[r] = l.Summarize(r)
	}
	return out
}

// Asymmetry quantifies per-rank imbalance: the max/min ratio of per-rank
// communication-to-computation ratios (Figure 12's observation that ranks
// 4–7 communicate relatively more than 0–3).
func (l *Log) Asymmetry() float64 {
	lo, hi := -1.0, 0.0
	for _, s := range l.SummarizeAll() {
		r := s.CommComputeRatio()
		if lo < 0 || r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if lo <= 0 {
		return 1
	}
	return hi / lo
}

// kindGlyph maps event kinds to timeline characters.
func kindGlyph(k mpisim.EventKind) byte {
	switch k {
	case mpisim.EvCompute:
		return '#'
	case mpisim.EvMemory:
		return '='
	case mpisim.EvCollective:
		return '@'
	case mpisim.EvSend:
		return '>'
	case mpisim.EvRecv:
		return '<'
	case mpisim.EvWait:
		return '.'
	case mpisim.EvDisk:
		return 'D'
	}
	return ' '
}

// Timeline renders rank r's activity between t0 and t1 into width buckets
// (Jumpshot's iteration-granularity view, Figure 9/12a): each bucket shows
// the glyph of the kind that dominates it. Empty buckets render as spaces.
func (l *Log) Timeline(r int, t0, t1 sim.Time, width int) string {
	if width <= 0 || t1 <= t0 {
		return ""
	}
	span := float64(t1.Sub(t0))
	buckets := make([]map[mpisim.EventKind]float64, width)
	colls := l.collIntervals(r)
	idx := 0
	for _, e := range l.RankEvents(r) {
		if e.End <= t0 || e.Start >= t1 {
			continue
		}
		if e.Kind != mpisim.EvCollective && e.Kind != mpisim.EvCompute && e.Kind != mpisim.EvMemory &&
			insideAny(colls, &idx, e.Start, e.End) {
			continue
		}
		lo, hi := e.Start, e.End
		if lo < t0 {
			lo = t0
		}
		if hi > t1 {
			hi = t1
		}
		b0 := int(float64(lo.Sub(t0)) / span * float64(width))
		b1 := int(float64(hi.Sub(t0)) / span * float64(width))
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1; b++ {
			if buckets[b] == nil {
				buckets[b] = map[mpisim.EventKind]float64{}
			}
			blo := float64(t0) + float64(b)*span/float64(width)
			bhi := blo + span/float64(width)
			olo, ohi := maxf(blo, float64(lo)), minf(bhi, float64(hi))
			if ohi > olo {
				buckets[b][e.Kind] += ohi - olo
			}
		}
	}
	var sb strings.Builder
	for _, m := range buckets {
		best, bestV := byte(' '), 0.0
		// deterministic kind order
		for k := mpisim.EvCompute; k <= mpisim.EvDisk; k++ {
			if v := m[k]; v > bestV {
				best, bestV = kindGlyph(k), v
			}
		}
		sb.WriteByte(best)
	}
	return sb.String()
}

// Render prints all ranks' timelines over the full span with a legend —
// the textual Jumpshot view.
func (l *Log) Render(width int) string {
	if len(l.events) == 0 {
		return "(empty trace)\n"
	}
	var t1 sim.Time
	for _, e := range l.events {
		if e.End > t1 {
			t1 = e.End
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %d events over %v   legend: #=compute ==memory @=collective >=send <=recv .=wait D=disk\n",
		len(l.events), time.Duration(t1))
	for r := 0; r < l.ranks; r++ {
		fmt.Fprintf(&sb, "rank %2d |%s|\n", r, l.Timeline(r, 0, t1, width))
	}
	return sb.String()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
