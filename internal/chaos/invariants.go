package chaos

import (
	"fmt"

	"repro/internal/fleet"
)

// Observed is everything one seeded run produced, handed to invariants.
type Observed struct {
	Seed  int64
	Sched Schedule
	// N is the plan size; Reference the fault-free per-index result JSON.
	N         int
	Reference map[int]string

	// First (faulted) leg.
	Records  []Line
	Trailer  Line
	Counters fleet.Counters
	Faults   Counts

	// Resume leg, present when Sched crashed the journal.
	Resumed        bool
	JournalPrefix  int
	ResumeRecords  []Line
	ResumeTrailer  Line
	ResumeCounters fleet.Counters
	JournalGone    bool
}

// Violation is one broken contract, named so a failing seed reads as a
// finding, not a diff.
type Violation struct {
	Invariant string
	Detail    string
}

// Invariant is one named end-to-end contract over a run's observations.
type Invariant struct {
	Name  string
	Check func(*Observed) []Violation
}

// DefaultInvariants is the full contract suite: stream integrity and
// reference identity for every leg, trailer bookkeeping, metrics/fault
// accounting, and the resume contract when a journal crash was
// scheduled.
func DefaultInvariants() []Invariant {
	return []Invariant{
		{"no_lost_cells", checkNoLost},
		{"no_duplicate_cells", checkNoDup},
		{"no_error_records", checkNoErrors},
		{"stream_matches_reference", checkReference},
		{"trailer_accounts", checkTrailer},
		{"metrics_account", checkMetrics},
		{"resume_replays_journal", checkResume},
	}
}

// legs yields each decoded stream with a label, so every stream-shape
// invariant automatically covers the resume leg too.
func (o *Observed) legs() []struct {
	label   string
	records []Line
	trailer Line
} {
	ls := []struct {
		label   string
		records []Line
		trailer Line
	}{{"run", o.Records, o.Trailer}}
	if o.Resumed {
		ls = append(ls, struct {
			label   string
			records []Line
			trailer Line
		}{"resume", o.ResumeRecords, o.ResumeTrailer})
	}
	return ls
}

func checkNoLost(o *Observed) (vs []Violation) {
	for _, leg := range o.legs() {
		seen := make(map[int]bool, len(leg.records))
		for _, r := range leg.records {
			seen[r.Index] = true
		}
		for i := 0; i < o.N; i++ {
			if !seen[i] {
				vs = append(vs, Violation{"no_lost_cells",
					fmt.Sprintf("%s: cell %d missing from the stream (%d records for %d cells)",
						leg.label, i, len(leg.records), o.N)})
			}
		}
	}
	return vs
}

func checkNoDup(o *Observed) (vs []Violation) {
	for _, leg := range o.legs() {
		count := make(map[int]int, len(leg.records))
		for _, r := range leg.records {
			count[r.Index]++
		}
		for i, c := range count {
			if c > 1 {
				vs = append(vs, Violation{"no_duplicate_cells",
					fmt.Sprintf("%s: cell %d emitted %d times", leg.label, i, c)})
			}
		}
	}
	return vs
}

func checkNoErrors(o *Observed) (vs []Violation) {
	for _, leg := range o.legs() {
		for _, r := range leg.records {
			if r.Error != nil {
				vs = append(vs, Violation{"no_error_records",
					fmt.Sprintf("%s: cell %d failed %s: %s — the ladder must absorb every injected fault",
						leg.label, r.Index, r.Error.Code, r.Error.Message)})
			}
		}
	}
	return vs
}

func checkReference(o *Observed) (vs []Violation) {
	for _, leg := range o.legs() {
		for _, r := range leg.records {
			if r.Error != nil {
				continue // no_error_records already reports it
			}
			want, ok := o.Reference[r.Index]
			if !ok {
				continue
			}
			if string(r.Result) != want {
				vs = append(vs, Violation{"stream_matches_reference",
					fmt.Sprintf("%s: cell %d result diverges from the fault-free run:\n  got  %s\n  want %s",
						leg.label, r.Index, r.Result, want)})
			}
		}
	}
	return vs
}

func checkTrailer(o *Observed) (vs []Violation) {
	for _, leg := range o.legs() {
		errs, cached := 0, 0
		for _, r := range leg.records {
			if r.Error != nil {
				errs++
			} else if r.Cached {
				cached++
			}
		}
		t := leg.trailer
		if !t.Done || t.Jobs != o.N || t.Errors != errs || t.CachedCells != cached {
			vs = append(vs, Violation{"trailer_accounts",
				fmt.Sprintf("%s: trailer {done:%v jobs:%d cached_cells:%d errors:%d} vs observed {jobs:%d cached:%d errors:%d}",
					leg.label, t.Done, t.Jobs, t.CachedCells, t.Errors, o.N, cached, errs)})
		}
	}
	return vs
}

// checkMetrics ties the gateway's counters to the transport's injected
// faults. The backends are healthy and over-provisioned by
// construction, so every retry, shed wait, and local fallback must be
// explainable by an injected fault — and a fault-free schedule must
// leave those counters at zero. The grid's cells are distinct and each
// leg runs on a fresh gateway, so the result memo answers none of them:
// every cell meets its injected faults on the full ladder.
func checkMetrics(o *Observed) (vs []Violation) {
	c, f := o.Counters, o.Faults
	fail := func(format string, args ...any) {
		vs = append(vs, Violation{"metrics_account", fmt.Sprintf(format, args...)})
	}
	if c.ShedWaits > f.Shed429 {
		fail("shed_waits=%d exceeds injected 429s=%d — waits not caused by backpressure", c.ShedWaits, f.Shed429)
	}
	if c.Retried > f.Faults() {
		fail("retried=%d exceeds injected faults=%d — retries without cause", c.Retried, f.Faults())
	}
	if c.Local > 0 && f.Faults() == 0 {
		fail("local=%d with zero injected faults — healthy backends must serve every cell", c.Local)
	}
	if o.Sched.HedgeAfter == 0 && c.Hedged != 0 {
		fail("hedged=%d with hedging disabled", c.Hedged)
	}
	if c.Resumed != 0 {
		fail("resumed=%d on the first leg — the journal starts empty", c.Resumed)
	}
	if c.MemoHits != 0 {
		fail("memo_hits=%d in one sweep of distinct cells — a cell skipped the ladder whose faults are accounted above", c.MemoHits)
	}
	if o.Sched.CrashAtOp == 0 && c.CheckpointErrors != 0 {
		fail("checkpoint_errors=%d with a healthy journal FS", c.CheckpointErrors)
	}
	return vs
}

// checkResume is the resume contract: the second leg replays exactly the
// journal's intact prefix (no more — that would invent records; no less
// — that would recompute journaled work), and a fully successful resume
// clears the journal.
func checkResume(o *Observed) (vs []Violation) {
	if !o.Resumed {
		return nil
	}
	if got := int(o.ResumeCounters.Resumed); got != o.JournalPrefix {
		vs = append(vs, Violation{"resume_replays_journal",
			fmt.Sprintf("resumed %d cells but the journal holds %d intact records", got, o.JournalPrefix)})
	}
	errs := 0
	for _, r := range o.ResumeRecords {
		if r.Error != nil {
			errs++
		}
	}
	if errs == 0 && !o.JournalGone {
		vs = append(vs, Violation{"resume_replays_journal",
			"journal survived a fully successful resume — the next run would replay stale state"})
	}
	return vs
}
