package sweep

import (
	"context"

	"repro/internal/core"
	"repro/internal/runner"
)

// Outcome is one placed cell's terminal result: Wire on success, Err on
// failure. Wire is the one form every layer above the placer reads — the
// /simulate body, the stream record and the journal line — and is derived
// once, where the cell finished. A cell that ran in-process also keeps
// Raw, the full per-node result the wire form summarizes.
type Outcome struct {
	Cached bool
	// Raw is the full-fidelity result when the cell ran in-process.
	Raw *core.Result
	// Wire is the cell's wire result, nil on failure.
	Wire *ResultJSON
	// Err is the typed failure, nil on success.
	Err *APIError
	// RawErr preserves the underlying error for in-process placements
	// (context errors, *runner.PanicError); nil for wire-decoded errors.
	RawErr error
}

// ResultJSON returns the outcome's wire result; nil for failed outcomes.
func (o Outcome) ResultJSON() *ResultJSON { return o.Wire }

// Record builds the outcome's NDJSON stream line at submission index i.
func (o Outcome) Record(i int) SweepRecord {
	if o.Err != nil {
		return SweepRecord{Index: i, Error: o.Err}
	}
	return SweepRecord{Index: i, Cached: o.Cached, Result: o.Wire}
}

// FromRunner converts a runner outcome into a placement outcome, deriving
// the wire result of a successful run: the one place an in-process
// result becomes its wire form.
func FromRunner(o runner.Outcome) Outcome {
	if o.Err != nil {
		return Outcome{Err: OutcomeError(o.Err), RawErr: o.Err}
	}
	r := o.Result
	w := ToResultJSON(r)
	return Outcome{Cached: o.Cached, Raw: &r, Wire: &w}
}

// Placer decides where one cell runs and returns its terminal outcome.
// i is the cell's submission index (stable across the plan, used for
// labeling traces); implementations must be safe for concurrent calls.
type Placer interface {
	Place(ctx context.Context, i int, c Cell) Outcome
}

// Local places every cell on an in-process runner: the single-node
// execution substrate dvsd and cmd/reproduce default to. Memoization,
// in-flight coalescing, and panic containment are the runner's; the cell
// hands over its precomputed Key, so the job is hashed once per cell.
type Local struct {
	Runner *runner.Runner
}

func (l Local) Place(ctx context.Context, _ int, c Cell) Outcome {
	return FromRunner(l.Runner.DoKey(ctx, c.Job, c.Key))
}
