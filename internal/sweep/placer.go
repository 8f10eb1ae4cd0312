package sweep

import (
	"context"

	"repro/internal/core"
	"repro/internal/runner"
)

// Outcome is one placed cell's terminal result. Exactly one of Raw,
// Wire, or Err is meaningful: Raw for cells that ran in-process (full
// per-node fidelity), Wire for cells served remotely (the summary wire
// form is all that travels), Err for failures.
type Outcome struct {
	Cached bool
	// Raw is the full-fidelity result when the cell ran in-process.
	Raw *core.Result
	// Wire is the decoded wire result when the cell was served remotely.
	Wire *ResultJSON
	// Err is the typed failure, nil on success.
	Err *APIError
	// RawErr preserves the underlying error for in-process placements
	// (context errors, *runner.PanicError); nil for wire-decoded errors.
	RawErr error
}

// ResultJSON returns the outcome's wire form, deriving it from the raw
// result when the cell ran in-process. Nil for failed outcomes.
func (o Outcome) ResultJSON() *ResultJSON {
	if o.Wire != nil {
		return o.Wire
	}
	if o.Raw != nil {
		r := ToResultJSON(*o.Raw)
		return &r
	}
	return nil
}

// Record builds the outcome's NDJSON stream line at submission index i.
func (o Outcome) Record(i int) SweepRecord {
	if o.Err != nil {
		return SweepRecord{Index: i, Error: o.Err}
	}
	return SweepRecord{Index: i, Cached: o.Cached, Result: o.ResultJSON()}
}

// FromRunner converts a runner outcome into a placement outcome.
func FromRunner(o runner.Outcome) Outcome {
	if o.Err != nil {
		return Outcome{Err: OutcomeError(o.Err), RawErr: o.Err}
	}
	r := o.Result
	return Outcome{Cached: o.Cached, Raw: &r}
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
