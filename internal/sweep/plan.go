// Package sweep is the one sweep pipeline: plan → place → execute →
// merge. A Plan is the validated, ordered cell list every sweep executes
// (one expansion path — server.SweepRequest.Plan — feeds it, whether
// the caller is dvsd, dvsgw, or cmd/reproduce); a Placer decides where
// one cell runs (in-process runner, a remote dvsd, or a fleet ring); the
// Executor, the repo's one worker pool, streams outcomes in completion
// order to a serialized, panic-contained observer and cancels at cell
// boundaries; and the Merger owns
// the NDJSON record/trailer wire contract end to end. On top of the
// unified plan sits checkpoint/resume: the executor journals completed
// cells to an NDJSON file keyed by the plan's fingerprint, so a killed
// sweep restarts where it died instead of re-running finished cells.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"

	"repro/internal/runner"
)

// Cell is one unit of placeable work: a sweep grid cell carried in its
// compiled form (a runner.Job, runnable in-process) and optionally its
// wire spec (encoding to a POST /simulate body, forwardable to any dvsd
// backend).
// The Key is the runner's content address; it doubles as the fleet
// router's affinity token and the checkpoint journal's cell identity.
type Cell struct {
	// Key is the runner's content address, "" when the cell is not
	// cacheable (then the cell has no Body, runs in-process, and is never
	// journaled or replayed).
	Key string
	// Job is the compiled form, runnable in-process.
	Job runner.Job
	// Spec is the cell's wire form — a value whose JSON encoding is a
	// valid POST /simulate body — when the job is wire-expressible; nil
	// otherwise (then only local placement can serve it). It is encoded
	// only by a placer that forwards the cell (Body), so a cell placed
	// in-process never pays for a body it does not send.
	Spec any
}

// Body encodes the cell's POST /simulate body; nil when the cell has no
// wire form or no content key. Only a content-addressed cell leaves the
// process: its key is what places it on a backend and memoizes the
// answer, so a key-less cell runs in-process like a bodiless one.
func (c Cell) Body() []byte {
	if c.Key == "" || c.Spec == nil {
		return nil
	}
	b, err := json.Marshal(c.Spec)
	if err != nil {
		return nil
	}
	return b
}

// Plan is a validated, ordered cell list: the single expansion result
// every executor consumes. Cell order is the submission order the stream
// indexes refer to — for the grid wire form, workload-major with cell
// (i, j) at index i*len(strategies)+j.
type Plan struct {
	cells []Cell
}

// NewPlan wraps an expanded cell list. The slice is owned by the plan
// from here on. Nothing is hashed here: only a checkpointed sweep reads
// the plan's Fingerprint.
func NewPlan(cells []Cell) *Plan { return &Plan{cells: cells} }

// Len returns the number of cells.
func (p *Plan) Len() int { return len(p.cells) }

// Cells returns the ordered cells. Callers must not mutate.
func (p *Plan) Cells() []Cell { return p.cells }

// Fingerprint is a content address for the whole plan: the hash of the
// ordered cell keys, computed on each call. A checkpoint journal binds
// to it, so a resumed sweep replays finished cells only when the plan is
// byte-for-byte the same grid in the same order.
func (p *Plan) Fingerprint() string {
	h := sha256.New()
	b := strconv.AppendInt([]byte("cells="), int64(len(p.cells)), 10)
	h.Write(b)
	for i, c := range p.cells {
		b = strconv.AppendInt(append(b[:0], '|'), int64(i), 10)
		if c.Key == "" {
			// Uncacheable cells have no stable identity; stamp the slot so
			// two plans differing only in uncacheable cells still collide
			// (they re-execute on resume regardless).
			b = append(b, ":!"...)
		} else {
			b = append(append(b, ':'), c.Key...)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
