package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ExecOptions configures one Execute call.
type ExecOptions struct {
	// Parallel bounds concurrently in-flight Place calls; <= 0 selects
	// GOMAXPROCS. (dvsd passes its runner's worker count, the gateway its
	// per-sweep fanout.)
	Parallel int
	// OnRecord observes each cell's stream record as it completes.
	// Calls are serialized (never concurrent) and arrive in completion
	// order — replayed checkpoint cells first, then live cells as their
	// placements finish. Records go out in batches: every record that is
	// ready when the stream is free, then one Flush, made on Execute's
	// goroutine. There is no timer and no size threshold; a record waits
	// only while the batch before it is written, so a lone cell's record
	// is flushed as soon as it is written. A panic out of OnRecord is
	// recovered and the sweep goes on. Nil disables streaming.
	OnRecord func(SweepRecord)
	// Flush ends each batch of OnRecord calls; nil means nothing to flush.
	Flush func()
	// Checkpoint journals completed cells and replays the ones a prior
	// interrupted run already finished. Nil disables checkpointing.
	// Execute finishes the journal: removed on a fully successful sweep,
	// kept (and closed) when any cell failed so the next run resumes.
	Checkpoint *Checkpoint
}

// Summary counts one executed sweep.
type Summary struct {
	Jobs   int // cells in the plan
	Cached int // served from a memo cache (local or a backend's)
	Errors int // failed cells (error records in the stream)
	// Resumed counts cells replayed from the checkpoint journal instead
	// of executed. It is reported out-of-band (metrics, logs) — never in
	// the stream trailer, whose bytes must match an uninterrupted run.
	Resumed int
}

// Execute runs every cell of the plan through the placer and returns the
// outcomes in submission order plus the sweep's summary. Cells stream to
// OnRecord in completion order, with one Flush per batch of records that
// are ready when the stream is free: a record waits only while the batch
// before it is written, never for a timer or a count. Cancellation
// follows the runner's job-boundary semantics (in-flight cells finish,
// queued cells resolve to canceled error records). Each cell is resolved
// by Place; a panicking OnRecord is recovered and does not stop the
// sweep.
func Execute(ctx context.Context, p *Plan, pl Placer, opts ExecOptions) ([]Outcome, Summary) {
	cells := p.Cells()
	x := &execution{opts: opts, outs: make([]Outcome, len(cells)), sum: Summary{Jobs: len(cells)}}

	// Replay finished cells from the journal first: their records stream
	// before any live cell's, with the cached flags of the original run,
	// so a resumed stream is a reordering of the uninterrupted one.
	todo := make([]int, 0, len(cells))
	for i := range cells {
		if o, ok := opts.Checkpoint.lookup(i); ok && cells[i].Key != "" {
			x.outs[i] = o
			x.sum.Resumed++
			x.emit(i)
			continue
		}
		todo = append(todo, i)
	}
	if x.sum.Resumed > 0 {
		x.flush()
	}
	x.ready = make([]int, 0, len(todo))

	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(todo) {
		workers = len(todo)
	}
	// At most one batch is handed over at a time: the stream stays taken
	// until stream() has flushed it and written everything after it.
	x.handoff = make(chan struct{}, 1)
	x.running.Store(int32(workers))
	for wk := 0; wk < workers; wk++ {
		go func() {
			defer func() {
				if x.running.Add(-1) == 0 {
					close(x.handoff)
				}
			}()
			for {
				k := int(x.next.Add(1)) - 1
				if k >= len(todo) {
					return
				}
				i := todo[k]
				o := Place(ctx, pl, i, cells[i])
				x.outs[i] = o
				// Journal before emit: a record the client saw is always
				// resumable, even if the process dies between the two.
				if o.Err == nil && cells[i].Key != "" {
					opts.Checkpoint.append(i, o)
				}
				x.commit(i)
			}
		}()
	}
	if workers > 0 {
		x.stream() // until the last worker closes handoff
	}

	opts.Checkpoint.finish(x.sum.Errors == 0)
	return x.outs, x.sum
}

// execution is one Execute call's state shared with its workers.
//
// Live records are group-committed. A worker whose cell is done queues it
// in ready. If the stream is free, the worker takes it, writes every
// queued record (its own included) and hands the stream to Execute's
// goroutine, which flushes, then writes and flushes whatever was queued
// meanwhile until nothing is left. So a worker never waits on a flush,
// and records that finish during one leave together in the next. A
// record that finds the stream free reaches OnRecord before its worker
// starts another cell, so an observer that cancels on the first record
// of a serial sweep stops every cell after it.
type execution struct {
	opts    ExecOptions
	outs    []Outcome
	sum     Summary       // written only by the stream's holder
	next    atomic.Int64  // cursor into the cells to place
	running atomic.Int32  // workers not yet done; the last closes handoff
	handoff chan struct{} // a worker passes the taken stream to stream()

	mu sync.Mutex
	// ready holds the completed live cells in completion order. It is
	// sized for every cell, so an append never moves a batch being written.
	ready   []int
	written int  // ready[:written] are streamed
	taken   bool // a worker or stream() holds the stream
}

// commit queues live cell i and, if the stream is free, writes the queue
// and hands the stream on for flushing.
func (x *execution) commit(i int) {
	x.mu.Lock()
	x.ready = append(x.ready, i)
	if x.taken {
		x.mu.Unlock()
		return
	}
	x.taken = true
	x.emitReady()
	x.handoff <- struct{}{}
}

// stream runs on Execute's goroutine until the last worker is done. For
// each handed-over stream it flushes, then writes and flushes every batch
// queued meanwhile, and frees the stream once the queue is empty.
func (x *execution) stream() {
	for range x.handoff {
		x.flush()
		x.mu.Lock()
		for x.written < len(x.ready) {
			x.emitReady()
			x.flush()
			x.mu.Lock()
		}
		x.taken = false
		x.mu.Unlock()
	}
}

// emitReady streams the queued records. It is called with mu held by the
// stream's holder and returns with mu released.
func (x *execution) emitReady() {
	batch := x.ready[x.written:]
	x.written = len(x.ready)
	x.mu.Unlock()
	for _, j := range batch {
		x.emit(j)
	}
}

// emit counts cell i in the summary and streams its record. A panicking
// observer is contained here, so the sweep and every remaining cell go on.
func (x *execution) emit(i int) {
	defer func() { _ = recover() }()
	o := x.outs[i]
	switch {
	case o.Err != nil:
		x.sum.Errors++
	case o.Cached:
		x.sum.Cached++
	}
	if x.opts.OnRecord != nil {
		x.opts.OnRecord(o.Record(i))
	}
}

func (x *execution) flush() {
	if x.opts.Flush != nil {
		x.opts.Flush()
	}
}

// Place resolves one cell on pl, the way Execute does for each cell: a
// placer that panics fails its cell instead of the whole sweep (the
// local runner contains simulation panics itself; this guards custom
// placers), and a wire result with a figure JSON cannot carry (a
// non-finite one) fails its cell with sim_failed instead of vanishing
// from the response, the stream and the journal.
func Place(ctx context.Context, pl Placer, i int, c Cell) (o Outcome) {
	defer func() {
		if v := recover(); v != nil {
			o = Outcome{Err: Errf(CodeSimFailed, "",
				"placer panicked: %v", v)}
		}
	}()
	o = pl.Place(ctx, i, c)
	if o.Wire != nil {
		if err := o.Wire.check(); err != nil {
			return Outcome{Err: OutcomeError(err)}
		}
	}
	return o
}
