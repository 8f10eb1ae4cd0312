package sweep

import (
	"context"
	"runtime"
	"sync"
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
	// placements finish. A panic out of OnRecord is recovered and the
	// sweep goes on. Nil disables streaming.
	OnRecord func(SweepRecord)
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
// OnRecord in completion order; cancellation follows the runner's
// job-boundary semantics (in-flight cells finish, queued cells resolve
// to canceled error records). Each cell is resolved by Place; a
// panicking OnRecord is recovered and does not stop the sweep.
func Execute(ctx context.Context, p *Plan, pl Placer, opts ExecOptions) ([]Outcome, Summary) {
	cells := p.Cells()
	outs := make([]Outcome, len(cells))
	sum := Summary{Jobs: len(cells)}

	var mu sync.Mutex // serializes OnRecord and the summary counters
	emit := func(i int, o Outcome) {
		// A panicking observer is contained here, on the caller's
		// goroutine for replayed cells and on a worker's for live ones,
		// so the sweep and every remaining cell go on. Deferred first, so
		// it runs after the unlock below: a panic that skipped the unlock
		// would deadlock every later emit.
		defer func() { _ = recover() }()
		mu.Lock()
		defer mu.Unlock()
		switch {
		case o.Err != nil:
			sum.Errors++
		case o.Cached:
			sum.Cached++
		}
		if opts.OnRecord != nil {
			opts.OnRecord(o.Record(i))
		}
	}

	// Replay finished cells from the journal first: their records stream
	// before any live cell's, with the cached flags of the original run,
	// so a resumed stream is a reordering of the uninterrupted one.
	todo := make([]int, 0, len(cells))
	for i := range cells {
		if o, ok := opts.Checkpoint.lookup(i); ok && cells[i].Key != "" {
			outs[i] = o
			sum.Resumed++
			emit(i, o)
			continue
		}
		todo = append(todo, i)
	}

	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(todo) {
		workers = len(todo)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				o := Place(ctx, pl, i, cells[i])
				outs[i] = o
				// Journal before emit: a record the client saw is always
				// resumable, even if the process dies between the two.
				if o.Err == nil && cells[i].Key != "" {
					opts.Checkpoint.append(i, o)
				}
				emit(i, o)
			}
		}()
	}
	for _, i := range todo {
		idx <- i
	}
	close(idx)
	wg.Wait()

	opts.Checkpoint.finish(sum.Errors == 0)
	return outs, sum
}

// Place resolves one cell on pl, the way Execute does for each cell: a
// placer that panics fails its cell instead of the whole sweep (the
// local runner contains simulation panics itself; this guards custom
// placers), and a result with a figure JSON cannot carry (a non-finite
// one) fails its cell with sim_failed instead of vanishing from the
// response, the stream and the journal.
func Place(ctx context.Context, pl Placer, i int, c Cell) (o Outcome) {
	defer func() {
		if v := recover(); v != nil {
			o = Outcome{Err: Errf(CodeSimFailed, "",
				"placer panicked: %v", v)}
		}
	}()
	o = pl.Place(ctx, i, c)
	var r ResultJSON
	switch {
	case o.Wire != nil:
		r = *o.Wire
	case o.Raw != nil:
		r = ToResultJSON(*o.Raw)
	}
	if err := r.check(); err != nil {
		return Outcome{Err: OutcomeError(err)}
	}
	return o
}
