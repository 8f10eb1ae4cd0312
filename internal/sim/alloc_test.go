package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestScheduleHotPathAllocFree pins the event fast path: once the
// freelist is warm, one schedule→pop→dispatch cycle performs zero heap
// allocations. Before the concrete sift-up/sift-down replaced
// container/heap, every event paid at least one `any`-boxing allocation
// on Push/Pop alone.
func TestScheduleHotPathAllocFree(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	at := Time(0)
	// Warm the freelist and the heap's backing array.
	for i := 0; i < 8; i++ {
		at = at.Add(time.Microsecond)
		k.At(at, fn)
	}
	if err := k.Run(at + 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		at = at.Add(time.Microsecond)
		k.At(at, fn)
		if err := k.Run(at + 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule/pop hot path allocates %.1f objects per event, want 0", allocs)
	}
}

// TestSignalHotPathAllocFree covers the proc wake path Queue.Signal uses:
// recycled events keep it allocation-free too.
func TestSignalHotPathAllocFree(t *testing.T) {
	k := NewKernel()
	q := k.NewQueue()
	const rounds = 2000
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			q.Wait(p)
		}
	})
	at := Time(0)
	for i := 0; i < rounds; i++ {
		at = at.Add(time.Microsecond)
		k.At(at, func() { q.Signal() })
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
}

// TestQueueWaitSignalAllocFree pins the queue wake path: once the waiter
// ring and the event freelist are warm, a full Wait→Signal→resume cycle
// performs zero heap allocations. The ring (head-index, power-of-two)
// replaced a shifting slice; this assertion keeps both the ring and the
// direct-handoff resume path allocation-free.
func TestQueueWaitSignalAllocFree(t *testing.T) {
	k := NewKernel()
	q := k.NewQueue()
	const warmup, runs = 8, 1000
	// AllocsPerRun invokes f runs+1 times (one warm-up call); the waiter
	// must consume exactly every signal and then exit so the final Run
	// can drain cleanly. A miscount fails loudly as a deadlock.
	const rounds = warmup + runs + 1
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			q.Wait(p)
		}
	})
	// A far-future sentinel keeps the deadlock detector quiet while the
	// waiter is parked between bounded Run calls.
	k.At(MaxTime-1, func() {})
	sig := func() { q.Signal() }
	at := Time(0)
	step := func() {
		at = at.Add(time.Microsecond)
		k.At(at, sig)
		if err := k.Run(at + 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Fatalf("Wait/Signal cycle allocates %.1f objects, want 0", allocs)
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSleepInterruptibleAllocFree pins the interruptible sleep path
// (schedule → yield → handoff → coroutine resume) at zero allocations.
func TestSleepInterruptibleAllocFree(t *testing.T) {
	k := NewKernel()
	const warmup, runs = 8, 1000
	const rounds = warmup + runs + 1
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			if _, err := p.SleepInterruptible(time.Microsecond); err != nil {
				t.Error(err)
				return
			}
		}
	})
	at := Time(0)
	step := func() {
		at = at.Add(time.Microsecond)
		if err := k.Run(at + 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Fatalf("SleepInterruptible cycle allocates %.1f objects, want 0", allocs)
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSelfResumeAllocFree pins the zero-switch fast path: a proc popping
// its own wake event and continuing must not touch the heap allocator at
// all. Measured inside the proc body so the whole run — including the
// inline dispatch loop — is covered.
func TestSelfResumeAllocFree(t *testing.T) {
	k := NewKernel()
	var mallocs uint64
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 64; i++ { // warm the freelist
			p.Sleep(time.Microsecond)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 1000; i++ {
			p.Sleep(time.Microsecond)
		}
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if mallocs != 0 {
		t.Fatalf("self-resume fast path allocated %d objects over 1000 sleeps, want 0", mallocs)
	}
}

// TestSpawnRunExitAllocsOnlyProcs pins the proc lifecycle: once the event
// freelist and the idle coroutine pool are warm, spawning 8 procs, running
// them to completion and letting them exit allocates the 8 Proc objects
// and nothing else — no coroutine, goroutine or live-set entry.
func TestSpawnRunExitAllocsOnlyProcs(t *testing.T) {
	const procs = 8
	k := NewKernel()
	body := func(p *Proc) { p.Sleep(time.Microsecond) }
	cycle := func() {
		for i := 0; i < procs; i++ {
			k.Spawn("p", body)
		}
		if err := k.Run(MaxTime); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != procs {
		t.Fatalf("Spawn→Run→exit of %d procs allocates %.1f objects, want %d", procs, allocs, procs)
	}
}

// TestFreelistRecycles asserts events actually round-trip through the
// pool instead of growing it without bound.
func TestFreelistRecycles(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	at := Time(0)
	for i := 0; i < 10000; i++ {
		at = at.Add(time.Microsecond)
		k.At(at, fn)
		if err := k.Run(at + 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(k.free); got > 8 {
		t.Fatalf("freelist grew to %d events for a 1-deep schedule", got)
	}
}

// BenchmarkKernelScheduleAndPop is the kernel micro-benchmark for the
// event fast path; run with -benchmem to see allocs/op (0 in steady
// state).
func BenchmarkKernelScheduleAndPop(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	fn := func() {}
	at := Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(time.Microsecond)
		k.At(at, fn)
		if err := k.Run(at + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelDeepHeap exercises sift-up/sift-down with a 1024-event
// backlog.
func BenchmarkKernelDeepHeap(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	fn := func() {}
	at := Time(0)
	const depth = 1024
	for i := 0; i < depth; i++ {
		at = at.Add(time.Microsecond)
		k.At(at, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(time.Microsecond)
		k.At(at, fn)
		if err := k.Run(k.now.Add(time.Microsecond) + 1); err != nil {
			b.Fatal(err)
		}
	}
}
