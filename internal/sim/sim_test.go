package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeAdd(t *testing.T) {
	tm := Time(0).Add(5 * time.Second)
	if tm != Time(5e9) {
		t.Fatalf("Add: got %d, want 5e9", tm)
	}
	if got := tm.Sub(Time(2e9)); got != 3*time.Second {
		t.Fatalf("Sub: got %v, want 3s", got)
	}
	if s := tm.Seconds(); s != 5.0 {
		t.Fatalf("Seconds: got %v, want 5", s)
	}
}

func TestTimeAddSaturates(t *testing.T) {
	if got := MaxTime.Add(time.Second); got != MaxTime {
		t.Fatalf("saturation: got %d", got)
	}
}

func TestTimeAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative duration")
		}
	}()
	Time(0).Add(-time.Second)
}

func TestTimeString(t *testing.T) {
	if s := Time(1500e6).String(); s != "1.500s" {
		t.Fatalf("String: got %q", s)
	}
}

func TestEmptyRun(t *testing.T) {
	k := NewKernel()
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("empty run: %v", err)
	}
	if k.Now() != 0 {
		t.Fatalf("clock moved: %v", k.Now())
	}
}

func TestSingleProcSleep(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		woke = p.Now()
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	if woke != Time(3e9) {
		t.Fatalf("woke at %v, want 3s", woke)
	}
}

func TestAtCallbackOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(Time(2e9), func() { order = append(order, 2) })
	k.At(Time(1e9), func() { order = append(order, 1) })
	k.At(Time(3e9), func() { order = append(order, 3) })
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Time(1e9), func() { order = append(order, i) })
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated FIFO: %v", order)
		}
	}
}

func TestManyProcsInterleave(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(1 * time.Second)
		order = append(order, "a1")
		p.Sleep(2 * time.Second)
		order = append(order, "a3")
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(2 * time.Second)
		order = append(order, "b2")
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []string{"a1", "b2", "a3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntilLimit(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(Time(1e9), func() { fired++ })
	k.At(Time(5e9), func() { fired++ })
	if err := k.Run(Time(2e9)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != Time(2e9) {
		t.Fatalf("now = %v, want 2s", k.Now())
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	k.Spawn("stuck", func(p *Proc) { p.Park(nil) })
	err := k.Run(MaxTime)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck" {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Second)
		panic("kapow")
	})
	// A second proc that would otherwise run forever must be unwound.
	k.Spawn("victim", func(p *Proc) { p.Park(nil) })
	err := k.Run(MaxTime)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("expected PanicError, got %v", err)
	}
	if pe.Proc != "boom" || pe.Value != "kapow" {
		t.Fatalf("panic error = %+v", pe)
	}
}

func TestInterruptibleSleepInterrupted(t *testing.T) {
	k := NewKernel()
	var target *Proc
	var elapsed Duration
	var serr error
	target = k.Spawn("sleeper", func(p *Proc) {
		elapsed, serr = p.SleepInterruptible(10 * time.Second)
	})
	k.At(Time(4e9), func() {
		if !target.Interrupt() {
			t.Error("Interrupt returned false")
		}
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !errors.Is(serr, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", serr)
	}
	if elapsed != 4*time.Second {
		t.Fatalf("elapsed = %v, want 4s", elapsed)
	}
}

func TestInterruptibleSleepCompletes(t *testing.T) {
	k := NewKernel()
	var elapsed Duration
	var serr error
	k.Spawn("sleeper", func(p *Proc) {
		elapsed, serr = p.SleepInterruptible(2 * time.Second)
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	if serr != nil || elapsed != 2*time.Second {
		t.Fatalf("elapsed=%v err=%v", elapsed, serr)
	}
}

func TestInterruptNonInterruptibleIsNoop(t *testing.T) {
	k := NewKernel()
	var target *Proc
	target = k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
	})
	delivered := true
	k.At(Time(1e9), func() { delivered = target.Interrupt() })
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered {
		t.Fatal("Interrupt on plain Sleep should be a no-op")
	}

	// A park with nothing armed is never interruptible either: the
	// waiter stays parked until a Wake releases it.
	released := false
	waiter := k.Spawn("waiter", func(p *Proc) {
		p.Park(nil)
		released = true
	})
	k.At(Time(7e9), func() {
		if waiter.Interrupt() {
			t.Error("Interrupt on Park(nil) should be a no-op")
		}
		if waiter.pendingWake != nil {
			t.Error("Interrupt on Park(nil) scheduled a wake")
		}
		waiter.Wake()
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !released {
		t.Fatal("Wake did not release the waiter")
	}
}

func TestInterruptDoneProcIsNoop(t *testing.T) {
	k := NewKernel()
	target := k.Spawn("quick", func(p *Proc) {})
	k.At(Time(1e9), func() {
		if target.Interrupt() {
			t.Error("Interrupt on done proc returned true")
		}
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel()
	var childRan Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		p.Kernel().Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = c.Now()
		})
		p.Sleep(5 * time.Second)
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	if childRan != Time(2e9) {
		t.Fatalf("child ran at %v, want 2s", childRan)
	}
}

func TestSpawnAtFuture(t *testing.T) {
	k := NewKernel()
	var started Time
	k.SpawnAt(Time(7e9), "late", func(p *Proc) { started = p.Now() })
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	if started != Time(7e9) {
		t.Fatalf("started at %v", started)
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(Time(5e9), func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into past")
			}
		}()
		k.At(Time(1e9), func() {})
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	runOnce := func(seed int64) []string {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		var log []string
		for i := 0; i < 20; i++ {
			name := string(rune('a' + i%26))
			d := Duration(rng.Intn(1000)) * time.Millisecond
			k.Spawn(name, func(p *Proc) {
				p.Sleep(d)
				log = append(log, name+p.Now().String())
			})
		}
		if err := k.Run(MaxTime); err != nil {
			t.Fatalf("run: %v", err)
		}
		return log
	}
	a := runOnce(42)
	b := runOnce(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative delays, procs wake in sorted delay
// order with FIFO tie-break, and the final clock equals the max delay.
func TestPropertyWakeOrdering(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		if len(delaysRaw) > 50 {
			delaysRaw = delaysRaw[:50]
		}
		k := NewKernel()
		type wake struct {
			idx int
			at  Time
		}
		var wakes []wake
		var maxD Duration
		for i, raw := range delaysRaw {
			i := i
			d := Duration(raw) * time.Microsecond
			if d > maxD {
				maxD = d
			}
			k.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				wakes = append(wakes, wake{i, p.Now()})
			})
		}
		if err := k.Run(MaxTime); err != nil {
			return false
		}
		if k.Now() != Time(0).Add(maxD) {
			return false
		}
		for i := 1; i < len(wakes); i++ {
			if wakes[i].at < wakes[i-1].at {
				return false
			}
			if wakes[i].at == wakes[i-1].at && wakes[i].idx < wakes[i-1].idx {
				return false // FIFO tie-break violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved At callbacks and proc sleeps never observe the
// clock moving backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(seed int64) bool {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		last := Time(-1)
		ok := true
		check := func(now Time) {
			if now < last {
				ok = false
			}
			last = now
		}
		for i := 0; i < 30; i++ {
			at := Time(rng.Intn(1_000_000))
			k.At(at, func() { check(k.Now()) })
			d := Duration(rng.Intn(1_000_000))
			k.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				check(p.Now())
			})
		}
		if err := k.Run(MaxTime); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLimitMidSleepResumes(t *testing.T) {
	// A Run stopping at the limit parks sleeping procs (their coroutines
	// stay suspended in yield); a later Run must resume them on the same
	// timeline.
	k := NewKernel()
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	if err := k.Run(Time(2e9)); err != nil {
		t.Fatalf("bounded run: %v", err)
	}
	if k.Now() != Time(2e9) {
		t.Fatalf("now = %v, want 2s", k.Now())
	}
	if woke != 0 {
		t.Fatal("proc woke before its timer")
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if woke != Time(5e9) {
		t.Fatalf("woke at %v, want 5s", woke)
	}
}

func TestCallbackPanicPropagatesAndAborts(t *testing.T) {
	// A panic escaping an At callback must re-raise from Run with the
	// original value no matter which coroutine ran the dispatch loop, and
	// must not be misattributed to the proc whose coroutine was running
	// the loop — nor run that proc's deferred functions.
	k := NewKernel()
	deferRan := false
	k.Spawn("bystander", func(p *Proc) {
		defer func() { deferRan = true }()
		p.Sleep(time.Second) // ensures a proc coroutine holds the baton
		p.Park(nil)
	})
	k.At(Time(2e9), func() { panic("cb-boom") })
	func() {
		defer func() {
			if r := recover(); r != "cb-boom" {
				t.Fatalf("Run panic = %v, want cb-boom", r)
			}
		}()
		_ = k.Run(MaxTime)
		t.Fatal("Run returned instead of panicking")
	}()
	if n := liveProcs(k); n != 0 {
		t.Fatalf("%d procs still live after callback panic", n)
	}
	if !deferRan {
		t.Fatal("bystander's defer must run during the abort unwind")
	}
	if k.Err() != nil {
		t.Fatalf("callback panic must not be misattributed as a proc panic, got %v", k.Err())
	}
}

func TestKernelReusableAfterAbortKeepsCapacity(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *Proc) { p.Park(nil) })
	}
	k.At(Time(1e9), func() {}) // leaves events pending at abort time
	k.At(Time(2e9), func() {})
	k.Spawn("boom", func(p *Proc) { panic("x") })
	if err := k.Run(MaxTime); err == nil {
		t.Fatal("expected error")
	}
	if cap(k.events) == 0 {
		t.Fatal("abort discarded the event heap's backing array")
	}
	if len(k.free) == 0 {
		t.Fatal("abort discarded the event freelist")
	}
}

// liveProcs counts the procs in k's live list.
func liveProcs(k *Kernel) int {
	n := 0
	for p := k.head; p != nil; p = p.next {
		n++
	}
	return n
}

// idleCoros is the size of the process-wide idle coroutine pool.
func idleCoros() int {
	coroPool.Lock()
	defer coroPool.Unlock()
	return len(coroPool.idle)
}

func TestAbortLeavesNoGoroutines(t *testing.T) {
	// Every run, finished or aborted, must hand each proc's coroutine back
	// to the idle pool or stop it. 1,000 kernels of 8 procs, half of them
	// aborted by a proc panic, leave at most the pool's cap of parked
	// goroutines behind, and the pool never outgrows its cap.
	base := runtime.NumGoroutine() - idleCoros()
	for i := 0; i < 1000; i++ {
		k := NewKernel()
		var waiters []*Proc
		for j := 0; j < 7; j++ {
			waiters = append(waiters, k.Spawn("w", func(p *Proc) { p.Park(nil) }))
		}
		abort := i%2 == 0
		k.Spawn("last", func(p *Proc) {
			if abort {
				panic("x")
			}
			for _, w := range waiters {
				w.Wake()
			}
		})
		if err := k.Run(MaxTime); (err != nil) != abort {
			t.Fatalf("kernel %d: Run = %v, want an error: %v", i, err, abort)
		}
		if n := liveProcs(k); n != 0 {
			t.Fatalf("kernel %d: %d procs still live after Run", i, n)
		}
		if n := idleCoros(); n > coroPoolCap {
			t.Fatalf("kernel %d: %d idle coroutines, cap %d", i, n, coroPoolCap)
		}
		if g := runtime.NumGoroutine(); g > base+coroPoolCap {
			t.Fatalf("kernel %d: %d goroutines, want at most %d + %d idle", i, g, base, coroPoolCap)
		}
	}
}

func TestAbortUnwindsInSpawnOrder(t *testing.T) {
	// Procs blocked when another panics unwind in spawn order, the same
	// order on every run.
	for run := 0; run < 50; run++ {
		k := NewKernel()
		var order []int
		for i := 0; i < 8; i++ {
			k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				defer func() { order = append(order, i) }()
				p.Park(nil)
			})
		}
		k.Spawn("boom", func(p *Proc) { panic("x") })
		if err := k.Run(MaxTime); err == nil {
			t.Fatal("expected error")
		}
		if len(order) != 8 {
			t.Fatalf("run %d: %d defers ran, want 8", run, len(order))
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("run %d: defers ran in order %v, want spawn order", run, order)
			}
		}
	}
}

func TestWakeParkedProcRunsAtNowInSeqOrder(t *testing.T) {
	// A proc parked with nothing armed wakes at the current time, after
	// the events already scheduled for that instant and before those
	// scheduled after the Wake.
	k := NewKernel()
	var order []string
	waiter := k.Spawn("waiter", func(p *Proc) {
		p.Park(nil)
		order = append(order, fmt.Sprint("waiter@", p.Now()))
	})
	k.At(Time(2e9), func() {
		k.At(k.Now(), func() { order = append(order, "before") })
		if !waiter.Wake() {
			t.Error("Wake of a parked proc returned false")
		}
		if waiter.Wake() {
			t.Error("second Wake of an already woken proc returned true")
		}
		k.At(k.Now(), func() { order = append(order, "after") })
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[before waiter@2.000s after]" {
		t.Fatalf("order %s", got)
	}
}

func TestWakeLeavesOtherProcsAlone(t *testing.T) {
	// Wake returns false and schedules nothing for a proc that is
	// running, sleeping, parked behind an armed wake, finished, or not
	// yet started.
	k := NewKernel()
	check := func(what string, p *Proc) {
		t.Helper()
		n := len(k.events)
		if p.Wake() {
			t.Errorf("Wake of a %s proc returned true", what)
		}
		if len(k.events) != n {
			t.Errorf("Wake of a %s proc scheduled an event", what)
		}
	}
	var sleeper, armed, later *Proc
	done := k.Spawn("done", func(p *Proc) {})
	sleeper = k.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Second) })
	armed = k.Spawn("armed", func(p *Proc) {
		p.ArmSleep(time.Second)
		p.Park(nil)
	})
	later = k.SpawnAt(Time(5e9), "later", func(p *Proc) {})
	k.Spawn("checker", func(p *Proc) {
		check("running", p)
		p.Sleep(time.Millisecond)
		check("finished", done)
		check("sleeping", sleeper)
		check("armed", armed)
		check("unstarted", later)
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestWakeRunsGuard(t *testing.T) {
	// A guarded proc parked with nothing armed runs its guard at each
	// Wake, in the loop, and resumes only when the guard lets it go.
	k := NewKernel()
	var guardAt []Time
	var resumed Time
	g := guardFunc(func(p *Proc) bool {
		if k.running != p {
			t.Errorf("guard ran with %v as the running proc", k.running)
		}
		guardAt = append(guardAt, p.Now())
		return len(guardAt) == 2
	})
	waiter := k.Spawn("waiter", func(p *Proc) {
		p.Park(g)
		resumed = p.Now()
	})
	k.At(Time(1e9), func() { waiter.Wake() })
	k.At(Time(3e9), func() { waiter.Wake() })
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(guardAt) != "[1.000s 3.000s]" || resumed != Time(3e9) {
		t.Fatalf("guard ran at %v, proc resumed at %v; want [1s 3s] and 3s", guardAt, resumed)
	}
	if st := k.Stats(); st.Absorbed != 1 {
		t.Fatalf("stats %+v, want the first Wake absorbed", st)
	}
}
