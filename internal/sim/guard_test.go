package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// guardFunc adapts a function to the Guard interface.
type guardFunc func(p *Proc) bool

func (f guardFunc) Wake(p *Proc) bool { return f(p) }

func TestGuardFalseKeepsProcParkedWithoutSwitch(t *testing.T) {
	// "parked" arms a wake every millisecond and parks with a guard that
	// re-arms four times before letting it go. "ticker" blocks every
	// 100 µs, so it is the proc running the loop when each of parked's
	// wakes pops: without the guard, every one of them would switch to
	// parked and back.
	k := NewKernel()
	var seen []Time
	var resumed Time
	g := guardFunc(func(p *Proc) bool {
		if k.running != p {
			t.Errorf("guard ran with %v as the running proc", k.running)
		}
		seen = append(seen, p.Now())
		if len(seen) < 5 {
			p.ArmSleep(time.Millisecond)
			return false
		}
		return true
	})
	k.Spawn("parked", func(p *Proc) {
		p.ArmSleep(time.Millisecond)
		p.Park(g)
		resumed = p.Now()
	})
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(100 * time.Microsecond)
		}
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	for i, at := range seen {
		if want := Time(0).Add(time.Duration(i+1) * time.Millisecond); at != want {
			t.Fatalf("guard wake %d at %v, want %v", i, at, want)
		}
	}
	if len(seen) != 5 || resumed != Time(5*time.Millisecond) {
		t.Fatalf("guard ran %d times, proc resumed at %v; want 5 and 5ms", len(seen), resumed)
	}
	// Four handoffs: the driver starts parked, parked's loop starts
	// ticker, ticker's loop resumes parked at 5 ms, and the driver
	// resumes ticker once parked has exited. The four absorbed wakes
	// cost none.
	st := k.Stats()
	if st.Handoffs != 4 || st.Absorbed != 4 {
		t.Fatalf("stats %+v, want 4 handoffs and 4 absorbed wakes", st)
	}
	if want := 2 + 5 + 100; st.Events != want {
		t.Fatalf("%d events dispatched, want %d", st.Events, want)
	}
}

func TestGuardSeesInterruptOfArmedSleep(t *testing.T) {
	// The guard drives an interruptible 10 ms sleep the way a compute
	// phase does: an Interrupt at 3 ms reaches it, and the guard re-arms
	// the rest.
	k := NewKernel()
	type wake struct {
		at          Time
		interrupted bool
		slept       Duration
	}
	var wakes []wake
	var target *Proc
	left := 10 * time.Millisecond
	g := guardFunc(func(p *Proc) bool {
		wakes = append(wakes, wake{p.Now(), p.Interrupted(), p.Slept()})
		if !p.Interrupted() {
			return true
		}
		left -= p.Slept()
		p.ArmSleepInterruptible(left)
		return false
	})
	target = k.Spawn("target", func(p *Proc) {
		p.ArmSleepInterruptible(left)
		p.Park(g)
		if p.Now() != Time(10*time.Millisecond) {
			t.Errorf("resumed at %v, want 10ms", p.Now())
		}
	})
	k.Spawn("interrupter", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		if !target.Interrupt() {
			t.Error("Interrupt did not reach the armed interruptible sleep")
		}
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	want := []wake{
		{Time(3 * time.Millisecond), true, 3 * time.Millisecond},
		{Time(10 * time.Millisecond), false, 7 * time.Millisecond},
	}
	if len(wakes) != len(want) || wakes[0] != want[0] || wakes[1] != want[1] {
		t.Fatalf("guard saw %+v, want %+v", wakes, want)
	}
}

func TestInterruptSkipsArmedPlainSleep(t *testing.T) {
	k := NewKernel()
	target := k.Spawn("target", func(p *Proc) {
		p.ArmSleep(time.Millisecond)
		p.Park(guardFunc(func(p *Proc) bool {
			if p.Interrupted() {
				t.Error("a plain armed sleep was interrupted")
			}
			return true
		}))
	})
	k.Spawn("interrupter", func(p *Proc) {
		if target.Interrupt() {
			t.Error("Interrupt delivered to a non-interruptible armed sleep")
		}
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestAbortUnwindsGuardParkedProc(t *testing.T) {
	// A proc parked with a guard when another panics is unwound in its
	// own body, its guard never runs, and its coroutine goes back to the
	// idle pool.
	k := NewKernel()
	unwound := false
	k.Spawn("parked", func(p *Proc) {
		defer func() { unwound = true }()
		p.ArmSleep(time.Second)
		p.Park(guardFunc(func(*Proc) bool {
			t.Error("guard ran for an aborted proc")
			return true
		}))
		t.Error("Park returned in an aborted proc")
	})
	k.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	idle := idleCoros()
	err := k.Run(MaxTime)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Proc != "boom" {
		t.Fatalf("Run = %v, want boom's PanicError", err)
	}
	if !unwound {
		t.Fatal("the parked proc's defers did not run")
	}
	if n := liveProcs(k); n != 0 {
		t.Fatalf("%d procs live after the abort", n)
	}
	if got := idleCoros(); idle+2 <= coroPoolCap && got != idle+2 {
		t.Fatalf("idle coroutines %d → %d, want both procs' coroutines back", idle, got)
	}
}

func TestParkWithoutArmedWakeDeadlocks(t *testing.T) {
	k := NewKernel()
	k.Spawn("stuck", func(p *Proc) {
		p.Park(guardFunc(func(*Proc) bool {
			t.Error("guard ran with no wake armed")
			return true
		}))
	})
	k.Spawn("done", func(p *Proc) { p.Sleep(time.Millisecond) })
	err := k.Run(MaxTime)
	var de *DeadlockError
	if !errors.As(err, &de) || len(de.Blocked) != 1 || de.Blocked[0] != "stuck" {
		t.Fatalf("Run = %v, want a deadlock naming stuck", err)
	}
}

func TestGuardedParkAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	// A proc parked for a run of guard-absorbed wakes, then resumed,
	// touches the allocator nowhere: the guard is an interface value held
	// on the Proc and every wake comes from the event freelist.
	k := NewKernel()
	n := 0
	g := guardFunc(func(p *Proc) bool {
		if n++; n%16 != 0 {
			p.ArmSleep(time.Microsecond)
			return false
		}
		return true
	})
	var mallocs uint64
	k.Spawn("parked", func(p *Proc) {
		park := func() {
			p.ArmSleep(time.Microsecond)
			p.Park(g)
		}
		for i := 0; i < 8; i++ {
			park()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 100; i++ {
			park()
		}
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if mallocs != 0 {
		t.Fatalf("guarded parking allocated %d objects over 1600 wakes, want 0", mallocs)
	}
}
