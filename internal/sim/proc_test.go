package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines waits for the goroutine count to fall back to want: a
// Proc's goroutine hands the loop back before it has fully exited.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines live, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestProcSleepSwitches: a Proc that sleeps N times under Run wakes on
// its own events while it holds the loop, so it costs two goroutine
// switches (its start and its finish) whatever N is.
func TestProcSleepSwitches(t *testing.T) {
	for _, n := range []int{1, 10, 1000} {
		k := New(1)
		k.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		k.Run()
		if got := k.Stats().Switches; got != 2 {
			t.Fatalf("%d sleeps cost %d switches, want 2", n, got)
		}
	}
}

// TestGateHandoffSwitches: two Procs passing control back and forth
// through a pair of gates cost exactly one switch per handoff, because
// the parked Proc runs the loop that wakes the other.
func TestGateHandoffSwitches(t *testing.T) {
	const rounds = 500
	k := New(1)
	var ga, gb Gate
	turn := 0
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			turn = 1
			gb.Signal()
			for turn == 1 {
				ga.Wait(p)
			}
		}
	})
	k.Spawn("b", func(p *Proc) {
		for {
			for turn == 0 {
				gb.Wait(p)
			}
			turn = 0
			ga.Signal()
		}
	})
	defer k.Stop()
	k.Run()
	// The caller starts a (1); a's loop starts b (1); 2·rounds − 1
	// handoffs between them follow; a's finish ends the run (1).
	if got, want := k.Stats().Switches, uint64(2*rounds+2); got != want {
		t.Fatalf("%d gate round trips cost %d switches, want %d", rounds, got, want)
	}
}

// TestStepSwitches: outside a run there is no window for a parked Proc to
// run the loop in, so a bare Step that wakes a Proc keeps the two-switch
// round trip.
func TestStepSwitches(t *testing.T) {
	k := New(1)
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	defer k.Stop()
	const steps = 100
	for i := 0; i < steps; i++ {
		if !k.Step() {
			t.Fatal("Step found no event")
		}
	}
	if got := k.Stats().Switches; got != 2*steps {
		t.Fatalf("%d bare Steps cost %d switches, want %d", steps, got, 2*steps)
	}
}

// TestProcLoopPanicReraised: an event that panics while a Proc's
// goroutine holds the loop makes RunUntil panic on the caller's goroutine
// with the same value, and a later Stop leaves no goroutine behind.
func TestProcLoopPanicReraised(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("boom")
	k := New(1)
	var g Gate
	k.Spawn("waiter", func(p *Proc) { g.Wait(p) })
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	k.At(Time(5*Microsecond), func() {
		if k.cur == nil {
			t.Error("the panicking event ran on the caller's goroutine")
		}
		panic(boom)
	})
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("RunUntil panicked with %v, want %v", r, boom)
			}
		}()
		k.RunUntil(Time(time.Millisecond))
	}()
	k.Stop()
	waitGoroutines(t, base)
}

// TestProcBodyPanicReraised: a panic in a Proc's body is re-raised by the
// run call, and the Procs left parked unwind on Stop.
func TestProcBodyPanicReraised(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("body")
	k := New(1)
	var g Gate
	k.Spawn("waiter", func(p *Proc) { g.Wait(p) })
	k.Spawn("faulty", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic(boom)
	})
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("Run panicked with %v, want %v", r, boom)
			}
		}()
		k.Run()
	}()
	k.Stop()
	waitGoroutines(t, base)
}

// TestStopReraisesUnwindPanic: a panic raised by deferred code while Stop
// unwinds a Proc is re-raised by Stop, and the other Procs still unwind.
func TestStopReraisesUnwindPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("unwind")
	k := New(1)
	var g Gate
	k.Spawn("faulty", func(p *Proc) {
		defer panic(boom)
		g.Wait(p)
	})
	w := k.Spawn("waiter", func(p *Proc) { g.Wait(p) })
	k.Run()
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("Stop panicked with %v, want %v", r, boom)
			}
		}()
		k.Stop()
	}()
	if !w.Done() {
		t.Fatal("a Proc after the faulty one was not unwound")
	}
	waitGoroutines(t, base)
}

// TestStopSoonOnProcLoop: a stop scheduled as an event (the cluster's
// StopSoon) that runs while a Proc's goroutine holds the loop leaves
// every Proc Done by the time Run returns.
func TestStopSoonOnProcLoop(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(1)
	var g Gate
	var procs []*Proc
	for i := 0; i < 3; i++ {
		procs = append(procs, k.Spawn("waiter", func(p *Proc) { g.Wait(p) }))
	}
	procs = append(procs, k.Spawn("sleeper", func(p *Proc) {
		for i := 0; ; i++ {
			if i == 10 {
				p.Kernel().Immediately(func() {
					if k.cur == nil {
						t.Error("the stop event ran on the caller's goroutine")
					}
					k.Stop()
				})
			}
			p.Sleep(time.Microsecond)
		}
	}))
	k.Run()
	for _, p := range procs {
		if !p.Done() {
			t.Fatalf("proc %s not Done after a stop on a Proc's loop", p.Name())
		}
	}
	if k.procs.head != nil {
		t.Fatal("stopped kernel still lists live procs")
	}
	waitGoroutines(t, base)
}

// TestStopFromProcBody: a Proc that stops its own kernel and then sleeps
// unwinds at once, and the other Procs unwind too.
func TestStopFromProcBody(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(1)
	var g Gate
	w := k.Spawn("waiter", func(p *Proc) { g.Wait(p) })
	reached := false
	s := k.Spawn("stopper", func(p *Proc) {
		p.Sleep(time.Microsecond)
		k.Stop()
		p.Sleep(time.Microsecond)
		reached = true
	})
	k.Run()
	if reached {
		t.Fatal("a Proc slept past the stop of its kernel")
	}
	if !w.Done() || !s.Done() || k.procs.head != nil {
		t.Fatalf("after Stop: waiter done=%v stopper done=%v, procs listed=%v",
			w.Done(), s.Done(), k.procs.head != nil)
	}
	waitGoroutines(t, base)
}

// TestSpawnAfterStop: a Proc spawned on a stopped kernel is already Done
// and starts no goroutine; one spawned before the stop but never started
// ends without one.
func TestSpawnAfterStop(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(1)
	ran := false
	early := k.Spawn("early", func(*Proc) { ran = true })
	k.Stop()
	late := k.Spawn("late", func(*Proc) { ran = true })
	k.Run()
	if ran || !early.Done() || !late.Done() || k.procs.head != nil {
		t.Fatalf("ran=%v early done=%v late done=%v procs listed=%v",
			ran, early.Done(), late.Done(), k.procs.head != nil)
	}
	waitGoroutines(t, base)
}

// TestStopKillsInSpawnOrder: Stop unwinds parked Procs in spawn order,
// whatever order they parked in, so deferred code in their bodies runs in
// a deterministic order.
func TestStopKillsInSpawnOrder(t *testing.T) {
	const n = 8
	k := New(1)
	var g Gate
	var order []int
	for i := 0; i < n; i++ {
		i := i
		k.Spawn("waiter", func(p *Proc) {
			defer func() { order = append(order, i) }()
			p.Sleep(time.Duration(n-i) * time.Microsecond) // park in reverse order
			g.Wait(p)
		})
	}
	k.Run()
	k.Stop()
	if len(order) != n {
		t.Fatalf("%d procs unwound, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("unwind order %v, want spawn order", order)
		}
	}
}

// TestProcRunBeforeAcrossGoroutines: RunBefore windows are called
// alternately from two goroutines while a Proc holds the loop across
// windows, as the parallel engine's workers steal a shard's windows.
func TestProcRunBeforeAcrossGoroutines(t *testing.T) {
	const windows = 200
	k := New(1)
	var wakes []Time
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(3 * time.Microsecond)
			wakes = append(wakes, p.Now())
		}
	})
	defer k.Stop()
	var turns [2]chan Time
	done := make(chan struct{})
	for w := range turns {
		turns[w] = make(chan Time)
		go func(in chan Time) {
			for end := range in {
				k.RunBefore(end)
				done <- struct{}{}
			}
		}(turns[w])
	}
	for i := 1; i <= windows; i++ {
		turns[i%2] <- Time(i) * Time(10*Microsecond)
		<-done
	}
	for _, c := range turns {
		close(c)
	}
	if got, want := len(wakes), windows*10/3; got != want {
		t.Fatalf("%d wake-ups over %d windows, want %d", got, windows, want)
	}
	for i, at := range wakes {
		if want := Time(i+1) * Time(3*Microsecond); at != want {
			t.Fatalf("wake-up %d at %v, want %v", i, at, want)
		}
	}
	if k.Now() != Time(windows)*Time(10*Microsecond) {
		t.Fatalf("clock at %v after the last window", k.Now())
	}
}

// TestProcCarriersReused: 1,000 short-lived Procs started one after
// another by a long-lived Proc (half of them directly, on the carrier of
// the Proc that just ended) run on carriers the kernel reuses: the
// goroutine count, sampled in every body, never passes base +
// carrierPool + 2, and the bodies see at most carrierPool + 1 carriers.
// Eight Procs that then run at once leave at most carrierPool idle
// carriers, and Stop brings the count back to base.
func TestProcCarriersReused(t *testing.T) {
	const rounds = 500
	base := runtime.NumGoroutine()
	k := New(1)
	var done, never Gate
	carriers := map[chan struct{}]bool{}
	peak := 0
	sample := func(p *Proc) {
		carriers[p.resume] = true
		peak = max(peak, runtime.NumGoroutine())
	}
	started := 0
	k.Spawn("parent", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			sample(p)
			k.Spawn("quick", func(q *Proc) { started++; sample(q) })
			k.Spawn("sleeper", func(q *Proc) {
				started++
				sample(q)
				q.Sleep(time.Microsecond)
				done.Signal()
			})
			done.Wait(p)
		}
		for i := 0; i < 8; i++ {
			k.Spawn("overlapping", func(q *Proc) { started++; q.Sleep(time.Duration(i+1) * time.Microsecond) })
		}
		never.Wait(p)
	})
	k.Run()
	if started != 2*rounds+8 {
		t.Fatalf("%d Procs ran, want %d", started, 2*rounds+8)
	}
	// Eight Procs that overlapped have ended; at most carrierPool of their
	// carriers wait, beside the parent's.
	waitGoroutines(t, base+1+carrierPool)
	if limit := base + carrierPool + 2; peak > limit {
		t.Fatalf("%d goroutines live inside the run, want at most %d", peak, limit)
	}
	if len(carriers) > carrierPool+1 {
		t.Fatalf("%d Procs ran on %d carriers, want at most %d", 2*rounds+1, len(carriers), carrierPool+1)
	}
	k.Stop()
	waitGoroutines(t, base)
}

// TestProcCarriersEndWithoutStop: a run, or a series of Steps, whose
// Procs all finish leaves no carrier behind, with no Stop.
func TestProcCarriersEndWithoutStop(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(1)
	for i := 0; i < 8; i++ {
		k.Spawn("sleeper", func(p *Proc) {
			for j := 0; j <= i; j++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	k.Run()
	waitGoroutines(t, base)

	k = New(1)
	for i := 0; i < 3; i++ {
		k.Spawn("stepped", func(p *Proc) { p.Sleep(time.Duration(i+1) * time.Microsecond) })
	}
	for k.Step() {
	}
	waitGoroutines(t, base)
}

// TestProcGoexitHandsLoopOn: a body that calls runtime.Goexit (as
// t.FailNow does) hands the loop on as its carrier ends, whether that
// carrier came from the pool or started it directly: the run goes on, a
// Proc spawned after it runs, and no goroutine is left behind. A dead
// carrier left in the pool would hang the next start, so the runs go
// under a deadline.
func TestProcGoexitHandsLoopOn(t *testing.T) {
	const rounds = 6
	base := runtime.NumGoroutine()
	finished := make(chan int)
	go func() {
		k := New(1)
		var done Gate
		ran := 0
		k.Spawn("parent", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				k.Spawn("quick", func(*Proc) { ran++ })
				k.Spawn("child", func(q *Proc) {
					ran++
					q.Sleep(time.Microsecond)
					done.Signal()
					if i%2 == 1 {
						runtime.Goexit()
					}
				})
				done.Wait(p)
			}
		})
		k.Run()
		k.Spawn("after", func(p *Proc) {
			p.Sleep(time.Microsecond)
			ran++
		})
		k.Run()
		finished <- ran
	}()
	select {
	case ran := <-finished:
		if want := 2*rounds + 1; ran != want {
			t.Fatalf("%d bodies ran, want %d", ran, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a run hung after a Proc's Goexit")
	}
	waitGoroutines(t, base)
}

// TestProcPanicOnReusedCarrierReraised: a panic in a body that runs on the
// carrier of a Proc that finished before it, taken from the pool or
// started directly, is re-raised by the run call with the same value, and
// Stop leaves no goroutine behind.
func TestProcPanicOnReusedCarrierReraised(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("reused")
	for _, direct := range []bool{false, true} {
		k := New(1)
		var g Gate
		var first chan struct{}
		k.Spawn("keeper", func(p *Proc) { g.Wait(p) })
		k.Spawn("first", func(p *Proc) { first = p.resume })
		faulty := func(p *Proc) {
			if p.resume != first {
				t.Errorf("direct=%v: the faulty Proc runs on a fresh carrier", direct)
			}
			panic(boom)
		}
		if direct {
			k.Spawn("faulty", faulty)
		} else {
			k.Run() // first's carrier waits in the pool
			k.Spawn("faulty", faulty)
		}
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Fatalf("direct=%v: Run panicked with %v, want %v", direct, r, boom)
				}
			}()
			k.Run()
		}()
		k.Stop()
	}
	waitGoroutines(t, base)
}
