package sim

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelOrdering(t *testing.T) {
	k := New(1)
	var order []int
	k.After(30*Microsecond, func() { order = append(order, 3) })
	k.After(10*Microsecond, func() { order = append(order, 1) })
	k.After(20*Microsecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events executed out of order: %v", order)
	}
	if k.Now() != Time(30*Microsecond) {
		t.Fatalf("final time = %v, want 30µs", k.Now())
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(5*Microsecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := New(1)
	var hits []string
	k.After(time.Microsecond, func() {
		hits = append(hits, "a")
		k.After(time.Microsecond, func() { hits = append(hits, "c") })
		k.Immediately(func() { hits = append(hits, "b") })
	})
	k.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(hits) || hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := New(1)
	k.After(time.Millisecond, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(Time(time.Microsecond), func() {})
}

func TestTimerCancel(t *testing.T) {
	k := New(1)
	fired := false
	tm := k.After(time.Millisecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should fail")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	k := New(1)
	tm := k.After(time.Microsecond, func() {})
	k.Run()
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Cancel() {
		t.Fatal("cancel after fire should report false")
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	var fired []int
	k.After(10*Microsecond, func() { fired = append(fired, 1) })
	k.After(20*Microsecond, func() { fired = append(fired, 2) })
	k.After(30*Microsecond, func() { fired = append(fired, 3) })
	k.RunUntil(Time(20 * Microsecond))
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 10µs and 20µs", fired)
	}
	if k.Now() != Time(20*Microsecond) {
		t.Fatalf("now = %v, want 20µs", k.Now())
	}
	k.RunFor(10 * Microsecond)
	if len(fired) != 3 {
		t.Fatalf("fired = %v after RunFor, want 3 events", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := New(1)
	k.RunUntil(Time(time.Second))
	if k.Now() != Time(time.Second) {
		t.Fatalf("now = %v, want 1s", k.Now())
	}
}

func TestProcSleep(t *testing.T) {
	k := New(1)
	var wake Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(15 * Microsecond)
		wake = p.Now()
	})
	k.Run()
	if wake != Time(15*Microsecond) {
		t.Fatalf("woke at %v, want 15µs", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := New(1)
	var trace []string
	k.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10 * Microsecond)
		trace = append(trace, "a1")
		p.Sleep(20 * Microsecond)
		trace = append(trace, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15 * Microsecond)
		trace = append(trace, "b1")
	})
	k.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestGateSignalBroadcast(t *testing.T) {
	k := New(1)
	var g Gate
	woken := make(map[string]Time)
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			g.Wait(p)
			woken[name] = p.Now()
		})
	}
	k.Spawn("signaler", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		g.Signal() // wakes w1 only
		p.Sleep(10 * Microsecond)
		g.Broadcast() // wakes w2, w3
	})
	k.Run()
	if woken["w1"] != Time(10*Microsecond) {
		t.Fatalf("w1 woke at %v, want 10µs", woken["w1"])
	}
	if woken["w2"] != Time(20*Microsecond) || woken["w3"] != Time(20*Microsecond) {
		t.Fatalf("w2/w3 woke at %v/%v, want 20µs", woken["w2"], woken["w3"])
	}
}

func TestGateWaitTimeout(t *testing.T) {
	k := New(1)
	var g Gate
	var gotSignal, gotTimeout bool
	k.Spawn("timeouter", func(p *Proc) {
		gotTimeout = !g.WaitTimeout(p, 5*Microsecond)
	})
	k.Spawn("signaled", func(p *Proc) {
		p.Sleep(6 * Microsecond) // waits after the first proc timed out
		gotSignal = g.WaitTimeout(p, time.Second)
	})
	k.Spawn("signaler", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		g.Signal()
	})
	k.Run()
	if !gotTimeout {
		t.Fatal("first waiter should have timed out")
	}
	if !gotSignal {
		t.Fatal("second waiter should have been signaled")
	}
}

func TestGateSignalTimeoutRace(t *testing.T) {
	// Signal scheduled at exactly the timeout instant must not double-wake.
	k := New(1)
	var g Gate
	wokenCount := 0
	k.Spawn("racer", func(p *Proc) {
		g.WaitTimeout(p, 10*Microsecond)
		wokenCount++
		p.Sleep(time.Millisecond)
	})
	k.After(10*Microsecond, func() { g.Signal() })
	k.Run()
	if wokenCount != 1 {
		t.Fatalf("woken %d times, want exactly 1", wokenCount)
	}
}

func TestMailbox(t *testing.T) {
	k := New(1)
	var mb Mailbox[int]
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Get(p))
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Microsecond)
			mb.Put(i)
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got %v, want [0 1 2]", got)
	}
}

func TestMailboxGetTimeout(t *testing.T) {
	k := New(1)
	var mb Mailbox[string]
	var ok1, ok2 bool
	k.Spawn("consumer", func(p *Proc) {
		_, ok1 = mb.GetTimeout(p, 5*Microsecond)
		_, ok2 = mb.GetTimeout(p, 20*Microsecond)
	})
	k.After(10*Microsecond, func() { mb.Put("late") })
	k.Run()
	if ok1 {
		t.Fatal("first receive should time out (message arrives at 10µs)")
	}
	if !ok2 {
		t.Fatal("second receive should get the message")
	}
}

func TestKernelStopKillsParkedProcs(t *testing.T) {
	k := New(1)
	var g Gate
	reached := false
	k.Spawn("stuck", func(p *Proc) {
		g.Wait(p) // never signaled
		reached = true
	})
	k.RunFor(time.Millisecond)
	k.Stop()
	if reached {
		t.Fatal("proc body continued past a never-signaled gate")
	}
	if k.Step() {
		t.Fatal("stopped kernel executed an event")
	}
}

func TestResourceFIFOAndTiming(t *testing.T) {
	k := New(1)
	r := NewResource(k, "cpu")
	var done []Time
	record := func() { done = append(done, k.Now()) }
	r.Submit(10*Microsecond, record)
	r.Submit(5*Microsecond, record)
	r.Submit(1*Microsecond, record)
	k.Run()
	want := []Time{Time(10 * Microsecond), Time(15 * Microsecond), Time(16 * Microsecond)}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion times %v, want %v", done, want)
		}
	}
	if r.Served() != 3 {
		t.Fatalf("served = %d, want 3", r.Served())
	}
	if r.BusyTime() != 16*Microsecond {
		t.Fatalf("busy time = %v, want 16µs", r.BusyTime())
	}
}

func TestResourceSubmitBytes(t *testing.T) {
	k := New(1)
	r := NewResource(k, "dma")
	var at Time
	// 1000 bytes at 1e9 B/s = 1µs, plus 1µs setup.
	r.SubmitBytes(1000, 1e9, time.Microsecond, func() { at = k.Now() })
	k.Run()
	if at != Time(2*Microsecond) {
		t.Fatalf("completed at %v, want 2µs", at)
	}
}

func TestResourceUtilization(t *testing.T) {
	k := New(1)
	r := NewResource(k, "cpu")
	r.Submit(25*Microsecond, nil)
	k.RunUntil(Time(100 * Microsecond))
	if u := r.Utilization(); u < 0.24 || u > 0.26 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		k := New(42)
		var samples []int64
		for i := 0; i < 5; i++ {
			d := time.Duration(k.Rand().Intn(1000)) * Microsecond
			k.After(d, func() { samples = append(samples, int64(k.Now())) })
		}
		k.Run()
		return samples
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged: %v vs %v", a, b)
		}
	}
}

func TestTimePropertyAddSub(t *testing.T) {
	f := func(base int32, delta int32) bool {
		tm := Time(int64(base) * 1000)
		d := time.Duration(delta)
		if d < 0 {
			d = -d
		}
		return tm.Add(d).Sub(tm) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAtAsOfOrdering: an AtAsOf event runs where an event scheduled for
// its time at its asOf instant would run, ahead of the ordinary events
// scheduled at that instant; AtAsOf events of one (time, asOf) run in key
// order, whenever they were scheduled.
func TestAtAsOfOrdering(t *testing.T) {
	k := New(1)
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	asOf := func(s string) Handler { return HandlerFunc(func(any) { order = append(order, s) }) }
	at := Time(10 * Microsecond)
	k.At(at, note("ordinary@0"))
	k.At(Time(2*Microsecond), note(""))
	k.At(Time(2*Microsecond), func() { k.At(at, note("ordinary@2")) })
	k.At(Time(5*Microsecond), func() {
		k.At(at, note("ordinary@5"))
		k.AtAsOf(at, Time(2*Microsecond), 7, asOf("asof@2/7"), nil)
		k.AtAsOf(at, Time(2*Microsecond), 3, asOf("asof@2/3"), nil)
		k.AtAsOf(at, Time(5*Microsecond), 0, asOf("asof@5/0"), nil)
		k.AtAsOf(at, 0, 9, asOf("asof@0/9"), nil)
	})
	k.Run()
	want := []string{"", "asof@0/9", "ordinary@0", "asof@2/3", "asof@2/7", "ordinary@2", "asof@5/0", "ordinary@5"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %q, want %q", order, want)
	}
}

// TestAtAsOfFutureInstant: an event scheduled ahead of time, as of an
// instant after now, runs where one scheduled at that instant would: after
// the ordinary events for its time scheduled before that instant (even
// those scheduled after it was), ahead of those scheduled at or after it,
// and by key among AtAsOf events of the same instant.
func TestAtAsOfFutureInstant(t *testing.T) {
	k := New(1)
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	asOf := func(s string) Handler { return HandlerFunc(func(any) { order = append(order, s) }) }
	at, as := Time(10*Microsecond), Time(5*Microsecond)
	k.At(at, note("ordinary@0"))
	k.At(Time(Microsecond), func() {
		if !k.Ran(Time(Microsecond), 0, 0) || k.Ran(at, as, 4) {
			t.Error("Ran misplaces an event as of a future instant")
		}
		k.AtAsOf(at, as, 4, asOf("asof@5/4"), nil)
	})
	k.At(Time(2*Microsecond), func() { k.At(at, note("ordinary@2")) })
	k.At(as, func() {
		k.At(at, note("ordinary@5"))
		k.AtAsOf(at, as, 1, asOf("asof@5/1"), nil)
	})
	k.At(Time(7*Microsecond), func() { k.At(at, note("ordinary@7")) })
	k.Run()
	want := []string{"ordinary@0", "ordinary@2", "asof@5/1", "asof@5/4", "ordinary@5", "ordinary@7"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %q, want %q", order, want)
	}
}

// TestAtFromOrdersByOrigin: events of one time and scheduling instant run
// in the order their schedulers ran, and an event placed with AtFrom from
// a scheduler's origin, with the key NextKey reserved there, runs where
// the ordinary event it stands for would have, however late it is
// scheduled. An event scheduled ahead of time from that stand-in's own
// origin (as a skipped chain would) runs among the stand-in's siblings'
// children the same way.
func TestAtFromOrdersByOrigin(t *testing.T) {
	k := New(1)
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	named := func(s string) Handler { return HandlerFunc(func(any) { order = append(order, s) }) }
	at5, at10, at12 := Time(5*Microsecond), Time(10*Microsecond), Time(12*Microsecond)
	// y1, x and y2 run at 5µs in that order; y1 and y2 schedule for 10µs,
	// x only reserves the place of what it would schedule.
	var xFrom Origin
	var xKey uint64
	k.At(at5, func() {
		k.At(at10, func() { order = append(order, "y1"); k.At(at12, note("y1 child")) })
	})
	k.At(at5, func() {
		xFrom, xKey = k.Origin(), k.NextKey()
		k.At(at10, func() { order = append(order, "x2"); k.At(at12, note("x2 child")) })
	})
	k.At(at5, func() {
		k.At(at10, func() { order = append(order, "y2"); k.At(at12, note("y2 child")) })
	})
	k.At(Time(7*Microsecond), func() {
		k.AtFrom(at10, at5, xFrom, xKey, named("x"), nil)
		// x's own child, placed ahead of time, as of x's instant.
		k.AtFrom(at12, at10, Origin{Sched: at5, Key: xKey}, 1, named("x child"), nil)
	})
	k.Run()
	want := []string{"y1", "x", "x2", "y2", "y1 child", "x child", "x2 child", "y2 child"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %q, want %q", order, want)
	}
}

// TestRanTracksRunPosition pins Ran: inside an event it splits the events
// of the instant at the running one; after RunUntil every event of the
// instant has run, after RunBefore none, and after a Stop the events
// behind the stopping one never run.
func TestRanTracksRunPosition(t *testing.T) {
	k := New(1)
	T := Time(10 * Microsecond)
	if k.Ran(0, 0, 0) {
		t.Fatal("a fresh kernel has run something")
	}
	var got []bool
	k.At(Time(Microsecond), func() {
		k.At(T, func() { // ordered (T, 1µs, ordinary)
			got = append(got,
				k.Ran(T-1, T-1, 1<<62),         // an earlier instant
				k.Ran(T, 0, 1<<62),             // scheduled before this event
				k.Ran(T, Time(Microsecond), 5), // as of its instant, ahead of it
				!k.Ran(T, Time(2*Microsecond), 0),
				!k.Ran(T+1, 0, 0))
		})
	})
	k.RunUntil(T - 1)
	if !k.Ran(T-1, T-1, 0) || k.Ran(T, 0, 0) {
		t.Fatal("after RunUntil(t): every event at t has run, none later")
	}
	k.RunUntil(T)
	for i, ok := range got {
		if !ok {
			t.Fatalf("check %d inside the event failed: %v", i, got)
		}
	}
	k.RunBefore(T + 5)
	if k.Ran(T+5, 0, 0) || !k.Ran(T+4, T, 0) {
		t.Fatal("after RunBefore(t): no event at t has run")
	}
	k.At(T+10, func() { k.Stop() })
	k.AtAsOf(T+10, T+5, 1, HandlerFunc(func(any) {}), nil)
	k.RunUntil(T + 20)
	if k.Now() != T+10 || !k.Ran(T+10, T+5, 1) || k.Ran(T+10, T+6, 0) {
		t.Fatalf("after a Stop at %v (now %v): only the events ahead of the stopping one ran", T+10, k.Now())
	}
}

// TestAtAsOfRejectsThePast: an event Ran says has run, one in the past,
// one as of an instant after its own time, or one with an out-of-range
// key, panics. An asOf after now but not after the event's time is
// accepted.
func TestAtAsOfRejectsThePast(t *testing.T) {
	h := HandlerFunc(func(any) {})
	for _, tc := range []struct {
		name       string
		at, asOf   Time
		key        uint64
		wantsPanic bool
	}{
		{"future", 20, 5, 0, false},
		{"this instant, behind the running event", 10, 10, 0, false},
		{"this instant, ahead of the running event", 10, 2, 0, true},
		{"in the past", 5, 5, 0, true},
		{"as of a future instant", 20, 15, 0, false},
		{"as of its own future instant", 20, 20, 0, false},
		{"as of an instant after its time", 20, 25, 0, true},
		{"key out of range", 20, 5, 1 << 63, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New(1)
			var got any
			k.At(2, func() { k.At(10, func() {}) }) // runs at 10, ordered (10, 2, ...)
			k.At(10, func() {})                     // ordered (10, 0, ...)
			k.RunUntil(9)
			k.At(10, func() {
				defer func() { got = recover() }()
				k.AtAsOf(tc.at, tc.asOf, tc.key, h, nil)
			}) // ordered (10, 9, ...), runs last at 10
			k.Run()
			if (got != nil) != tc.wantsPanic {
				t.Fatalf("panic = %v, want panic %v", got, tc.wantsPanic)
			}
		})
	}
}
