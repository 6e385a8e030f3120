package sim

import (
	"container/heap"
	"testing"
	"time"
)

// TestScheduleStepAllocs pins the flat kernel's hot-path budget: once
// the arena is warm, scheduling an event and firing it must not allocate
// at all (the previous pointer-heap kernel paid one event box plus one
// Timer box per event). Guards the engine-overhaul win against
// regression.
func TestScheduleStepAllocs(t *testing.T) {
	k := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.After(time.Duration(i)*time.Microsecond, fn)
	}
	k.Run()
	avg := testing.AllocsPerRun(10000, func() {
		k.After(time.Microsecond, fn)
		k.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule+step allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestScheduleCancelAllocs pins the arm/cancel cycle (the retransmission
// and liveness layers re-arm timers constantly): zero allocations in
// steady state.
func TestScheduleCancelAllocs(t *testing.T) {
	k := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.After(time.Duration(i)*time.Microsecond, fn)
	}
	k.Run()
	avg := testing.AllocsPerRun(10000, func() {
		tm := k.After(time.Millisecond, fn)
		tm.Cancel()
	})
	if avg != 0 {
		t.Fatalf("schedule+cancel allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestResourceSubmitAllocs pins the FIFO server every NIC CPU and PCI
// operation goes through: once warm, submitting an item and completing it
// must not allocate.
func TestResourceSubmitAllocs(t *testing.T) {
	k := New(1)
	r := NewResource(k, "cpu")
	done := func() {}
	for i := 0; i < 4; i++ {
		r.Submit(time.Microsecond, done)
	}
	k.Run()
	avg := testing.AllocsPerRun(10000, func() {
		r.Submit(time.Microsecond, done)
		r.Submit(time.Microsecond, done)
		k.Step()
		k.Step()
	})
	if avg != 0 {
		t.Fatalf("resource submit+complete allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestResourceBacklogBoundedMemory keeps one resource busy for 100000
// items without ever draining, with eight items outstanding (seven
// waiting, one in service): the
// head-indexed queue must reclaim its consumed prefix (bounded capacity)
// and the accounting must stay exact.
func TestResourceBacklogBoundedMemory(t *testing.T) {
	const (
		total   = 100000
		backlog = 8
		service = 3 * time.Microsecond
	)
	k := New(1)
	r := NewResource(k, "cpu")
	submitted, maxCap := 0, 0
	var done func()
	done = func() {
		if submitted < total {
			if got := r.QueueLen(); got != backlog-1 {
				t.Fatalf("after %d completions QueueLen = %d, want %d", r.Served(), got, backlog-1)
			}
			submitted++
			r.Submit(service, done)
		}
		if c := cap(r.queue.items); c > maxCap {
			maxCap = c
		}
	}
	for ; submitted < backlog; submitted++ {
		r.Submit(service, done)
	}
	end := k.Run()
	if r.Served() != total || r.BusyTime() != total*service || r.QueueLen() != 0 || r.Busy() {
		t.Fatalf("served %d busy %v queue %d busy=%v, want %d, %v, 0, false",
			r.Served(), r.BusyTime(), r.QueueLen(), r.Busy(), total, total*service)
	}
	if end != Time(total*service) {
		t.Fatalf("resource idled: finished at %v, want %v", end, Time(total*service))
	}
	if maxCap > 4*backlog {
		t.Fatalf("queue capacity grew to %d with a backlog of %d", maxCap, backlog)
	}
}

// TestProcSleepAllocs pins a Proc's timed wake-up: the Proc is the
// handler of its own event, so once warm a Sleep handoff allocates
// nothing. (Before bound handlers, each Sleep allocated its wake-up
// closure: 1 alloc per handoff.)
func TestProcSleepAllocs(t *testing.T) {
	k := New(1)
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	defer k.Stop()
	for i := 0; i < 64; i++ {
		k.Step()
	}
	avg := testing.AllocsPerRun(10000, func() { k.Step() })
	if avg != 0 {
		t.Fatalf("Sleep handoff allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestGateSignalAllocs pins the Gate handoff: two Procs pass control back
// and forth through a pair of gates, so every step is one Signal wake-up.
// The waiter queues pop in place and the wake-up event stores the Proc,
// so the handoff allocates nothing. (Before: 2 allocs per handoff, the
// wake-up closure and the waiter slice regrowing after each pop.)
func TestGateSignalAllocs(t *testing.T) {
	k := New(1)
	var ga, gb Gate
	turn := 0
	k.Spawn("a", func(p *Proc) {
		for {
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
	for i := 0; i < 64; i++ {
		k.Step()
	}
	avg := testing.AllocsPerRun(10000, func() { k.Step() })
	if avg != 0 {
		t.Fatalf("Gate.Signal handoff allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestGateWaitTimeoutAllocs pins the timed wait the mapper makes on every
// probe (Mailbox.GetTimeout): the Proc is the handler of its own timeout,
// with the gate as the event's argument and the timed-out flag on the
// Proc, so a wait that times out and one that is signalled allocate
// nothing once warm. (Before: 2 allocs per wait, the timeout closure and
// its escaped flag.)
func TestGateWaitTimeoutAllocs(t *testing.T) {
	k := New(1)
	var g Gate
	timeouts, signals := 0, 0
	k.Spawn("waiter", func(p *Proc) {
		for {
			if g.WaitTimeout(p, time.Microsecond) {
				signals++
			} else {
				timeouts++
			}
		}
	})
	defer k.Stop()
	k.RunFor(64 * time.Microsecond)
	avg := testing.AllocsPerRun(10000, func() {
		k.RunFor(time.Microsecond) // times out
		g.Signal()
		k.RunFor(0) // signalled
	})
	if avg != 0 {
		t.Fatalf("Gate.WaitTimeout allocates %.2f allocs/op in steady state, want 0", avg)
	}
	if timeouts < 10000 || signals < 10000 {
		t.Fatalf("%d timeouts and %d signals, want at least 10000 of each", timeouts, signals)
	}
}

// TestGateBroadcastAllocs: waking four parked Procs with one Broadcast,
// and letting each park again, allocates nothing once warm. (Before: 7
// allocs per broadcast, a closure per woken Proc plus the emptied waiter
// slice regrowing three times.)
func TestGateBroadcastAllocs(t *testing.T) {
	k := New(1)
	var g Gate
	woken := 0
	for i := 0; i < 4; i++ {
		k.Spawn("waiter", func(p *Proc) {
			for {
				g.Wait(p)
				woken++
			}
		})
	}
	defer k.Stop()
	k.Run()
	for i := 0; i < 16; i++ {
		g.Broadcast()
		k.Run()
	}
	avg := testing.AllocsPerRun(2000, func() {
		g.Broadcast()
		k.Run()
	})
	if avg != 0 {
		t.Fatalf("Broadcast to 4 procs allocates %.2f allocs/op in steady state, want 0", avg)
	}
	if want := 4 * (16 + 2001); woken != want {
		t.Fatalf("woken %d times, want %d", woken, want)
	}
}

// TestGateBacklogBoundedMemory keeps eight Procs queued on one gate for
// 100000 signals, each woken Proc queueing again at the back: wake-ups
// stay FIFO (round robin) and the waiter queue reclaims its consumed
// prefix, so its capacity stays bounded.
func TestGateBacklogBoundedMemory(t *testing.T) {
	const (
		total   = 100000
		backlog = 8
	)
	k := New(1)
	var g Gate
	var order []int
	for i := 0; i < backlog; i++ {
		i := i
		k.Spawn("waiter", func(p *Proc) {
			for {
				g.Wait(p)
				order = append(order, i)
			}
		})
	}
	maxCap := 0
	k.Spawn("signaler", func(p *Proc) {
		for n := 0; n < total; n++ {
			if got := g.Waiting(); got != backlog {
				t.Errorf("signal %d: %d waiting, want %d", n, got, backlog)
				return
			}
			g.Signal()
			p.Yield() // the woken Proc runs and queues again
			if c := cap(g.waiters.items); c > maxCap {
				maxCap = c
			}
		}
	})
	defer k.Stop()
	k.Run()
	if len(order) != total {
		t.Fatalf("%d wake-ups, want %d", len(order), total)
	}
	for n, i := range order {
		if i != n%backlog {
			t.Fatalf("wake-up %d went to waiter %d, want %d (FIFO)", n, i, n%backlog)
		}
	}
	if maxCap > 4*backlog {
		t.Fatalf("waiter queue capacity grew to %d with a backlog of %d", maxCap, backlog)
	}
}

// TestMailboxBacklogBoundedMemory keeps eight messages queued in a
// mailbox for 100000 Get/Put cycles: messages stay FIFO and the queue's
// capacity stays bounded.
func TestMailboxBacklogBoundedMemory(t *testing.T) {
	const (
		total   = 100000
		backlog = 8
	)
	k := New(1)
	var m Mailbox[int]
	for i := 0; i < backlog; i++ {
		m.Put(i)
	}
	maxCap := 0
	k.Spawn("cycler", func(p *Proc) {
		for n := 0; n < total; n++ {
			v := m.Get(p)
			if v != n {
				t.Errorf("get %d returned message %d (not FIFO)", n, v)
				return
			}
			m.Put(n + backlog)
			if c := cap(m.queue.items); c > maxCap {
				maxCap = c
			}
		}
	})
	k.Run()
	if m.Len() != backlog {
		t.Fatalf("mailbox holds %d messages, want %d", m.Len(), backlog)
	}
	if maxCap > 4*backlog {
		t.Fatalf("mailbox capacity grew to %d with a backlog of %d", maxCap, backlog)
	}
}

// oldEvent/oldHeap/oldKernel replicate the pre-overhaul event queue — a
// container/heap of per-event pointer boxes with tombstone cancellation —
// so the flat-kernel benchmarks below have a faithful baseline to beat.
// Bench-local only; nothing outside this file uses them.
type oldEvent struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
	index     int
}

type oldHeap []*oldEvent

func (h oldHeap) Len() int { return len(h) }
func (h oldHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oldHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *oldHeap) Push(x any) {
	e := x.(*oldEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *oldHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

type oldKernel struct {
	now    Time
	seq    uint64
	events oldHeap
}

type oldTimer struct{ ev *oldEvent }

func (k *oldKernel) at(t Time, fn func()) *oldTimer {
	k.seq++
	ev := &oldEvent{at: t, seq: k.seq, fn: fn}
	heap.Push(&k.events, ev)
	return &oldTimer{ev: ev}
}

func (k *oldKernel) step() bool {
	for len(k.events) > 0 {
		e := heap.Pop(&k.events).(*oldEvent)
		if e.cancelled {
			continue
		}
		k.now = e.at
		e.fn()
		return true
	}
	return false
}

// benchDepth keeps a deep standing population in the queue, a heap far
// larger than the simulator's runs build. Since idle NICs park their
// retransmission timers, a mean of 4.6 other events is pending when one
// fires on the paper's figures, 30.6 on the fattree:16 SLO grid and 32.1
// on the chaos suite (the benchmark's workloads at seed 1).
// BenchmarkKernelPipeline measures that shape.
const benchDepth = 256

// BenchmarkKernelSchedulePop measures the flat int-indexed kernel:
// steady-state schedule+fire against a standing event population.
func BenchmarkKernelSchedulePop(b *testing.B) {
	k := New(1)
	fn := func() {}
	for i := 0; i < benchDepth; i++ {
		k.After(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(time.Millisecond, fn)
		k.Step()
	}
}

// pipelineDelays is BenchmarkKernelPipeline's cycle of delays: seven next
// stages of a packet, a few hundred nanoseconds out at most, and one
// timer 100 µs out.
var pipelineDelays = [8]time.Duration{300, 0, 700, 100, 1500, 200, 400, 100 * time.Microsecond}

// BenchmarkKernelPipeline measures schedule+fire on the queue the
// simulator's runs see: a handful of pending events (eight or nine), most
// new ones landing among the next few. About 18 % of its events enter the
// heap, against 15 % on the paper's figures.
func BenchmarkKernelPipeline(b *testing.B) {
	k := New(1)
	fn := func() {}
	for _, d := range pipelineDelays {
		k.After(d, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(pipelineDelays[i%len(pipelineDelays)], fn)
		k.Step()
	}
}

// farTimerDelays and nearDelays are BenchmarkKernelFarTimers' cycles of
// delays: retransmission ticks, think and arrival sleeps and delayed acks
// 50 µs to 1 ms out, and packet stages a few hundred ns to a few µs out.
var (
	farTimerDelays = [7]time.Duration{time.Millisecond, 800 * time.Microsecond, 120 * time.Microsecond,
		time.Millisecond, 50 * time.Microsecond, 450 * time.Microsecond, 2 * time.Millisecond}
	nearDelays = [5]time.Duration{300, 1200, 700, 3500, 100}
)

// BenchmarkKernelFarTimers measures schedule+fire on the queue shape of
// the fattree:16 SLO grid: 28 timers and sleeps stay pending, each
// re-armed when it fires, while 4 packet events cycle ahead of them.
// About 99 % of the events fired are near ones, and two thirds of them
// enter a heap: the near one, about 4 deep, not the 32-deep mix.
func BenchmarkKernelFarTimers(b *testing.B) {
	k := New(1)
	var nearFn, farFn func()
	n, f := 0, 0
	nearFn = func() {
		n++
		k.After(nearDelays[n%len(nearDelays)], nearFn)
	}
	farFn = func() {
		f++
		k.After(farTimerDelays[f%len(farTimerDelays)], farFn)
	}
	for i := 0; i < 28; i++ {
		k.After(farTimerDelays[i%len(farTimerDelays)]+time.Duration(i)*time.Microsecond, farFn)
	}
	for i := 0; i < 4; i++ {
		k.After(nearDelays[i%len(nearDelays)], nearFn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkOldKernelSchedulePop measures the legacy pointer-heap queue
// on the identical workload.
func BenchmarkOldKernelSchedulePop(b *testing.B) {
	k := &oldKernel{}
	fn := func() {}
	for i := 0; i < benchDepth; i++ {
		k.at(Time(i)*Time(time.Microsecond), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.at(k.now.Add(time.Millisecond), fn)
		k.step()
	}
}

// BenchmarkKernelArmCancel measures the flat kernel's timer re-arm
// cycle (eager heap removal, slot recycled through the free list).
func BenchmarkKernelArmCancel(b *testing.B) {
	k := New(1)
	fn := func() {}
	for i := 0; i < benchDepth; i++ {
		k.After(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := k.After(time.Millisecond, fn)
		tm.Cancel()
	}
}

// BenchmarkOldKernelArmCancel measures the legacy queue's re-arm cycle:
// tombstone cancellation leaves the dead box in the heap for the pop
// path to reap, and every cycle allocates the box and the Timer.
func BenchmarkOldKernelArmCancel(b *testing.B) {
	k := &oldKernel{}
	fn := func() {}
	for i := 0; i < benchDepth; i++ {
		k.at(Time(i)*Time(time.Microsecond), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := k.at(k.now.Add(time.Millisecond), fn)
		tm.ev.cancelled = true
		if len(k.events) > 4*benchDepth {
			// Tombstones accumulate; reap as the old Step would.
			b.StopTimer()
			for len(k.events) > benchDepth {
				heap.Pop(&k.events)
			}
			b.StartTimer()
		}
	}
}
