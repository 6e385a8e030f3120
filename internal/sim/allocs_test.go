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
		if c := cap(r.queue); c > maxCap {
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

// benchDepth keeps a realistic standing population in the queue: NIC
// timers, liveness sessions and retransmission timers mean the heap is
// never near-empty in real runs.
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
