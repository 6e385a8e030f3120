package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Handler is the one callback representation of the kernel and of
// Resource: an event fires h.Fire(arg). A component that schedules the
// same kind of event for every packet binds its handler once and passes
// the packet (or frame, or a small constant) as arg, so scheduling
// allocates nothing; a per-event closure would allocate every time.
// Never hide a pointer in an integer arg (the collector would not see
// it), and never box a struct or a scalar above 255 into arg on a hot
// path: that allocates too.
type Handler interface {
	Fire(arg any)
}

// HandlerFunc adapts a function to Handler. Bind it once, when its owner
// is built, and reuse it for every event.
type HandlerFunc func(arg any)

// Fire calls f(arg).
func (f HandlerFunc) Fire(arg any) { f(arg) }

// thunk stores a plain func() as a Handler. A func value is
// pointer-shaped, so the conversion allocates nothing: At, After,
// Immediately and Resource.Submit allocate no more than the caller's
// closure.
type thunk func()

func (f thunk) Fire(any) { f() }

// event is one scheduled callback, stored flat in the kernel's arena and
// addressed by its arena index. Events with equal times execute in
// scheduling order (seq breaks ties), which keeps runs deterministic.
//
// The arena slot is recycled through a free list once the event fires or
// is cancelled; gen is bumped on every recycle so stale Timer handles
// can never cancel a later occupant of the same slot.
type event struct {
	at  Time
	seq uint64
	gen uint32
	pos int32 // index in the kernel's heap, -1 when not queued
	h   Handler
	arg any
}

// Timer is a value handle to a scheduled event that can be cancelled.
// The zero Timer is valid and permanently non-pending. Timers are small
// and copyable; scheduling an event allocates nothing beyond the
// caller's closure, and nothing at all through AtHandler.
type Timer struct {
	k   *Kernel
	id  int32
	gen uint32
}

// Cancel prevents the timer's callback from running. Cancelling an already
// fired or already cancelled timer is a no-op. Reports whether the timer was
// still pending.
func (t Timer) Cancel() bool {
	if t.k == nil {
		return false
	}
	e := &t.k.arena[t.id]
	if e.gen != t.gen || e.pos < 0 {
		return false
	}
	t.k.heapRemove(int(e.pos))
	t.k.release(t.id)
	t.k.cancelled++
	return true
}

// Pending reports whether the timer has neither fired nor been cancelled.
func (t Timer) Pending() bool {
	if t.k == nil {
		return false
	}
	e := &t.k.arena[t.id]
	return e.gen == t.gen && e.pos >= 0
}

// Kernel is a discrete-event simulation engine. It is not safe for
// concurrent use: all simulation code runs on a single logical thread
// (the caller of Run, plus Procs which execute one at a time by handoff).
//
// The event queue is an index-based binary heap over a flat struct arena:
// no per-event heap allocation, no interface boxing, and cancellation
// removes the event eagerly instead of leaving a tombstone to skip later.
// In steady state scheduling and firing events allocates nothing.
type Kernel struct {
	now     Time
	seq     uint64
	rng     *rand.Rand
	stopped bool

	arena []event // flat event records, indexed by event id
	free  []int32 // recycled arena slots
	heap  []int32 // binary heap of event ids, ordered by (at, seq)

	procs     map[*Proc]struct{} // live procs, for shutdown
	executed  uint64             // events executed, for diagnostics
	cancelled uint64             // events cancelled before firing
}

// New returns a kernel with its clock at zero and an RNG seeded with seed.
func New(seed int64) *Kernel {
	return &Kernel{
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Executed returns the number of events executed so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of events currently scheduled. Cancelled
// events are removed eagerly, so the count is exact.
func (k *Kernel) Pending() int { return len(k.heap) }

// KernelStats is a snapshot of the kernel's event-machinery counters, for
// the engine profiler. Scheduled counts every schedule call (it equals
// Cancelled + Executed + Pending once the run has quiesced);
// ArenaHighWater is the peak number of distinct event slots ever live at
// once, i.e. the arena's memory footprint in records.
type KernelStats struct {
	Scheduled      uint64
	Cancelled      uint64
	Executed       uint64
	Pending        int
	ArenaHighWater int
}

// Stats returns the kernel's counter snapshot. Always available — the
// counters are plain increments on paths that already mutate kernel
// state, cheap enough to keep unconditionally.
func (k *Kernel) Stats() KernelStats {
	return KernelStats{
		Scheduled:      k.seq,
		Cancelled:      k.cancelled,
		Executed:       k.executed,
		Pending:        len(k.heap),
		ArenaHighWater: len(k.arena),
	}
}

// less orders heap entries by (time, scheduling sequence).
func (k *Kernel) less(a, b int32) bool {
	ea, eb := &k.arena[a], &k.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (k *Kernel) siftUp(i int) {
	id := k.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(id, k.heap[parent]) {
			break
		}
		k.heap[i] = k.heap[parent]
		k.arena[k.heap[i]].pos = int32(i)
		i = parent
	}
	k.heap[i] = id
	k.arena[id].pos = int32(i)
}

func (k *Kernel) siftDown(i int) {
	id := k.heap[i]
	n := len(k.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && k.less(k.heap[right], k.heap[left]) {
			child = right
		}
		if !k.less(k.heap[child], id) {
			break
		}
		k.heap[i] = k.heap[child]
		k.arena[k.heap[i]].pos = int32(i)
		i = child
	}
	k.heap[i] = id
	k.arena[id].pos = int32(i)
}

// heapRemove deletes the entry at heap position i, preserving heap order.
func (k *Kernel) heapRemove(i int) {
	n := len(k.heap) - 1
	last := k.heap[n]
	k.heap = k.heap[:n]
	if i == n {
		return
	}
	k.heap[i] = last
	k.arena[last].pos = int32(i)
	k.siftDown(i)
	k.siftUp(i)
}

// release returns an arena slot to the free list, dropping the handler
// and argument references and invalidating outstanding Timer handles.
func (k *Kernel) release(id int32) {
	e := &k.arena[id]
	e.h, e.arg = nil, nil
	e.gen++
	e.pos = -1
	k.free = append(k.free, id)
}

// schedule inserts a new event and returns its handle.
func (k *Kernel) schedule(t Time, h Handler, arg any) Timer {
	k.seq++
	var id int32
	if n := len(k.free); n > 0 {
		id = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.arena = append(k.arena, event{})
		id = int32(len(k.arena) - 1)
	}
	e := &k.arena[id]
	e.at = t
	e.seq = k.seq
	e.h, e.arg = h, arg
	e.pos = int32(len(k.heap))
	k.heap = append(k.heap, id)
	k.siftUp(int(e.pos))
	return Timer{k: k, id: id, gen: e.gen}
}

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in simulation logic and panics.
func (k *Kernel) At(t Time, fn func()) Timer { return k.AtHandler(t, thunk(fn), nil) }

// AtHandler schedules h.Fire(arg) at absolute time t, like At. It is the
// allocation-free entry point for per-packet events: h is bound once by
// its owner, and arg carries the packet, frame or small constant.
func (k *Kernel) AtHandler(t Time, h Handler, arg any) Timer {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	return k.schedule(t, h, arg)
}

// After schedules fn to run d after the current time. Negative d panics.
func (k *Kernel) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.schedule(k.now.Add(d), thunk(fn), nil)
}

// Immediately schedules fn to run at the current time, after all events
// already scheduled for this instant.
func (k *Kernel) Immediately(fn func()) Timer { return k.schedule(k.now, thunk(fn), nil) }

// Step executes the next pending event. It reports false when no events
// remain or the kernel has been stopped.
func (k *Kernel) Step() bool {
	if k.stopped || len(k.heap) == 0 {
		return false
	}
	id := k.heap[0]
	e := &k.arena[id]
	k.now = e.at
	h, arg := e.h, e.arg
	k.heapRemove(0)
	k.release(id)
	k.executed++
	h.Fire(arg)
	return true
}

// Run executes events until none remain (or Stop is called). It returns the
// final simulated time.
func (k *Kernel) Run() Time {
	for k.Step() {
	}
	return k.now
}

// RunUntil executes events with time ≤ t, then sets the clock to t.
// Events scheduled exactly at t do execute.
func (k *Kernel) RunUntil(t Time) {
	for !k.stopped && len(k.heap) > 0 && k.arena[k.heap[0]].at <= t {
		k.Step()
	}
	if !k.stopped && k.now < t {
		k.now = t
	}
}

// RunFor advances the simulation by duration d.
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now.Add(d)) }

// RunBefore executes events with time strictly < t, then sets the clock
// to t. Events scheduled exactly at t do not execute — they belong to the
// next window. This is the epoch primitive of the conservative parallel
// engine (internal/parsim): each shard kernel runs its window [now, t),
// parks at t, and waits for the barrier to deliver cross-shard arrivals,
// all of which carry times ≥ t.
func (k *Kernel) RunBefore(t Time) {
	for !k.stopped && len(k.heap) > 0 && k.arena[k.heap[0]].at < t {
		k.Step()
	}
	if !k.stopped && k.now < t {
		k.now = t
	}
}

// NextEvent returns the time of the earliest pending event, if any. The
// parallel engine uses it to skip idle stretches: an epoch window starts
// at the earliest work across all shards.
func (k *Kernel) NextEvent() (Time, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.arena[k.heap[0]].at, true
}

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// Stop halts the simulation: no further events execute, and every parked
// Proc is terminated (its goroutine unwinds via panic recovered by the
// kernel). Call Stop when abandoning a kernel that has live Procs, so their
// goroutines do not leak.
func (k *Kernel) Stop() {
	if k.stopped {
		return
	}
	k.stopped = true
	for p := range k.procs {
		if p.parked {
			p.kill()
		}
	}
}
