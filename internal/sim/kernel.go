package sim

import (
	"fmt"
	"math"
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
// addressed by its arena index. Events execute in (at, sched, from, seq)
// order, which keeps runs deterministic. An ordinary event's sched is the
// instant it was scheduled at, from the Origin of the event that scheduled
// it, and seq its scheduling sequence with the laterBand bit set. The
// events scheduled at one instant were scheduled by events that ran in
// that order, so (from, seq) is scheduling order: at one time ordinary
// events run in scheduling order. An event scheduled through AtAsOf or
// AtFrom carries the instant, origin and key its caller chose instead.
//
// The arena slot is recycled through a free list once the event fires or
// is cancelled; gen is bumped on every recycle so stale Timer handles
// can never cancel a later occupant of the same slot.
type event struct {
	at    Time
	sched Time
	from  Origin
	seq   uint64
	gen   uint32
	pos   int32 // index in the kernel's heap (far ones tagged farTag), inFront, or -1 when not queued
	h     Handler
	arg   any
}

// Origin places an event among the others that ran at its instant: its
// own scheduling instant and key (sequence or AtAsOf key). An event
// scheduled by it carries it, so that events of one time and one
// scheduling instant run in the order their schedulers ran.
type Origin struct {
	Sched Time
	Key   uint64
}

// first is the origin of AtAsOf events: ahead of every event's, so they
// run ahead of the ordinary events of their (time, asOf).
var first = Origin{Sched: math.MinInt64}

func (o Origin) before(p Origin) bool {
	if o.Sched != p.Sched {
		return o.Sched < p.Sched
	}
	return o.Key < p.Key
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
	if e.pos == inFront {
		t.k.frontRemove(t.id)
	} else {
		t.k.heapRemove(e.pos)
	}
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
// concurrent use: all simulation code runs on a single logical thread.
// The event loop of a Run, RunUntil or RunBefore call runs on whichever
// goroutine holds it, the caller's or that of the Proc that parked last,
// and the others wait on a channel until the loop is handed to them.
//
// The event queue is a short sorted front ahead of two index-based binary
// heaps, a near one and a far one, all over a flat struct arena: no
// per-event heap allocation, no interface boxing, and cancellation removes
// the event eagerly instead of leaving a tombstone to skip later. The
// front holds the next few events, each ordered before every event in
// either heap; an event scheduled ahead of both roots joins it instead of
// being sifted in, and the next event leaves it without a sift. An event
// that does not stay in the front goes to the far heap when it is due more
// than horizon after the instant it is queued at, and to the near heap
// otherwise, so the packet events sift past the few events due soon, not
// past every pending timer. Few events are pending in real runs (about 5
// on the paper's figures; about 32 on a loaded fattree:16, of which about
// 28 are far timers and sleeps), and about 40 % of all events are the
// next to run from when they are scheduled until they fire. In steady
// state scheduling and firing events allocates nothing.
type Kernel struct {
	now     Time
	seq     uint64
	rng     *rand.Rand
	stopped bool

	arena  []event          // flat event records, indexed by event id
	free   []int32          // recycled arena slots
	front  [frontSize]int32 // the next events, latest first: front[nfront-1] runs next
	nfront int              // entries in front
	heap   []int32          // binary heap of the later event ids due soon, ordered by (at, sched, from, seq)
	far    []int32          // the same for those due more than horizon after they were queued

	bound   Time          // the current run executes events at or before bound
	running bool          // a Run, RunUntil or RunBefore call is active
	cur     *Proc         // the Proc whose goroutine holds the loop, nil for the caller's
	woken   *Proc         // the Proc the event just fired dispatched
	home    chan struct{} // hands the loop back to the caller
	failure any           // a panic raised on a Proc's goroutine, for the caller

	idle  [carrierPool]*carrier // carriers waiting for a new Proc to run
	nidle int                   // entries in idle

	procs     procList // live procs in spawn order, for shutdown
	executed  uint64   // events executed, for diagnostics
	cancelled uint64   // events cancelled before firing
	switches  uint64   // handoffs of the loop between goroutines

	// ran (the scheduling instant and key of the last event run, so also
	// the origin of what it schedules) and ranFrom (its own origin) place
	// the last event run, or, after a RunUntil, come after every event at
	// now (see Ran).
	ran, ranFrom Origin
	// scheduled counts the events ever inserted (seq counts ordinary
	// events and reserved keys only), heaped those that entered a heap.
	scheduled, heaped uint64

	// lists holds this cell's free list of each pooled type, keyed by
	// the type's Lists (see Lists.Of).
	lists map[any]any
}

// laterBand is set in the seq of every ordinary event, so that an AtAsOf
// event (whose key stays below it) runs ahead of the ordinary events
// scheduled at its instant.
const laterBand = 1 << 63

// frontSize is the capacity of the kernel's front. Measured on the
// benchmark's workloads: 4 entries left part of the gain on the paper's
// figures, 16 gained nothing over 8 anywhere.
const frontSize = 8

// inFront is the pos of an event held in the front.
const inFront = math.MaxInt32

// farTag is set in the pos of an event held in the far heap, above its
// index there (so pos == inFront is tested first).
const farTag = 1 << 30

// horizon splits the two heaps: an event due more than horizon after the
// instant it is queued at goes to the far heap. On the fattree:16 SLO
// grid (2-core Xeon VM, seeds 1–5, medians of one run each) 2, 5, 10 and
// 30 µs gave pass times within noise of each other, 0.424–0.437 s;
// 100 µs gave 0.438 s, 1 ms 0.443 s, and one heap 0.445 s. About 4 of
// that grid's ~32 heaped events are due within 10 µs (resource
// completions, worm steps) and take about 86 % of the heap inserts; the
// rest are 1 ms retransmission ticks, think and arrival sleeps and
// delayed acks.
const horizon = Time(10 * Microsecond)

// New returns a kernel with its clock at zero and an RNG seeded with seed.
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed)), ran: Origin{Sched: math.MinInt64}, ranFrom: first}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Executed returns the number of events executed so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of events currently scheduled. Cancelled
// events are removed eagerly, so the count is exact.
func (k *Kernel) Pending() int { return k.nfront + len(k.heap) + len(k.far) }

// KernelStats is a snapshot of the kernel's event-machinery counters, for
// the engine profiler. Scheduled counts every schedule call (it equals
// Cancelled + Executed + Pending once the run has quiesced); Heaped counts
// the events that entered either binary heap rather than the front,
// whether scheduled there or moved there from a full front;
// ArenaHighWater is the peak number of distinct event slots ever live at
// once, i.e. the arena's memory footprint in records; Switches counts
// every handoff of the loop from one goroutine to another (a Proc's start
// on another carrier, a wake-up of another Proc, a return to the caller).
// A Proc a finished body's carrier starts itself is not a switch.
type KernelStats struct {
	Scheduled      uint64
	Heaped         uint64
	Cancelled      uint64
	Executed       uint64
	Pending        int
	ArenaHighWater int
	Switches       uint64
}

// Stats returns the kernel's counter snapshot. Always available — the
// counters are plain increments on paths that already mutate kernel
// state, cheap enough to keep unconditionally.
func (k *Kernel) Stats() KernelStats {
	return KernelStats{
		Scheduled:      k.scheduled,
		Heaped:         k.heaped,
		Cancelled:      k.cancelled,
		Executed:       k.executed,
		Pending:        k.Pending(),
		ArenaHighWater: len(k.arena),
		Switches:       k.switches,
	}
}

// less orders events by (time, scheduling instant, origin, sequence). It
// is written to stay within the inliner's budget: the sift loops call it
// for every comparison.
func (k *Kernel) less(a, b int32) bool {
	ea, eb := &k.arena[a], &k.arena[b]
	switch {
	case ea.at != eb.at:
		return ea.at < eb.at
	case ea.sched != eb.sched:
		return ea.sched < eb.sched
	case ea.from.Sched != eb.from.Sched:
		return ea.from.Sched < eb.from.Sched
	case ea.from.Key != eb.from.Key:
		return ea.from.Key < eb.from.Key
	}
	return ea.seq < eb.seq
}

// siftUp moves the entry at position i of heap h up to its place; tag
// (0 or farTag) marks the positions it records.
func (k *Kernel) siftUp(h []int32, tag int32, i int) {
	id := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(id, h[parent]) {
			break
		}
		h[i] = h[parent]
		k.arena[h[i]].pos = int32(i) | tag
		i = parent
	}
	h[i] = id
	k.arena[id].pos = int32(i) | tag
}

// siftDown moves the entry at position i of heap h down to its place.
func (k *Kernel) siftDown(h []int32, tag int32, i int) {
	id := h[i]
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && k.less(h[right], h[left]) {
			child = right
		}
		if !k.less(h[child], id) {
			break
		}
		h[i] = h[child]
		k.arena[h[i]].pos = int32(i) | tag
		i = child
	}
	h[i] = id
	k.arena[id].pos = int32(i) | tag
}

// heapPush adds an event to the far heap when it is due more than horizon
// from now, and to the near heap otherwise.
func (k *Kernel) heapPush(id int32) {
	k.heaped++
	if k.arena[id].at-k.now > horizon {
		k.far = append(k.far, id)
		k.siftUp(k.far, farTag, len(k.far)-1)
		return
	}
	k.heap = append(k.heap, id)
	k.siftUp(k.heap, 0, len(k.heap)-1)
}

// heapRemove deletes the heap entry at pos (a position in the near heap,
// or one tagged farTag in the far heap), preserving heap order.
func (k *Kernel) heapRemove(pos int32) {
	h, tag := &k.heap, int32(0)
	if pos&farTag != 0 {
		h, tag = &k.far, farTag
	}
	i := int(pos &^ farTag)
	n := len(*h) - 1
	last := (*h)[n]
	*h = (*h)[:n]
	if i == n {
		return
	}
	(*h)[i] = last
	k.siftDown(*h, tag, i)
	if i > 0 {
		k.siftUp(*h, tag, i)
	}
}

// root returns the earlier of the two heaps' roots, or -1 when both are
// empty.
func (k *Kernel) root() int32 {
	switch {
	case len(k.far) == 0:
		if len(k.heap) == 0 {
			return -1
		}
	case len(k.heap) == 0 || k.less(k.far[0], k.heap[0]):
		return k.far[0]
	}
	return k.heap[0]
}

// beforeRoot reports whether an event orders before both heaps' roots.
func (k *Kernel) beforeRoot(id int32) bool {
	return (len(k.heap) == 0 || k.less(id, k.heap[0])) && (len(k.far) == 0 || k.less(id, k.far[0]))
}

// enqueue puts a new event into the front when it orders before the
// front's latest entry, or when the front has room and it orders before
// both heaps' roots; any other event goes to a heap. So every front entry
// stays ahead of both heaps.
func (k *Kernel) enqueue(id int32) {
	n := k.nfront
	switch {
	case n > 0 && k.less(id, k.front[0]):
		// Among the front: a full front's latest entry moves to the heap.
		if n == frontSize {
			k.heapPush(k.front[0])
			n--
			copy(k.front[:n], k.front[1:])
		}
	case n < frontSize && k.beforeRoot(id):
		// After the whole front and ahead of the heap: the front's latest.
	default:
		k.heapPush(id)
		return
	}
	i := n
	for ; i > 0 && k.less(k.front[i-1], id); i-- {
		k.front[i] = k.front[i-1]
	}
	k.front[i] = id
	k.nfront = n + 1
	k.arena[id].pos = inFront
}

// frontRemove deletes a cancelled event from the front.
func (k *Kernel) frontRemove(id int32) {
	n := k.nfront - 1
	i := n
	for k.front[i] != id {
		i--
	}
	copy(k.front[i:n], k.front[i+1:])
	k.nfront = n
}

// next returns the event that runs next, or -1 when none is pending.
func (k *Kernel) next() int32 {
	if n := k.nfront; n > 0 {
		return k.front[n-1]
	}
	return k.root()
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

// schedule inserts a new ordinary event and returns its handle.
func (k *Kernel) schedule(t Time, h Handler, arg any) Timer {
	k.seq++
	return k.insert(t, k.now, k.ran, k.seq|laterBand, h, arg)
}

// insert puts an event ordered by (t, sched, from, seq) into the arena and
// the queue.
func (k *Kernel) insert(t, sched Time, from Origin, seq uint64, h Handler, arg any) Timer {
	k.scheduled++
	var id int32
	if n := len(k.free); n > 0 {
		id = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.arena = append(k.arena, event{})
		id = int32(len(k.arena) - 1)
	}
	e := &k.arena[id]
	e.at, e.sched, e.from, e.seq = t, sched, from, seq
	e.h, e.arg = h, arg
	k.enqueue(id)
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

// AtAsOf schedules h.Fire(arg) at absolute time t, where an event
// scheduled for t at instant asOf (at most t) would run: after every event
// at t scheduled before asOf, and ahead of every ordinary event at t
// scheduled at asOf or later. AtAsOf events with equal t and asOf run in
// ascending key order. So a component can stop a periodic chain and, at
// any later point, schedule the events it would have scheduled exactly
// where they would have run, with no record of what ran in between. An
// asOf after now schedules, ahead of time, the event a chain would only
// reach at asOf: it still runs after the ordinary events at t scheduled
// before asOf, those scheduled later included. Keys must be below 1<<63;
// two events pending with equal (t, asOf, key) run in no defined order,
// and an event that Ran says has already run panics, as does an asOf
// after t.
func (k *Kernel) AtAsOf(t, asOf Time, key uint64, h Handler, arg any) Timer {
	if key >= laterBand {
		panic(fmt.Sprintf("sim: AtAsOf key %#x out of range", key))
	}
	return k.AtFrom(t, asOf, first, key, h, arg)
}

// AtFrom schedules h.Fire(arg) at absolute time t where an event scheduled
// for t at instant asOf (at most t) by the event of origin from, with key,
// would run: among the events of (t, asOf), after those whose schedulers
// ran before that event and ahead of those whose schedulers ran after it;
// among the events it scheduled, in key order, where an ordinary event's
// key is its scheduling sequence with bit 63 set (NextKey reserves one).
// So a chain of events that schedule one another can be skipped and
// resumed later, each event placed where it would have run among all
// others of its instant, ordinary ones included. Two events pending at
// equal (t, asOf, from, key) run in no defined order; an event that
// RanFrom says has already run panics, as does an asOf after t.
func (k *Kernel) AtFrom(t, asOf Time, from Origin, key uint64, h Handler, arg any) Timer {
	if asOf > t || k.RanFrom(t, asOf, from, key) {
		panic(fmt.Sprintf("sim: AtFrom(%v, as of %v, from %v, key %#x) at now %v is in the past", t, asOf, from, key, k.now))
	}
	return k.insert(t, asOf, from, key, h, arg)
}

// Origin returns the origin of the running event (between runs, one that
// orders the events scheduled now where the run left them): what an event
// it schedules carries.
func (k *Kernel) Origin() Origin { return k.ran }

// NextKey reserves and returns the key the next ordinary event would get,
// as if one were scheduled now. AtFrom with that key, the origin of the
// running event and asOf now places an event where an ordinary event
// scheduled here would run, whenever it is actually scheduled.
func (k *Kernel) NextKey() uint64 {
	k.seq++
	return k.seq | laterBand
}

// Ran reports whether an event that AtAsOf(t, asOf, key) would schedule
// has already run: it is ordered before the event running now (or, between
// runs, the last event run), or at or before the instant a RunUntil
// reached.
func (k *Kernel) Ran(t, asOf Time, key uint64) bool { return k.RanFrom(t, asOf, first, key) }

// RanFrom is Ran for an event AtFrom(t, asOf, from, key) would schedule.
func (k *Kernel) RanFrom(t, asOf Time, from Origin, key uint64) bool {
	switch {
	case t != k.now:
		return t < k.now
	case asOf != k.ran.Sched:
		return asOf < k.ran.Sched
	case from != k.ranFrom:
		return from.before(k.ranFrom)
	}
	return key < k.ran.Key
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

// fire pops and executes the earliest event: the front's next, or, when
// the front is empty, the earlier heap root.
func (k *Kernel) fire() {
	var id int32
	if n := k.nfront; n > 0 {
		k.nfront = n - 1
		id = k.front[n-1]
	} else {
		id = k.root()
		k.heapRemove(k.arena[id].pos)
	}
	e := &k.arena[id]
	k.now, k.ran, k.ranFrom = e.at, Origin{e.sched, e.seq}, e.from
	h, arg := e.h, e.arg
	k.release(id)
	k.executed++
	h.Fire(arg)
}

// Step executes the next pending event. It reports false when no events
// remain or the kernel has been stopped. A Proc the event wakes runs until
// it parks again before Step returns: a round trip of two goroutine
// switches, because outside a run a parked Proc has no window to run the
// loop in.
func (k *Kernel) Step() bool {
	if k.running {
		panic("sim: Step called inside a run")
	}
	if k.stopped || k.Pending() == 0 {
		return false
	}
	k.fire()
	if q := k.woken; q != nil {
		k.woken = nil
		k.await(q)
	}
	return true
}

// Run executes events until none remain (or Stop is called). It returns the
// final simulated time.
func (k *Kernel) Run() Time {
	k.run(math.MaxInt64)
	return k.now
}

// RunUntil executes events with time ≤ t, then sets the clock to t.
// Events scheduled exactly at t do execute.
func (k *Kernel) RunUntil(t Time) {
	k.run(t)
	if !k.stopped && k.now <= t {
		last := Origin{math.MaxInt64, math.MaxUint64}
		k.now, k.ran, k.ranFrom = t, last, last
	}
}

// RunFor advances the simulation by duration d.
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now.Add(d)) }

// RunBefore executes events with time strictly < t, then sets the clock
// to t. Events scheduled exactly at t do not execute — they belong to the
// next window. This is the epoch primitive of the conservative parallel
// engine (internal/parsim): each shard kernel runs its window [now, t),
// parks at t, and waits for the barrier to deliver cross-shard arrivals,
// all of which carry times ≥ t. Successive windows may be run from
// different goroutines.
func (k *Kernel) RunBefore(t Time) {
	k.run(t - 1)
	if !k.stopped && k.now < t {
		k.now, k.ran.Sched, k.ranFrom = t, math.MinInt64, first
	}
}

// run executes events at or before bound. The caller's goroutine runs the
// loop until an event wakes a Proc, then hands the loop to it and waits
// until the window ends: from then on each parked Proc runs the loop
// itself (see Proc). A panic raised on a Proc's goroutine is re-raised
// here, with the same value.
func (k *Kernel) run(bound Time) {
	if k.running {
		panic("sim: Run, RunUntil or RunBefore called inside a run")
	}
	k.bound, k.running = bound, true
	defer func() { k.running = false }()
	if q := k.loop(); q != nil {
		k.await(q)
	}
}

// loop executes events on the calling goroutine until one wakes a Proc,
// which it returns, or the window ends (nil). Outside a run it executes
// nothing.
func (k *Kernel) loop() *Proc {
	for k.running && !k.stopped && k.failure == nil {
		if id := k.next(); id < 0 || k.arena[id].at > k.bound {
			break
		}
		k.fire()
		if q := k.woken; q != nil {
			k.woken = nil
			return q
		}
	}
	return nil
}

// procLoop is loop on a Proc's goroutine: a panic raised by an event ends
// the window, and is kept for the caller to re-raise.
func (k *Kernel) procLoop() (q *Proc) {
	defer func() {
		if r := recover(); r != nil {
			k.failure, k.woken, q = r, nil, nil
		}
	}()
	return k.loop()
}

// handTo gives the loop to q's goroutine, starting q on its first
// dispatch: on an idle carrier, or on a new one when none is idle. The
// calling goroutine must then wait for the loop to come back (or exit).
func (k *Kernel) handTo(q *Proc) {
	k.cur = q
	k.switches++
	if q.started {
		q.resume <- struct{}{}
		return
	}
	q.started = true
	if k.nidle == 0 {
		c := &carrier{wake: make(chan struct{})}
		q.resume = c.wake
		go c.run(q)
		return
	}
	k.nidle--
	c := k.idle[k.nidle]
	k.idle[k.nidle] = nil
	q.resume, c.next = c.wake, q
	c.wake <- struct{}{}
}

// goHome gives the loop back to the caller's goroutine.
func (k *Kernel) goHome() {
	k.cur = nil
	k.switches++
	k.home <- struct{}{}
}

// await hands the loop from the caller's goroutine to q and waits until it
// comes home.
func (k *Kernel) await(q *Proc) {
	k.handTo(q)
	<-k.home
	k.settle()
}

// settle runs on the caller's goroutine while it holds the loop: it
// unwinds the Procs of a stopped kernel, ends the idle carriers once no
// Proc is live, and re-raises a panic a Proc's goroutine kept.
func (k *Kernel) settle() {
	if k.stopped {
		k.reap()
	}
	if k.procs.head == nil {
		k.retire()
	}
	if r := k.failure; r != nil {
		k.failure = nil
		panic(r)
	}
}

// NextEvent returns the time of the earliest pending event, if any. The
// parallel engine uses it to skip idle stretches: an epoch window starts
// at the earliest work across all shards.
func (k *Kernel) NextEvent() (Time, bool) {
	id := k.next()
	if id < 0 {
		return 0, false
	}
	return k.arena[id].at, true
}

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// Stop halts the simulation: no further events execute, and every parked
// Proc is terminated, in spawn order (the loop is handed to it, and its
// goroutine unwinds via a panic its exit recovers; deferred code in its
// body runs). Called from the caller's goroutine, Stop unwinds them before
// it returns; called from simulation code on a Proc's goroutine, the run
// call or Step does so once the loop comes back to it. The idle carriers
// end too (as they do whenever a run or Step returns with no live Proc).
// Call Stop when abandoning a kernel that has live Procs, so their
// goroutines do not leak.
func (k *Kernel) Stop() {
	if k.stopped {
		return
	}
	k.stopped = true
	if k.cur == nil {
		k.settle()
	}
}

// reap unwinds every live Proc of a stopped kernel, in spawn order, from
// the caller's goroutine; a Proc that never started just ends.
func (k *Kernel) reap() {
	for p := k.procs.head; p != nil; {
		next := p.next
		if p.started {
			k.handTo(p)
			<-k.home
		} else {
			p.done, p.fn = true, nil
			k.procs.remove(p)
		}
		p = next
	}
}

// retire ends the kernel's idle carriers.
func (k *Kernel) retire() {
	for ; k.nidle > 0; k.nidle-- {
		close(k.idle[k.nidle-1].wake)
		k.idle[k.nidle-1] = nil
	}
}

// procList is an intrusive doubly linked list of Procs in spawn order.
type procList struct{ head, tail *Proc }

func (l *procList) push(p *Proc) {
	p.prev = l.tail
	if l.tail != nil {
		l.tail.next = p
	} else {
		l.head = p
	}
	l.tail = p
}

func (l *procList) remove(p *Proc) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.prev, p.next = nil, nil
}
