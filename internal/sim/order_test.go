package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refEvent is one event as the reference model sees it: its full ordering
// key, the handle the kernel returned, and whether it is still pending.
type refEvent struct {
	at, sched Time
	from      Origin
	key       uint64
	timer     Timer
	pending   bool
}

// before is the kernel's documented order, written out independently:
// time, scheduling instant, origin (its instant, then its key), key.
func (a *refEvent) before(b *refEvent) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.sched != b.sched:
		return a.sched < b.sched
	case a.from.Sched != b.from.Sched:
		return a.from.Sched < b.from.Sched
	case a.from.Key != b.from.Key:
		return a.from.Key < b.from.Key
	}
	return a.key < b.key
}

func (a *refEvent) String() string {
	return fmt.Sprintf("(at %d, sched %d, from {%d %#x}, key %#x)", a.at, a.sched, a.from.Sched, a.from.Key, a.key)
}

// reservation is a key NextKey reserved, with the origin and instant it
// was reserved at, for a later AtFrom.
type reservation struct {
	asOf Time
	from Origin
	key  uint64
}

// refRun drives one kernel with random schedules and cancels, from its
// handlers and from outside a run, and checks every event it fires, and
// the queue's observable state, against a sorted reference list.
type refRun struct {
	t      *testing.T
	seed   int64
	k      *Kernel
	rng    *rand.Rand
	seq    uint64        // the kernel's scheduling sequence, as counted here
	keys   uint64        // source of distinct AtAsOf and AtFrom keys
	budget int           // events left to schedule
	queue  []*refEvent   // pending events, sorted by before
	all    []*refEvent   // every event scheduled, for cancels and Timer.Pending
	resv   []reservation // NextKey reservations not used yet

	// Coverage of the two heaps: checks that found the far root next,
	// and cancels of events held in the near and in the far heap.
	farNext, nearCancels, farCancels int
}

func (r *refRun) fatalf(format string, args ...any) {
	r.t.Fatalf("seed %d: "+format, append([]any{r.seed}, args...)...)
}

// Fire is the handler of every event: the event must be the head of the
// reference list. It then schedules and cancels more.
func (r *refRun) Fire(arg any) {
	ev := arg.(*refEvent)
	if len(r.queue) == 0 || r.queue[0] != ev {
		want := "none"
		if len(r.queue) > 0 {
			want = r.queue[0].String()
		}
		r.fatalf("fired %v, reference runs %s next", ev, want)
	}
	if now := r.k.Now(); now != ev.at {
		r.fatalf("fired %v at now %d", ev, now)
	}
	r.queue = r.queue[1:]
	ev.pending = false
	r.check(4)
	r.act()
	r.check(4)
}

// after draws an event's time from base: mostly base or a few ticks later,
// so that many events share an instant and the tie-breaks decide their
// order. Now and then it is horizon away, give or take a tick, or on a
// coarse grid of instants one or two horizons ahead, so that events enter
// the far heap and several share each far instant.
func (r *refRun) after(base Time) Time {
	switch n := r.rng.Intn(12); {
	case n < 4:
		return base
	case n < 9:
		return base + Time(1+r.rng.Intn(4))
	case n < 10:
		return base + Time(5+r.rng.Intn(40))
	case n < 11:
		return base + horizon + Time(r.rng.Intn(3)) - 1
	}
	return (base/horizon+Time(1+r.rng.Intn(2)))*horizon + Time(r.rng.Intn(3))
}

// add records a newly scheduled event in the reference list.
func (r *refRun) add(ev *refEvent) {
	ev.pending = true
	i := sort.Search(len(r.queue), func(i int) bool { return ev.before(r.queue[i]) })
	r.queue = append(r.queue, nil)
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = ev
	r.all = append(r.all, ev)
	r.budget--
}

// schedule schedules one event through one of the kernel's entry points.
func (r *refRun) schedule() {
	k := r.k
	now := k.Now()
	switch r.rng.Intn(6) {
	case 0, 1, 2: // an ordinary event, at now or later
		r.seq++
		ev := &refEvent{at: r.after(now), sched: now, from: k.Origin(), key: r.seq | laterBand}
		ev.timer = k.AtHandler(ev.at, r, ev)
		r.add(ev)
	case 3: // AtAsOf, as of a past, the present or a future instant
		at := r.after(now)
		asOf := at - Time(r.rng.Intn(8))
		r.keys++
		if asOf < 0 || k.Ran(at, asOf, r.keys) {
			return
		}
		ev := &refEvent{at: at, sched: asOf, from: Origin{Sched: math.MinInt64}, key: r.keys}
		ev.timer = k.AtAsOf(at, asOf, r.keys, r, ev)
		r.add(ev)
	case 4: // AtFrom with a key NextKey reserved, now or earlier
		if len(r.resv) == 0 || r.rng.Intn(3) == 0 {
			r.seq++
			if key := k.NextKey(); key != r.seq|laterBand {
				r.fatalf("NextKey = %#x, want %#x", key, r.seq|laterBand)
			}
			r.resv = append(r.resv, reservation{asOf: now, from: k.Origin(), key: r.seq | laterBand})
			return
		}
		i := r.rng.Intn(len(r.resv))
		rv := r.resv[i]
		r.resv = append(r.resv[:i], r.resv[i+1:]...)
		at := r.after(max(now, rv.asOf))
		if k.RanFrom(at, rv.asOf, rv.from, rv.key) {
			return
		}
		ev := &refEvent{at: at, sched: rv.asOf, from: rv.from, key: rv.key}
		ev.timer = k.AtFrom(at, rv.asOf, rv.from, rv.key, r, ev)
		r.add(ev)
	case 5: // AtFrom from a pending event's origin, as a skipped chain would
		if len(r.queue) == 0 {
			return
		}
		p := r.queue[r.rng.Intn(len(r.queue))]
		from := Origin{Sched: p.sched, Key: p.key}
		at := r.after(p.at)
		r.keys++
		if k.RanFrom(at, p.at, from, r.keys) {
			return
		}
		ev := &refEvent{at: at, sched: p.at, from: from, key: r.keys}
		ev.timer = k.AtFrom(at, p.at, from, r.keys, r, ev)
		r.add(ev)
	}
}

// cancel cancels a random event, pending or not: Cancel must report
// whether it was pending, and a pending one leaves the queue at once.
func (r *refRun) cancel() {
	if len(r.all) == 0 {
		return
	}
	var ev *refEvent
	if len(r.queue) > 0 && r.rng.Intn(4) != 0 {
		ev = r.queue[r.rng.Intn(len(r.queue))]
	} else {
		ev = r.all[r.rng.Intn(len(r.all))]
	}
	if e := &r.k.arena[ev.timer.id]; ev.pending && e.pos != inFront {
		if e.pos&farTag != 0 {
			r.farCancels++
		} else {
			r.nearCancels++
		}
	}
	if got := ev.timer.Cancel(); got != ev.pending {
		r.fatalf("Cancel of %v = %v, pending %v", ev, got, ev.pending)
	}
	if !ev.pending {
		return
	}
	ev.pending = false
	for i, q := range r.queue {
		if q == ev {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			break
		}
	}
}

// act schedules up to three events and now and then cancels one.
func (r *refRun) act() {
	for n := r.rng.Intn(4); n > 0 && r.budget > 0; n-- {
		r.schedule()
	}
	if r.rng.Intn(3) == 0 {
		r.cancel()
	}
}

// check compares Pending, NextEvent and, for sample random events (every
// event when sample is 0), Timer.Pending with the reference.
func (r *refRun) check(sample int) {
	k := r.k
	if got := k.Pending(); got != len(r.queue) {
		r.fatalf("Pending = %d, want %d", got, len(r.queue))
	}
	if got := k.Stats().Pending; got != len(r.queue) {
		r.fatalf("Stats().Pending = %d, want %d", got, len(r.queue))
	}
	at, ok := k.NextEvent()
	if ok != (len(r.queue) > 0) || ok && at != r.queue[0].at {
		r.fatalf("NextEvent = %d, %v with %d pending", at, ok, len(r.queue))
	}
	if k.nfront == 0 && len(k.far) > 0 && k.root() == k.far[0] {
		r.farNext++
	}
	if sample == 0 {
		for _, ev := range r.all {
			if ev.timer.Pending() != ev.pending {
				r.fatalf("Timer.Pending of %v = %v, want %v", ev, !ev.pending, ev.pending)
			}
		}
		return
	}
	for ; sample > 0 && len(r.all) > 0; sample-- {
		ev := r.all[r.rng.Intn(len(r.all))]
		if ev.timer.Pending() != ev.pending {
			r.fatalf("Timer.Pending of %v = %v, want %v", ev, !ev.pending, ev.pending)
		}
	}
}

// bound draws the end of a RunUntil or RunBefore window: a few ticks
// ahead, or a tick before, at or after a pending event, near or far, so
// that windows end between far events too.
func (r *refRun) bound() Time {
	now := r.k.Now()
	if len(r.queue) == 0 || r.rng.Intn(3) != 0 {
		return now + Time(r.rng.Intn(12))
	}
	return max(now, r.queue[r.rng.Intn(len(r.queue))].at+Time(r.rng.Intn(3))-1)
}

// window runs one RunUntil, RunBefore or burst of Steps, or acts from
// outside a run, and checks where it stopped.
func (r *refRun) window() {
	k := r.k
	switch r.rng.Intn(4) {
	case 0:
		bound := r.bound()
		k.RunUntil(bound)
		if k.Now() != bound || len(r.queue) > 0 && r.queue[0].at <= bound {
			r.fatalf("RunUntil(%d) stopped at %d with %d pending", bound, k.Now(), len(r.queue))
		}
	case 1:
		bound := r.bound()
		k.RunBefore(bound)
		if k.Now() != bound || len(r.queue) > 0 && r.queue[0].at < bound {
			r.fatalf("RunBefore(%d) stopped at %d with %d pending", bound, k.Now(), len(r.queue))
		}
	case 2:
		for n := 1 + r.rng.Intn(6); n > 0; n-- {
			had := len(r.queue) > 0
			if k.Step() != had {
				r.fatalf("Step = %v with %d pending", !had, len(r.queue))
			}
		}
	case 3:
		r.act()
	}
	r.check(0)
}

// TestEventOrderMatchesReference drives the kernel at 3,000 seeds with
// every way to schedule an event (AtHandler at now and later, AtAsOf as
// of past and future instants, AtFrom with NextKey-reserved keys and from
// pending events' origins) and random cancels, from handlers and between
// runs, through RunUntil, RunBefore and Step windows. Every event must
// fire in the order of a reference list sorted by (at, sched, from, key),
// and Pending, NextEvent, Timer.Pending and Cancel must agree with it.
// The keys drawn are distinct, so the order is total. Bursts of up to 20
// events fill the front and spill into the heaps; some events are due
// horizon away or more, several at one far instant, and windows end
// between them, so the far heap's root, cancels and removals are checked
// as the near heap's are.
func TestEventOrderMatchesReference(t *testing.T) {
	var heaped, scheduled uint64
	var farNext, nearCancels, farCancels int
	for seed := int64(1); seed <= 3000; seed++ {
		r := &refRun{t: t, seed: seed, k: New(seed), rng: rand.New(rand.NewSource(seed))}
		r.budget = 100 + r.rng.Intn(200)
		for n := r.rng.Intn(20); n > 0; n-- {
			r.schedule()
		}
		for steps := 0; len(r.queue) > 0 || r.budget > 0; steps++ {
			if steps > 10000 {
				t.Fatalf("seed %d: no progress after %d windows", seed, steps)
			}
			if len(r.queue) == 0 {
				r.schedule()
			}
			r.window()
		}
		r.k.Run()
		s := r.k.Stats()
		if s.Scheduled != s.Executed+s.Cancelled || s.Pending != 0 || s.Heaped > s.Scheduled {
			t.Fatalf("seed %d: stats %+v after the drain", seed, s)
		}
		heaped += s.Heaped
		scheduled += s.Scheduled
		farNext += r.farNext
		nearCancels += r.nearCancels
		farCancels += r.farCancels
	}
	if heaped == 0 || heaped == scheduled {
		t.Fatalf("%d of %d events entered a heap: the front or the heaps went unexercised", heaped, scheduled)
	}
	if farNext == 0 || nearCancels == 0 || farCancels == 0 {
		t.Fatalf("far root next %d times, %d near and %d far cancels: a heap went unexercised", farNext, nearCancels, farCancels)
	}
	t.Logf("%d of %d events entered a heap; far root next %d times; %d near and %d far cancels",
		heaped, scheduled, farNext, nearCancels, farCancels)
}
