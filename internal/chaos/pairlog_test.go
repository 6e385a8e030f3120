package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sanft/internal/core"
	"sanft/internal/fabric"
	"sanft/internal/retrans"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// refRun is the oracle's accounting as per-pair hash maps of message IDs
// — the representation the dense pair logs replaced — kept as the
// reference of TestDenseLogsMatchMapReference.
type refRun struct {
	w      Workload
	counts map[Pair]map[uint64]int
	sent   map[Pair]map[uint64]bool // nil for the built-in workload

	lastDelivery map[Pair]sim.Time
	stalls       []time.Duration // gaps the engine must record as stalls
}

func (r *refRun) noteSent(pr Pair, id uint64) {
	if r.sent[pr] == nil {
		r.sent[pr] = map[uint64]bool{}
	}
	r.sent[pr][id] = true
}

func (r *refRun) noteDelivered(e *Engine, pr Pair, id uint64) {
	if r.counts[pr] == nil {
		r.counts[pr] = map[uint64]int{}
	}
	r.counts[pr][id]++
	now := e.C.Now()
	if last, ok := r.lastDelivery[pr]; ok && now.Sub(last) >= e.StallFloor {
		r.stalls = append(r.stalls, now.Sub(last))
	}
	r.lastDelivery[pr] = now
}

// check renders the delivery and dedup violations as CheckInvariants
// reported them from the maps.
func (r *refRun) check(o CheckOpts) []string {
	var out []string
	bad := func(inv, format string, args ...any) {
		out = append(out, inv+": "+fmt.Sprintf(format, args...))
	}
	if r.sent != nil {
		for _, pr := range sortedPairs(r.sent) {
			if !o.AllowLoss {
				missing := 0
				for id := range r.sent[pr] {
					if r.counts[pr][id] == 0 {
						missing++
					}
				}
				if missing > 0 {
					bad("delivery", "pair %d->%d delivered %d of %d messages",
						pr.Src, pr.Dst, len(r.sent[pr])-missing, len(r.sent[pr]))
				}
			}
		}
		for _, pr := range sortedPairs(r.counts) {
			dups := 0
			for _, c := range r.counts[pr] {
				if c > 1 {
					dups += c - 1
				}
			}
			if dups > 0 {
				bad("dedup", "pair %d->%d saw %d duplicate notifications", pr.Src, pr.Dst, dups)
			}
		}
		return out
	}
	if !o.AllowLoss {
		for _, pr := range r.w.Pairs {
			if got := len(r.counts[pr]); got != r.w.Msgs {
				bad("delivery", "pair %d->%d delivered %d of %d messages", pr.Src, pr.Dst, got, r.w.Msgs)
			}
		}
	}
	for _, pr := range r.w.Pairs {
		var dups []uint64
		for id, c := range r.counts[pr] {
			if c > 1 {
				dups = append(dups, id)
			}
		}
		slices.Sort(dups)
		for _, id := range dups {
			bad("dedup", "pair %d->%d message %d notified %d times", pr.Src, pr.Dst, id, r.counts[pr][id])
		}
	}
	return out
}

func (r *refRun) expected() int {
	if r.sent == nil {
		return len(r.w.Pairs) * r.w.Msgs
	}
	n := 0
	for _, ids := range r.sent {
		n += len(ids)
	}
	return n
}

func (r *refRun) numPairs() int {
	if r.sent == nil {
		return len(r.w.Pairs)
	}
	return len(r.sent)
}

func (r *refRun) delivered() int {
	n := 0
	for _, ids := range r.counts {
		n += len(ids)
	}
	return n
}

func (r *refRun) duplicates() int {
	n := 0
	for _, ids := range r.counts {
		for _, c := range ids {
			if c > 1 {
				n += c - 1
			}
		}
	}
	return n
}

// idleEngine is an engine over a cluster that carries no traffic: its
// audit finds nothing outside the delivery logs, so CheckInvariants'
// output is exactly the logs' delivery and dedup violations.
func idleEngine(t *testing.T) *Engine {
	t.Helper()
	c, _ := chainCluster(1, Baseline())
	t.Cleanup(c.Stop)
	return NewEngine(c, 1)
}

// denseScript drives one random script of sends and notifications into a
// fresh Run and into the map reference alike.
func denseScript(t *testing.T, e *Engine, seed int64) (*Run, *refRun, []Pair, CheckOpts) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]Pair, 1+rng.Intn(4))
	for i := range pool {
		pool[i] = Pair{topology.NodeID(rng.Intn(3)), topology.NodeID(3 + i)}
	}
	o := CheckOpts{AllowLoss: rng.Intn(2) == 0}
	external := rng.Intn(2) == 0
	var r *Run
	ref := &refRun{counts: map[Pair]map[uint64]int{}, lastDelivery: map[Pair]sim.Time{}}
	if external {
		r = e.NewExternalRun()
		ref.sent = map[Pair]map[uint64]bool{}
	} else {
		w := Workload{Pairs: pool[:1+rng.Intn(len(pool))], Msgs: 1 + rng.Intn(8)}
		r = &Run{W: w, logs: map[Pair]*pairLog{}}
		for _, pr := range w.Pairs {
			r.log(pr)
			ref.counts[pr] = map[uint64]int{}
		}
		ref.w = w
	}
	// Some pairs only send and some are only notified, so the audits
	// meet pairs present on one side of the accounting alone.
	sendOnly, noteOnly := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
	next := map[Pair]uint64{}
	var seen []uint64
	pick := func(pr Pair) uint64 {
		switch k := rng.Intn(20); {
		case k < 11: // in order
			next[pr]++
			return next[pr]
		case k < 14 && len(seen) > 0: // a duplicate
			return seen[rng.Intn(len(seen))]
		case k < 16: // out of order, near the front
			return next[pr] + uint64(rng.Intn(6))
		case k == 16:
			return 0
		case k == 17: // at the overflow threshold, on either side
			n := uint64(len(r.logs[pr].idsOrNil()))
			return n + overflowGap + uint64(rng.Intn(2))
		case k == 18: // well past it
			return next[pr] + overflowGap + 2 + uint64(rng.Intn(1000))
		default:
			return 1 << (40 + rng.Intn(20))
		}
	}
	ops := rng.Intn(80)
	for i := 0; i < ops; i++ {
		pr := pool[rng.Intn(len(pool))]
		if !external && rng.Intn(8) != 0 {
			// The built-in workload's receivers notify its own pairs.
			pr = ref.w.Pairs[rng.Intn(len(ref.w.Pairs))]
		}
		id := pick(pr)
		seen = append(seen, id)
		send := external && pr != noteOnly && (pr == sendOnly || rng.Intn(2) == 0)
		if send {
			r.NoteSent(pr, id)
			ref.noteSent(pr, id)
			continue
		}
		if pr == sendOnly && external {
			continue
		}
		if rng.Intn(3) == 0 {
			// Let simulated time pass, so some gaps are stalls.
			e.C.RunFor(time.Duration(rng.Intn(3000)) * time.Microsecond)
		}
		e.NoteDelivered(r, pr, id)
		ref.noteDelivered(e, pr, id)
	}
	// One script in fifty sweeps a pair in order far enough that its
	// dense log grows over the IDs parked in the overflow map.
	if rng.Intn(50) == 0 {
		pr := pool[0]
		if !external {
			pr = ref.w.Pairs[0]
		}
		far := uint64(overflowGap + 100 + rng.Intn(100))
		e.NoteDelivered(r, pr, far)
		ref.noteDelivered(e, pr, far)
		if external {
			r.NoteSent(pr, far+1)
			ref.noteSent(pr, far+1)
		}
		for id := uint64(1); id <= far+50; id += uint64(1 + rng.Intn(2)) {
			if external && id%3 == 0 {
				r.NoteSent(pr, id)
				ref.noteSent(pr, id)
			}
			e.NoteDelivered(r, pr, id)
			ref.noteDelivered(e, pr, id)
		}
		for id := range r.logs[pr].over {
			if id <= far+50 {
				t.Fatalf("seed %d: ID %d stayed in the overflow map past the sweep", seed, id)
			}
		}
	}
	return r, ref, pool, o
}

// idsOrNil returns the dense log of l (nil for a missing log).
func (l *pairLog) idsOrNil() []msgRec {
	if l == nil {
		return nil
	}
	return l.ids
}

// TestDenseLogsMatchMapReference runs 1,500 seeded random scripts of
// NoteSent and NoteDelivered — duplicates, out-of-order IDs, ID 0, IDs on
// both sides of the overflow threshold, pairs only sent or only notified,
// both run kinds, AllowLoss on and off — and requires every reader of the
// dense pair logs to agree with the per-pair map reference: the
// violation list (text and order), the totals, every per-pair and
// per-message count, and the delivery stalls fed to the MTTR histogram.
func TestDenseLogsMatchMapReference(t *testing.T) {
	e := idleEngine(t)
	for seed := int64(1); seed <= 1500; seed++ {
		stalls, stallNS := e.MTTR().Count(), e.MTTR().Sum()
		r, ref, pool, o := denseScript(t, e, seed)
		var refNS time.Duration
		for _, d := range ref.stalls {
			refNS += d
		}
		if n, ns := e.MTTR().Count()-stalls, e.MTTR().Sum()-stallNS; n != uint64(len(ref.stalls)) || ns != refNS {
			t.Fatalf("seed %d: %d stalls totalling %v recorded, want %d totalling %v", seed, n, ns, len(ref.stalls), refNS)
		}
		var got []string
		for _, v := range CheckInvariants(e, r, o) {
			got = append(got, v.String())
		}
		if want := ref.check(o); !slices.Equal(got, want) {
			t.Fatalf("seed %d: violations\n got %q\nwant %q", seed, got, want)
		}
		if g, w := r.Delivered(), ref.delivered(); g != w {
			t.Fatalf("seed %d: Delivered %d, want %d", seed, g, w)
		}
		if g, w := r.Duplicates(), ref.duplicates(); g != w {
			t.Fatalf("seed %d: Duplicates %d, want %d", seed, g, w)
		}
		if g, w := r.Expected(), ref.expected(); g != w {
			t.Fatalf("seed %d: Expected %d, want %d", seed, g, w)
		}
		if g, w := r.NumPairs(), ref.numPairs(); g != w {
			t.Fatalf("seed %d: NumPairs %d, want %d", seed, g, w)
		}
		for _, pr := range append(pool, Pair{99, 98}) {
			if g, w := r.DeliveredOn(pr), len(ref.counts[pr]); g != w {
				t.Fatalf("seed %d: DeliveredOn(%v) %d, want %d", seed, pr, g, w)
			}
			ids := []uint64{0, 1, 2, overflowGap, 1 << 50}
			for id := range ref.counts[pr] {
				ids = append(ids, id, id+1)
			}
			for id := range ref.sent[pr] {
				ids = append(ids, id)
			}
			for _, id := range ids {
				if g, w := r.Count(pr, id), ref.counts[pr][id]; g != w {
					t.Fatalf("seed %d: Count(%v, %d) %d, want %d", seed, pr, id, g, w)
				}
			}
		}
	}
}

// TestRunNoteAllocs: 100,000 in-order sends and notifications on one
// pair allocate only the run, its pair log and the dense log's doubling
// growth — no per-message hash-map work.
func TestRunNoteAllocs(t *testing.T) {
	e := idleEngine(t)
	pr := Pair{1, 2}
	allocs := testing.AllocsPerRun(1, func() {
		r := e.NewExternalRun()
		for id := uint64(1); id <= 100000; id++ {
			r.NoteSent(pr, id)
			e.NoteDelivered(r, pr, id)
		}
		if r.Delivered() != 100000 || r.Expected() != 100000 {
			t.Fatalf("delivered %d of %d, want 100000 of 100000", r.Delivered(), r.Expected())
		}
	})
	if allocs > 40 {
		t.Fatalf("100,000 in-order notes allocated %.0f times, want at most 40", allocs)
	}
}

// TestLivenessDropRampAuditsBetweenPackets is the regression test of the
// audit instant: liveness sessions transmit forever, and at seed 1 a
// control packet of drop-ramp/liveness is still crossing the fabric when
// the campaign's span ends. finish drains it before the audit, so the
// campaign passes.
func TestLivenessDropRampAuditsBetweenPackets(t *testing.T) {
	c, _ := FindWith("drop-ramp", AdaptiveLiveness())
	if rep := c.Run(1); !rep.Passed() {
		t.Fatalf("drop-ramp/liveness at seed 1 failed:\n%s", rep)
	}
}

// TestFinishDrainBoundStillReportsWorms: finish's drain is bounded, so
// a worm still in flight past it is reported. On a fabric slowed so that
// a 4-byte message takes several hundred microseconds per hop, a message
// injected just before the span's end is still crossing 100 µs after it.
func TestFinishDrainBoundStillReportsWorms(t *testing.T) {
	nw, rows := topology.Chain(3, 2, 2)
	hosts := append(append([]topology.NodeID{}, rows[0]...), rows[2]...)
	fab := fabric.DefaultConfig()
	fab.LinkRate = 100e3
	c := core.New(core.Config{
		Net: nw, Hosts: hosts, FT: true, Fabric: fab, Seed: 1,
		Retrans: retrans.Config{QueueSize: 16, Interval: time.Millisecond},
	})
	e := NewEngine(c, 1)
	r := e.NewExternalRun()
	const span = 10 * time.Millisecond
	exp := c.Endpoint(hosts[3]).Export("late", 64)
	c.K.At(c.Now().Add(span-50*time.Microsecond), func() {
		c.K.Spawn("late-send", func(p *sim.Proc) {
			imp, err := c.Endpoint(hosts[0]).Import(hosts[3], exp.Name)
			if err != nil {
				panic(err)
			}
			imp.Send(p, 0, make([]byte, 4), false)
		})
	})
	rep := finish("late-send", Baseline(), 1, e, r, CheckOpts{AllowLoss: true}, span)
	if got, want := c.Now(), (span + drainBound); time.Duration(got) != want {
		t.Fatalf("audit at %v, want the span plus the drain bound, %v", got, want)
	}
	var worms []Violation
	for _, v := range rep.Violations {
		if v.Invariant == "worms" {
			worms = append(worms, v)
		}
	}
	if len(worms) != 1 {
		t.Fatalf("violations %v, want one worms violation", rep.Violations)
	}
}
