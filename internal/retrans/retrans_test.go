package retrans

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sanft/internal/proto"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

const dst = topology.NodeID(7)
const src = topology.NodeID(3)

func at(us int64) sim.Time { return sim.Time(us * 1000) }

func TestPrepareAssignsSequentialSeqs(t *testing.T) {
	s := NewSender(Config{QueueSize: 8})
	for i := 0; i < 5; i++ {
		e := s.Prepare(dst, at(0), 8, nil, 100)
		if e.Seq != uint64(i) || e.Gen != 0 {
			t.Fatalf("entry %d: seq=%d gen=%d", i, e.Seq, e.Gen)
		}
	}
	if s.Unacked(dst) != 5 {
		t.Fatalf("unacked = %d, want 5", s.Unacked(dst))
	}
	// Independent destination gets its own numbering.
	e := s.Prepare(dst+1, at(0), 8, nil, 100)
	if e.Seq != 0 {
		t.Fatalf("other-dest seq = %d, want 0", e.Seq)
	}
}

func TestCumulativeAckFreesPrefix(t *testing.T) {
	s := NewSender(Config{QueueSize: 8})
	var es []*Entry
	for i := 0; i < 6; i++ {
		e := s.Prepare(dst, at(0), 8, i, 100)
		s.OnTransmitted(e, at(int64(i)))
		es = append(es, e)
	}
	freed := s.OnAck(dst, 0, 3, at(10))
	if len(freed) != 4 {
		t.Fatalf("freed %d, want 4 (seqs 0-3)", len(freed))
	}
	for i, e := range freed {
		if e != es[i] {
			t.Fatal("freed wrong entries")
		}
	}
	if s.Unacked(dst) != 2 {
		t.Fatalf("unacked = %d, want 2", s.Unacked(dst))
	}
	// Re-ack of an old seq frees nothing.
	if freed := s.OnAck(dst, 0, 2, at(11)); len(freed) != 0 {
		t.Fatalf("stale ack freed %d entries", len(freed))
	}
	// Wrong generation frees nothing.
	if freed := s.OnAck(dst, 5, 5, at(12)); len(freed) != 0 {
		t.Fatal("wrong-generation ack freed entries")
	}
}

func TestTickGoBackN(t *testing.T) {
	s := NewSender(Config{QueueSize: 8, Interval: time.Millisecond})
	var es []*Entry
	for i := 0; i < 4; i++ {
		e := s.Prepare(dst, at(0), 8, i, 100)
		s.OnTransmitted(e, at(0))
		es = append(es, e)
	}
	// Fifth entry prepared but never transmitted (still in TX queue).
	s.Prepare(dst, at(0), 8, 4, 100)

	// Before the interval: nothing.
	if b := s.Tick(at(500)); len(b) != 0 {
		t.Fatalf("premature retransmission: %v", b)
	}
	// After the interval: all four transmitted entries, in order; the
	// unsent fifth is excluded.
	batches := s.Tick(at(1001))
	if len(batches) != 1 {
		t.Fatalf("batches = %d, want 1", len(batches))
	}
	b := batches[0]
	if b.Dst != dst || len(b.Entries) != 4 {
		t.Fatalf("batch = %+v, want 4 entries to dst", b)
	}
	for i, e := range b.Entries {
		if e != es[i] {
			t.Fatal("batch out of order")
		}
		if e.Retransmits != 1 {
			t.Fatalf("entry %d retransmits = %d", i, e.Retransmits)
		}
	}
	// Immediately after, LastSent is refreshed: no second batch.
	if b := s.Tick(at(1002)); len(b) != 0 {
		t.Fatal("double retransmission within one interval")
	}
	// And again after another interval, still unacked.
	if b := s.Tick(at(2500)); len(b) != 1 {
		t.Fatal("no retransmission after second interval")
	}
}

func TestTickSkipsQueuesWithUntransmittedHead(t *testing.T) {
	s := NewSender(Config{QueueSize: 8, Interval: time.Millisecond})
	s.Prepare(dst, at(0), 8, 0, 100) // never transmitted
	if b := s.Tick(at(5000)); len(b) != 0 {
		t.Fatal("retransmitted a never-transmitted packet")
	}
}

func TestAckRequestFeedbackLevels(t *testing.T) {
	s := NewSender(Config{QueueSize: 32})
	e := s.Prepare(dst, at(0), 32, nil, 100)
	// Plenty free (32 of 32): every K=8th packet requests delayed.
	for i := 0; i < 7; i++ {
		if lvl := s.AckRequestFor(e, 32); lvl != proto.AckNone {
			t.Fatalf("packet %d: level = %v, want none", i, lvl)
		}
	}
	if lvl := s.AckRequestFor(e, 32); lvl != proto.AckDelayed {
		t.Fatalf("8th packet: level = %v, want delayed", lvl)
	}
	// Moderate pressure (≤ 3/4 free): delayed every packet.
	if lvl := s.AckRequestFor(e, 24); lvl != proto.AckDelayed {
		t.Fatalf("moderate pressure: %v, want delayed", lvl)
	}
	// Nearly exhausted (≤ 1/4 free): immediate.
	if lvl := s.AckRequestFor(e, 8); lvl != proto.AckImmediate {
		t.Fatalf("low buffers: %v, want immediate", lvl)
	}
}

func TestReceiverInOrderAcceptance(t *testing.T) {
	r := NewReceiver(Config{})
	for i := 0; i < 5; i++ {
		v := r.OnData(src, 0, uint64(i), proto.AckNone)
		if !v.Accept {
			t.Fatalf("in-order seq %d rejected", i)
		}
	}
	gen, seq, ok := r.CumAck(src)
	if !ok || gen != 0 || seq != 4 {
		t.Fatalf("cum ack = (%d,%d,%v), want (0,4,true)", gen, seq, ok)
	}
}

func TestReceiverDropsOutOfOrderSilently(t *testing.T) {
	r := NewReceiver(Config{})
	r.OnData(src, 0, 0, proto.AckNone)
	// seq 1 lost; 2 and 3 arrive.
	for _, s := range []uint64{2, 3} {
		v := r.OnData(src, 0, s, proto.AckImmediate)
		if v.Accept || v.AckNow {
			t.Fatalf("out-of-order seq %d: verdict %+v, want silent drop", s, v)
		}
	}
	if r.OutOfOrder != 2 {
		t.Fatalf("OutOfOrder = %d, want 2", r.OutOfOrder)
	}
	// Retransmission arrives in order: 1,2,3 all accepted.
	for _, s := range []uint64{1, 2, 3} {
		if v := r.OnData(src, 0, s, proto.AckNone); !v.Accept {
			t.Fatalf("recovered seq %d rejected", s)
		}
	}
}

func TestReceiverDuplicateTriggersReack(t *testing.T) {
	r := NewReceiver(Config{})
	r.OnData(src, 0, 0, proto.AckNone)
	r.OnData(src, 0, 1, proto.AckNone)
	v := r.OnData(src, 0, 0, proto.AckNone)
	if v.Accept {
		t.Fatal("duplicate accepted")
	}
	if !v.AckNow {
		t.Fatal("duplicate should trigger immediate re-ack")
	}
	if r.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", r.Duplicates)
	}
}

func TestReceiverAckRequestVerdicts(t *testing.T) {
	r := NewReceiver(Config{})
	if v := r.OnData(src, 0, 0, proto.AckImmediate); !v.AckNow || v.ArmDelayed {
		t.Fatalf("immediate request: %+v", v)
	}
	if v := r.OnData(src, 0, 1, proto.AckDelayed); v.AckNow || !v.ArmDelayed {
		t.Fatalf("delayed request: %+v", v)
	}
	if v := r.OnData(src, 0, 2, proto.AckNone); v.AckNow || v.ArmDelayed {
		t.Fatalf("no request: %+v", v)
	}
}

func TestPendingAckLifecycle(t *testing.T) {
	r := NewReceiver(Config{})
	if r.PendingAck(src) {
		t.Fatal("pending before any data")
	}
	r.OnData(src, 0, 0, proto.AckNone)
	if !r.PendingAck(src) {
		t.Fatal("not pending after delivery")
	}
	if srcs := r.PendingSources(); len(srcs) != 1 || srcs[0] != src {
		t.Fatalf("pending sources = %v", srcs)
	}
	r.AckEmitted(src)
	if r.PendingAck(src) {
		t.Fatal("still pending after ack emitted")
	}
}

func TestGenerationReset(t *testing.T) {
	s := NewSender(Config{QueueSize: 8})
	for i := 0; i < 3; i++ {
		e := s.Prepare(dst, at(0), 8, i, 100)
		s.OnTransmitted(e, at(0))
	}
	// Ack the first; two remain.
	s.OnAck(dst, 0, 0, at(1))
	entries := s.ResetGeneration(dst, at(2))
	if len(entries) != 2 {
		t.Fatalf("reset returned %d entries, want 2", len(entries))
	}
	for i, e := range entries {
		if e.Gen != 1 || e.Seq != uint64(i) || e.Sent {
			t.Fatalf("entry %d after reset: gen=%d seq=%d sent=%v", i, e.Gen, e.Seq, e.Sent)
		}
	}
	if g := s.Generation(dst); g != 1 {
		t.Fatalf("generation = %d, want 1", g)
	}
	// Next new packet continues the new numbering.
	e := s.Prepare(dst, at(3), 8, 9, 100)
	if e.Gen != 1 || e.Seq != 2 {
		t.Fatalf("post-reset prepare: gen=%d seq=%d, want gen=1 seq=2", e.Gen, e.Seq)
	}
	// Old-generation acks now free nothing.
	if freed := s.OnAck(dst, 0, 5, at(4)); len(freed) != 0 {
		t.Fatal("old-generation ack freed entries after reset")
	}
}

func TestReceiverGenerationHandling(t *testing.T) {
	r := NewReceiver(Config{})
	r.OnData(src, 0, 0, proto.AckNone)
	r.OnData(src, 0, 1, proto.AckNone)
	// New generation restarts numbering at 0.
	if v := r.OnData(src, 1, 0, proto.AckNone); !v.Accept {
		t.Fatal("first packet of new generation rejected")
	}
	gen, seq, ok := r.CumAck(src)
	if !ok || gen != 1 || seq != 0 {
		t.Fatalf("cum ack = (%d,%d,%v), want (1,0,true)", gen, seq, ok)
	}
	// Stragglers from generation 0 are dropped.
	if v := r.OnData(src, 0, 2, proto.AckNone); v.Accept || v.AckNow {
		t.Fatal("stale-generation packet not dropped silently")
	}
	if r.StaleGen != 1 {
		t.Fatalf("StaleGen = %d, want 1", r.StaleGen)
	}
}

func TestStalePathDetection(t *testing.T) {
	s := NewSender(Config{QueueSize: 8, PermFailThreshold: 100 * time.Millisecond})
	e := s.Prepare(dst, at(0), 8, nil, 100)
	s.OnTransmitted(e, at(0))
	if paths := s.StalePaths(at(50_000)); len(paths) != 0 {
		t.Fatal("path stale too early")
	}
	if paths := s.StalePaths(at(100_000)); len(paths) != 1 || paths[0] != dst {
		t.Fatalf("stale paths = %v, want [dst]", paths)
	}
	// Progress resets the clock.
	s.OnAck(dst, 0, 0, at(100_000))
	if paths := s.StalePaths(at(150_000)); len(paths) != 0 {
		t.Fatal("path stale after full ack")
	}
}

// An idle gap is not a failure: the progress clock restarts when the
// first packet after a drained queue is prepared, so a destination that
// was silent longer than PermFailThreshold (a closed-loop think pause,
// say) is not declared stale moments after traffic resumes.
func TestStalePathIdleGapNotStale(t *testing.T) {
	s := NewSender(Config{QueueSize: 8, PermFailThreshold: 100 * time.Millisecond})
	e := s.Prepare(dst, at(0), 8, nil, 100)
	s.OnTransmitted(e, at(0))
	s.OnAck(dst, 0, 0, at(10_000)) // queue drains at t=10ms
	// Traffic resumes after a 490ms idle gap — far past the threshold.
	e2 := s.Prepare(dst, at(500_000), 8, nil, 100)
	s.OnTransmitted(e2, at(500_000))
	if paths := s.StalePaths(at(500_001)); len(paths) != 0 {
		t.Fatalf("healthy path stale after idle gap: %v", paths)
	}
	// The new packet ages on its own clock from the resume point.
	if paths := s.StalePaths(at(600_000)); len(paths) != 1 || paths[0] != dst {
		t.Fatalf("stale paths = %v, want [dst]", paths)
	}
}

func TestStalePathDetectionDisabled(t *testing.T) {
	s := NewSender(Config{QueueSize: 8}) // threshold 0 = disabled
	e := s.Prepare(dst, at(0), 8, nil, 100)
	s.OnTransmitted(e, at(0))
	if paths := s.StalePaths(at(10_000_000)); paths != nil {
		t.Fatal("detection should be disabled")
	}
}

func TestMarkUnreachable(t *testing.T) {
	s := NewSender(Config{QueueSize: 8})
	for i := 0; i < 3; i++ {
		e := s.Prepare(dst, at(0), 8, i, 100)
		s.OnTransmitted(e, at(0))
	}
	dropped := s.MarkUnreachable(dst)
	if len(dropped) != 3 {
		t.Fatalf("dropped %d, want 3", len(dropped))
	}
	if !s.Unreachable(dst) || s.Unacked(dst) != 0 {
		t.Fatal("state not cleared")
	}
	// Unreachable destinations are skipped by the timer.
	if b := s.Tick(at(10_000)); len(b) != 0 {
		t.Fatal("tick retransmitted to unreachable destination")
	}
	// Sending again clears the flag.
	s.Prepare(dst, at(1), 8, 9, 100)
	if s.Unreachable(dst) {
		t.Fatal("prepare should clear unreachable")
	}
}

// lossyChannel property test: under arbitrary data and ack loss, the
// protocol delivers every message exactly once, in order.
func runLossyChannel(t *testing.T, seed int64, n int, dataLoss, ackLoss float64, q int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{QueueSize: q, Interval: 100 * time.Microsecond}
	s := NewSender(cfg)
	r := NewReceiver(cfg)

	var delivered []int
	now := sim.Time(0)
	step := sim.Time(10_000) // 10µs per round

	nextMsg := 0
	type wirePkt struct {
		e     *Entry
		msg   int
		level proto.AckLevel
	}
	var wire []wirePkt // data frames "in flight" this round

	transmit := func(e *Entry, msg int) {
		lvl := s.AckRequestFor(e, cfg.QueueSize-s.TotalUnacked())
		s.OnTransmitted(e, now)
		if rng.Float64() >= dataLoss {
			wire = append(wire, wirePkt{e, msg, lvl})
		}
	}

	deliverAck := func() {
		if gen, seq, ok := r.CumAck(dst0); ok {
			if rng.Float64() >= ackLoss {
				s.OnAck(dst0, gen, seq, now)
			}
			r.AckEmitted(dst0)
		}
	}

	for round := 0; round < 200_000; round++ {
		now = now.Add(time.Duration(step))
		// Send new messages while buffers are available.
		for nextMsg < n && s.TotalUnacked() < q {
			e := s.Prepare(dst0, now, q-s.TotalUnacked(), nextMsg, 64)
			transmit(e, nextMsg)
			nextMsg++
		}
		// Timer-driven retransmission.
		for _, b := range s.Tick(now) {
			for _, e := range b.Entries {
				if rng.Float64() >= dataLoss {
					wire = append(wire, wirePkt{e, e.Payload.(int), proto.AckImmediate})
				}
			}
		}
		// Deliver in-flight frames.
		ackWanted := false
		for _, p := range wire {
			v := r.OnData(dst0, p.e.Gen, p.e.Seq, p.level)
			if v.Accept {
				delivered = append(delivered, p.msg)
			}
			if v.AckNow || v.ArmDelayed {
				ackWanted = true
			}
		}
		wire = wire[:0]
		if ackWanted || round%10 == 9 { // delayed-ack flush
			deliverAck()
		}
		if len(delivered) == n && s.TotalUnacked() == 0 {
			break
		}
	}
	if len(delivered) != n {
		t.Fatalf("seed %d: delivered %d of %d messages", seed, len(delivered), n)
	}
	for i, m := range delivered {
		if m != i {
			t.Fatalf("seed %d: delivery out of order at %d: got %d", seed, i, m)
		}
	}
	if s.TotalUnacked() != 0 {
		t.Fatalf("seed %d: %d buffers leaked", seed, s.TotalUnacked())
	}
}

const dst0 = topology.NodeID(1)

func TestLossyChannelModerateLoss(t *testing.T) {
	runLossyChannel(t, 1, 500, 0.05, 0.05, 32)
}

func TestLossyChannelHeavyLoss(t *testing.T) {
	runLossyChannel(t, 2, 200, 0.3, 0.3, 8)
}

func TestLossyChannelTinyQueue(t *testing.T) {
	runLossyChannel(t, 3, 200, 0.1, 0.1, 2)
}

func TestLossyChannelNoLoss(t *testing.T) {
	runLossyChannel(t, 4, 1000, 0, 0, 128)
}

func TestPropertyLossyChannel(t *testing.T) {
	f := func(seed int64, qx uint8) bool {
		q := []int{2, 4, 8, 32}[qx%4]
		runLossyChannel(t, seed, 100, 0.15, 0.15, q)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTickSkipsInFlightEntries(t *testing.T) {
	s := NewSender(Config{QueueSize: 8, Interval: time.Millisecond})
	e := s.Prepare(dst, at(0), 8, nil, 100)
	s.OnTransmitted(e, at(0))
	e.InFlight = 1 // a copy is queued at the NIC / on the wire
	if b := s.Tick(at(5000)); len(b) != 0 {
		t.Fatal("retransmitted an in-flight entry")
	}
	e.InFlight = 0
	if b := s.Tick(at(6000)); len(b) != 1 {
		t.Fatal("no retransmission after the copy drained")
	}
	// A batch stops at the first in-flight entry to preserve order.
	e2 := s.Prepare(dst, at(0), 8, nil, 100)
	s.OnTransmitted(e2, at(0))
	e2.InFlight = 1
	b := s.Tick(at(9_000_000))
	if len(b) != 1 || len(b[0].Entries) != 1 || b[0].Entries[0] != e {
		t.Fatalf("batch should contain only the drained head, got %+v", b)
	}
}

func TestFixedAckPolicyStarvationEscape(t *testing.T) {
	s := NewSender(Config{QueueSize: 8, FixedAckEvery: 32})
	e := s.Prepare(dst, at(0), 8, nil, 100)
	// Plenty of buffers: only every 32nd packet requests an ack.
	for i := 0; i < 31; i++ {
		if lvl := s.AckRequestFor(e, 4); lvl != proto.AckNone {
			t.Fatalf("packet %d: %v, want none", i, lvl)
		}
	}
	if lvl := s.AckRequestFor(e, 4); lvl != proto.AckDelayed {
		t.Fatalf("32nd packet: %v, want delayed", lvl)
	}
	// Out of buffers: must escape to immediate regardless of the period.
	if lvl := s.AckRequestFor(e, 0); lvl != proto.AckImmediate {
		t.Fatalf("starved: %v, want immediate", lvl)
	}
}

// TestEntryReleaseRules: Release hands an entry back only once it has
// left its queue, no copy of it is in flight and no batch pins it; a free
// entry keeps no payload, is the next one Prepare hands out, and
// releasing it again panics.
func TestEntryReleaseRules(t *testing.T) {
	s := NewSender(Config{QueueSize: 8})
	e := s.Prepare(dst, at(0), 8, "frame", 100)
	s.OnTransmitted(e, at(0))
	e.InFlight++ // a retransmitted copy waits in the transmit queue
	s.Pin(e)     // and a batch with pending firmware work names it
	s.Release(e)
	if next := s.Prepare(dst, at(1), 8, nil, 100); next == e {
		t.Fatal("a queued entry was handed out again")
	}
	s.Recycle(s.OnAck(dst, 0, 0, at(2)))
	if next := s.Prepare(dst, at(3), 8, nil, 100); next == e {
		t.Fatal("an entry with a copy in flight and a pin was handed out again")
	}
	s.Unpin(e)
	if next := s.Prepare(dst, at(4), 8, nil, 100); next == e {
		t.Fatal("an entry with a copy in flight was handed out again")
	}
	if e.Payload != "frame" {
		t.Fatal("an entry still reachable lost its payload")
	}
	e.InFlight--
	s.Release(e)
	if e.Payload != nil {
		t.Fatal("a free entry keeps its payload")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("releasing a free entry twice did not panic")
			}
		}()
		s.Release(e)
	}()
	if next := s.Prepare(dst, at(5), 8, nil, 100); next != e || next.Seq != 4 || next.Payload != nil {
		t.Fatalf("Prepare did not reuse the free entry as a fresh one: %+v", next)
	}
}
