package nic

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/proto"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/trace"
)

// entryRig is one FT NIC (node 0) on a loopWire whose send DMA takes
// hold, with a route to node 1 and the fixed timer at interval. Frames
// enter as the firmware's send processing hands them over (queueData), so
// each send's entry is known at once. sent records every data packet
// injected: its frame's header as it left, and the entry it belongs to.
type entryRig struct {
	k    *sim.Kernel
	n    *NIC
	ring *trace.Ring
	sent []sentFrame
}

type sentFrame struct {
	gen   uint32
	seq   uint64
	msg   uint64
	retx  bool
	req   proto.AckLevel
	entry *retrans.Entry
}

func newEntryRig(hold, interval time.Duration) *entryRig {
	k := sim.New(1)
	r := &entryRig{k: k, ring: trace.NewRing(1024)}
	w := &loopWire{k: k, hold: hold}
	r.n = New(k, w, 0, Options{FT: true, Retrans: retrans.Config{QueueSize: 32, Interval: interval}, Tracer: r.ring})
	r.n.SetRoute(1, routing.Route{})
	w.onInject = func(pkt *fabric.Packet) {
		if f := pkt.Payload.(*proto.Frame); f.Type == proto.FrameData {
			r.sent = append(r.sent, sentFrame{f.Gen, f.Seq, f.Data.MsgID, f.Retransmitted, f.AckReq, r.n.txCur.entry})
		}
	}
	return r
}

// send hands a data frame of message id, bound for node 1, to the end of
// the firmware's send processing and returns its entry.
func (r *entryRig) send(id uint64) *retrans.Entry {
	f := dataFrame(1, id, []byte{byte(id)})
	f.Src = r.n.node
	r.n.freeBuffers--
	r.n.queueData(f)
	if items := r.n.txQueue.Items(); len(items) > 0 {
		return items[len(items)-1].entry
	}
	return r.n.txCur.entry
}

func (r *entryRig) until(d time.Duration) { r.k.RunUntil(sim.Time(d)) }

// TestEntryAckedWhileCopyQueued: an ack frees an entry whose retransmitted
// copy still waits in the transmit queue. The entry is not handed out
// again until the copy has left the wire, and is then.
func TestEntryAckedWhileCopyQueued(t *testing.T) {
	const interval = 50 * time.Microsecond
	r := newEntryRig(5*time.Microsecond, interval)
	e1 := r.send(1)
	// The first tick's scan ends at interval+scan and batches e1; its
	// firmware work queues the copy RetransPktCost later. A control frame
	// keeps the send DMA busy meanwhile, so the copy waits.
	scanned := interval + r.n.scanCost()
	r.until(scanned)
	r.n.SendControl(&proto.Frame{Type: proto.FrameAck, Dst: 1}, routing.Route{})
	r.until(scanned + r.n.cost.RetransPktCost)
	if q := r.n.txQueue.Items(); len(q) != 1 || q[0].entry != e1 || e1.InFlight != 1 {
		t.Fatalf("want e1's copy waiting in the transmit queue: %d waiting, e1 in flight %d", len(q), e1.InFlight)
	}
	r.n.processAck(1, 0, 0)
	if r.n.snd.Unacked(1) != 0 {
		t.Fatal("the ack freed nothing")
	}
	if e2 := r.send(2); e2 == e1 {
		t.Fatal("entry handed out while its copy waits in the transmit queue")
	}
	r.until(scanned + 20*time.Microsecond)
	if e1.Payload != nil {
		t.Fatal("entry keeps its frame once its copy left the wire")
	}
	if e3 := r.send(3); e3 != e1 {
		t.Fatal("entry not reused once its copy left the wire")
	}
}

// TestRetransmitBatchAckedBeforeItsWork: a timer scan batches three
// entries, and an ack frees all three before the batch's firmware work
// runs. The work still resends the three frames, exactly as it does for
// entries still queued, and none of the entries is handed out again
// before its copy has left the wire.
func TestRetransmitBatchAckedBeforeItsWork(t *testing.T) {
	const interval = 50 * time.Microsecond
	r := newEntryRig(time.Microsecond, interval)
	batch := []*retrans.Entry{r.send(1), r.send(2), r.send(3)}
	scanned := interval + r.n.scanCost()
	r.until(scanned)
	r.n.processAck(1, 0, 2)
	if r.n.snd.Unacked(1) != 0 {
		t.Fatal("the ack freed nothing")
	}
	during := []*retrans.Entry{r.send(4)}
	r.until(scanned + 3*r.n.cost.RetransPktCost)
	during = append(during, r.send(5))
	r.until(scanned + 20*time.Microsecond)
	for _, e := range during {
		if slices.Contains(batch, e) {
			t.Fatal("an entry of a pending batch was handed out again")
		}
	}

	want := []sentFrame{
		{0, 0, 1, true, proto.AckNone, batch[0]},
		{0, 1, 2, true, proto.AckNone, batch[1]},
		{0, 2, 3, true, proto.AckImmediate, batch[2]},
	}
	var got []sentFrame
	for _, s := range r.sent {
		if s.retx {
			got = append(got, s)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the batch resent\n  %+v\nwant\n  %+v", got, want)
	}
	var traced [][3]uint64
	for _, e := range r.ring.Events() {
		if e.Kind == trace.EvRetransmit {
			traced = append(traced, [3]uint64{uint64(e.Gen), e.Seq, e.Msg})
		}
	}
	if wantTrace := [][3]uint64{{0, 0, 1}, {0, 1, 2}, {0, 2, 3}}; !slices.Equal(traced, wantTrace) {
		t.Fatalf("retransmit trace %v, want %v", traced, wantTrace)
	}

	reused := []*retrans.Entry{r.send(6), r.send(7), r.send(8)}
	for _, e := range batch {
		if !slices.Contains(reused, e) {
			t.Fatal("a batch entry was not reused once its copy left the wire")
		}
	}
}

// TestMarkUnreachableWithCopiesInFlight: MarkUnreachable drops two
// entries, one streaming on the wire and one waiting in the transmit
// queue. Their buffers are free at once; the entries go back only once
// their copies are gone.
func TestMarkUnreachableWithCopiesInFlight(t *testing.T) {
	r := newEntryRig(5*time.Microsecond, time.Millisecond)
	e1, e2 := r.send(1), r.send(2)
	free := r.n.FreeBuffers()
	r.n.MarkUnreachable(1)
	if r.n.FreeBuffers() != free+2 || e1.InFlight != 1 || e2.InFlight != 1 {
		t.Fatalf("free buffers %d (want %d), in flight %d and %d", r.n.FreeBuffers(), free+2, e1.InFlight, e2.InFlight)
	}
	if e3 := r.send(3); e3 == e1 || e3 == e2 {
		t.Fatal("a dropped entry was handed out while a copy of it is in flight")
	}
	r.until(30 * time.Microsecond)
	if e1.Payload != nil || e2.Payload != nil {
		t.Fatal("dropped entries keep their frames once their copies are gone")
	}
	r.n.SetRoute(1, routing.Route{})
	reused := []*retrans.Entry{r.send(4), r.send(5)}
	if !slices.Contains(reused, e1) || !slices.Contains(reused, e2) {
		t.Fatal("dropped entries not reused once their copies are gone")
	}
}

// TestResetPathEntries: a generation reset renumbers two entries and
// queues a second copy of each while the first copies are still on the
// wire or queued. An ack of the new generation frees both; they go back
// only once all four copies are gone.
func TestResetPathEntries(t *testing.T) {
	r := newEntryRig(5*time.Microsecond, time.Millisecond)
	e1, e2 := r.send(1), r.send(2)
	r.n.ResetPath(1, routing.Route{})
	if e1.InFlight != 2 || e2.InFlight != 2 || e1.Gen != 1 || e2.Seq != 1 {
		t.Fatalf("after the reset: in flight %d and %d, e1 gen %d, e2 seq %d", e1.InFlight, e2.InFlight, e1.Gen, e2.Seq)
	}
	r.n.processAck(1, 0, 1)
	if r.n.snd.Unacked(1) != 2 {
		t.Fatal("an ack of the old generation freed entries")
	}
	r.n.processAck(1, 1, 1)
	if r.n.snd.Unacked(1) != 0 {
		t.Fatal("an ack of the new generation freed nothing")
	}
	if e3 := r.send(3); e3 == e1 || e3 == e2 {
		t.Fatal("an entry was handed out while copies of it are in flight")
	}
	r.until(40 * time.Microsecond)
	reused := []*retrans.Entry{r.send(4), r.send(5)}
	if !slices.Contains(reused, e1) || !slices.Contains(reused, e2) {
		t.Fatal("entries not reused once all their copies are gone")
	}
}

// TestDelayedAckAllocs: a delayed-ack timer is one record per peer, the
// argument of one bound handler, so arming it, letting it fire, and
// arming and cancelling it again allocate nothing once the record exists,
// for a peer whose boxed ID would allocate too. (Before: a closure per
// arm.)
func TestDelayedAckAllocs(t *testing.T) {
	r := newEntryRig(time.Microsecond, time.Millisecond)
	n := r.n
	const peer = 300
	cycle := func() {
		n.armDelayedAck(peer)
		n.armDelayedAck(peer) // already armed: no second timer
		if n.PendingDelayedAcks() != 1 {
			t.Fatalf("%d delayed acks pending after arming, want 1", n.PendingDelayedAcks())
		}
		r.k.RunFor(retrans.DelayedAck) // fires; no ack is owed
		if n.PendingDelayedAcks() != 0 {
			t.Fatal("delayed ack still pending after it fired")
		}
		n.armDelayedAck(peer)
		n.cancelDelayedAck(peer)
		if n.PendingDelayedAcks() != 0 {
			t.Fatal("delayed ack still pending after it was cancelled")
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("an arm, fire and cancel cycle allocates %.2f times, want 0", avg)
	}
	if n.Counters().Get("acks-sent") != 0 {
		t.Fatal("a delayed ack with nothing owed sent an ack")
	}
}

// TestDeliveredFrameCollectable: once a sender's last ack is back and the
// receiver has delivered every frame, nothing kept for reuse — free
// entries, pooled packets and ack frames, free worms, the sender's
// scratch slices — keeps a data frame reachable: every frame's finalizer
// runs while the cluster is still alive.
func TestDeliveredFrameCollectable(t *testing.T) {
	r := newRig(t, 2, func(int) Options { return ftOpts(32, time.Millisecond) })
	src, dst := r.hosts[0], r.hosts[1]
	const n = 200
	var collected atomic.Int32
	r.k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			f := dataFrame(dst, uint64(i), make([]byte, 64))
			runtime.SetFinalizer(f, func(*proto.Frame) { collected.Add(1) })
			r.nics[src].Send(p, f)
		}
	})
	r.k.RunFor(10 * time.Millisecond)
	if got := len(r.rx[dst]); got != n || r.nics[src].ProtoSender().TotalUnacked() != 0 {
		t.Fatalf("delivered %d of %d, %d unacked", got, n, r.nics[src].ProtoSender().TotalUnacked())
	}
	clear(r.rx) // the rig's own record of deliveries
	for i := 0; i < 200 && collected.Load() < n; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if c := collected.Load(); c != n {
		t.Fatalf("%d of %d delivered data frames collected; the rest are still reachable", c, n)
	}
	runtime.KeepAlive(r)
}
