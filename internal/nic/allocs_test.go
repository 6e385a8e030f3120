package nic

import (
	"testing"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/proto"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// TestIdleTimerAllocs pins the retransmission timer on idle NICs: after
// every host has talked to a peer (so each sender has a destination to
// scan), a simulated millisecond of nothing but timer scans on a 16-host
// FT star must not allocate.
func TestIdleTimerAllocs(t *testing.T) {
	r := newRig(t, 16, func(int) Options {
		o := ftOpts(32, time.Millisecond)
		o.Retrans.PermFailThreshold = 5 * time.Millisecond
		o.OnPathStale = func(dst topology.NodeID) { t.Errorf("idle path to %d reported stale", dst) }
		return o
	})
	for i, src := range r.hosts {
		src, dst := src, r.hosts[(i+1)%len(r.hosts)]
		r.k.Spawn("warmup", func(p *sim.Proc) {
			r.nics[src].Send(p, dataFrame(dst, 1, make([]byte, 64)))
		})
	}
	r.k.RunFor(10 * time.Millisecond)
	defer r.k.Stop()
	for _, h := range r.hosts {
		if r.nics[h].ProtoSender().TotalUnacked() != 0 {
			t.Fatalf("host %d still has unacked packets after warm-up", h)
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		r.k.RunFor(time.Millisecond)
	})
	if avg != 0 {
		t.Fatalf("one idle millisecond on 16 FT NICs allocates %.2f allocs, want 0", avg)
	}
}

// loopWire is a Wire that records each injected packet and completes its
// send DMA hold later (one microsecond if hold is 0); it delivers
// nothing.
type loopWire struct {
	k        *sim.Kernel
	hold     time.Duration
	onInject func(*fabric.Packet)
}

func (w *loopWire) AttachHost(topology.NodeID, func(*fabric.Packet)) {}

func (w *loopWire) Inject(_ topology.NodeID, pkt *fabric.Packet) {
	w.onInject(pkt)
	hold := w.hold
	if hold == 0 {
		hold = time.Microsecond
	}
	w.k.After(hold, pkt.OnInjectDone)
}

// TestTxQueueBacklogBoundedMemory keeps eight frames waiting for the
// NIC's send DMA over 100000 transmissions, queueing a new frame each
// time one leaves: frames leave in FIFO order, the packet on the DMA
// always completes before the next starts, and the transmit queue, which
// pops in place, keeps bounded capacity.
func TestTxQueueBacklogBoundedMemory(t *testing.T) {
	const (
		total   = 100000
		backlog = 8
	)
	k := sim.New(1)
	w := &loopWire{k: k}
	n := New(k, w, 0, Options{})
	queued, sent, maxCap := 0, 0, 0
	send := func() {
		queued++ // before SendControl, which may inject at once
		n.SendControl(&proto.Frame{Type: proto.FrameAck, Dst: 1, AckSeq: uint64(queued - 1)}, routing.Route{})
	}
	w.onInject = func(pkt *fabric.Packet) {
		if seq := pkt.Payload.(*proto.Frame).AckSeq; seq != uint64(sent) {
			t.Fatalf("transmission %d carried frame %d (not FIFO)", sent, seq)
		}
		sent++
		if queued < total {
			send()
		}
		if c := cap(n.txQueue.Items()); c > maxCap {
			maxCap = c
		}
	}
	for i := 0; i < backlog; i++ {
		send()
	}
	if got := n.txQueue.Len(); got != backlog {
		t.Fatalf("%d frames waiting, want %d", got, backlog)
	}
	k.Run()
	if sent != total || n.txQueue.Len() != 0 || n.txBusy {
		t.Fatalf("sent %d, %d waiting, busy=%v; want %d, 0, false", sent, n.txQueue.Len(), n.txBusy, total)
	}
	if maxCap > 4*backlog {
		t.Fatalf("transmit queue capacity grew to %d with a backlog of %d", maxCap, backlog)
	}
}

// sinkWire completes each packet's send DMA a microsecond after its
// inject, and then lets go of the packet and its frame, as a receiving NIC
// would once done with them.
type sinkWire struct {
	k      *sim.Kernel
	pkts   fabric.Packets
	frames proto.Frames
	done   sim.Handler // complete, bound once
}

func (w *sinkWire) AttachHost(topology.NodeID, func(*fabric.Packet)) {}

func (w *sinkWire) Inject(_ topology.NodeID, pkt *fabric.Packet) {
	w.k.AtHandler(w.k.Now().Add(time.Microsecond), w.done, pkt)
}

func (w *sinkWire) complete(arg any) {
	pkt := arg.(*fabric.Packet)
	pkt.OnInjectDone()
	w.frames.Release(pkt.Payload.(*proto.Frame))
	w.pkts.Release(pkt)
}

// TestGoBackNBurstAllocs: a go-back-N burst allocates nothing once warm.
// The scan's batches are the sender's scratch (retrans.Sender.Tick), the
// burst's firmware work is a bound handler whose argument is a reused
// record, each resent copy is a block from the cell's frame list that goes
// back once its packet has left and the ack has freed its entry, and the
// copies go to the front of a transmit queue that keeps its backing array.
// (Before: the scan's result and each batch's entry slice, a closure and
// an item slice per burst, and a frame per copy.)
func TestGoBackNBurstAllocs(t *testing.T) {
	const (
		interval = 50 * time.Microsecond
		run      = 8
	)
	k := sim.New(1)
	w := &sinkWire{k: k, pkts: fabric.PacketsOf(k), frames: proto.FramesOf(k)}
	w.done = sim.HandlerFunc(w.complete)
	n := New(k, w, 0, Options{FT: true, Retrans: retrans.Config{QueueSize: 32, Interval: interval}})
	n.SetRoute(1, routing.Route{})
	frames := proto.FramesOf(k)
	buf := make([]byte, 64)
	sent := uint64(0)
	cycle := func() {
		for i := 0; i < run; i++ {
			f := frames.NewData(1, proto.DataPayload{MsgID: sent, MsgLen: len(buf), Data: buf})
			f.Src = n.node
			n.freeBuffers--
			n.queueData(f)
			sent++
		}
		// No ack comes back: a scan batches the run once its timeout is
		// up, and the copies leave the wire; then an ack frees it all.
		k.RunFor(3 * interval)
		n.processAck(1, 0, sent-1)
		k.RunFor(interval)
	}
	cycle()
	cycle()
	resent := n.Counters().Get("pkts-retransmitted")
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("a run of %d frames and its go-back-N burst allocate %.2f times, want 0", run, avg)
	}
	if got := n.Counters().Get("pkts-retransmitted") - resent; got < 200*run {
		t.Fatalf("%d frames resent over 200 cycles, want at least %d: the bursts never ran", got, 200*run)
	}
	if n.ProtoSender().TotalUnacked() != 0 || n.FreeBuffers() != 32 {
		t.Fatalf("%d unacked, %d free buffers after the cycles", n.ProtoSender().TotalUnacked(), n.FreeBuffers())
	}
}
