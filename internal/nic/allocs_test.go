package nic

import (
	"testing"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/proto"
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
