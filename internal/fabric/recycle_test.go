package fabric

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sanft/internal/sim"
	"sanft/internal/topology"
)

// onFreeList counts how often w is on f's free list.
func onFreeList(f *Fabric, w *worm) int {
	n := 0
	for _, x := range f.free {
		if x == w {
			n++
		}
	}
	return n
}

// idleAtDelivery checks, inside a worm's delivery, what putting it back
// on the free list relies on: every release it scheduled has fired, its
// watchdog and delivery are not pending, and no channel names it as
// holder or waiter.
func idleAtDelivery(f *Fabric, w *worm) error {
	if w == nil {
		return errors.New("delivery outside a worm event")
	}
	if w.released != len(w.held)-1 {
		return fmt.Errorf("worm#%d delivered with %d of its %d releases fired", w.seq, w.released, len(w.held)-1)
	}
	if w.watchdog.Pending() || w.delivery.Pending() || w.waiting != nil {
		return fmt.Errorf("worm#%d delivered with watchdog %v, delivery %v, waiting %v",
			w.seq, w.watchdog.Pending(), w.delivery.Pending(), w.waiting != nil)
	}
	for key, cs := range f.chans {
		if cs == nil {
			continue
		}
		if cs.holder == w {
			return fmt.Errorf("worm#%d delivered while holding channel %d", w.seq, key)
		}
		for _, x := range cs.waiters.Items() {
			if x == w {
				return fmt.Errorf("worm#%d delivered while waiting on channel %d", w.seq, key)
			}
		}
	}
	return nil
}

// TestWormOwnership builds each way a worm can end and checks who may
// see it again: a delivered worm goes back to its fabric's free list
// once, after its delivery event; a worm that dies never does, even
// when events of it are still queued.
func TestWormOwnership(t *testing.T) {
	// notReused injects packets from src to dst one at a time and fails
	// if any of their worms is w.
	notReused := func(t *testing.T, k *sim.Kernel, f *Fabric, w *worm, src, dst topology.NodeID) {
		t.Helper()
		for i := 0; i < 4; i++ {
			f.Inject(src, mkPacket(f.Network(), src, dst, 64))
			if f.newest == w {
				t.Fatalf("dead worm#%d handed out again", w.seq)
			}
			k.Run()
		}
		if onFreeList(f, w) != 0 {
			t.Fatal("dead worm on the free list")
		}
	}

	t.Run("watchdog", func(t *testing.T) {
		k := sim.New(1)
		nw, hosts := topology.Star(3)
		cfg := DefaultConfig()
		cfg.Watchdog = 50 * time.Microsecond
		f := New(k, nw, cfg)
		for _, h := range hosts {
			f.AttachHost(h, func(*Packet) {})
		}
		// A 64 KB packet holds the switch's channel to hosts[2] for 410 µs;
		// a packet queued behind it is reset by the watchdog.
		f.Inject(hosts[0], mkPacket(nw, hosts[0], hosts[2], 64<<10))
		k.RunFor(time.Microsecond)
		f.Inject(hosts[1], mkPacket(nw, hosts[1], hosts[2], 64))
		victim := f.newest
		k.Run()
		if !victim.dead || dropped(f, DropWatchdog) != 1 {
			t.Fatalf("dead %v, %d watchdog drops; want the second worm reset", victim.dead, dropped(f, DropWatchdog))
		}
		if len(f.free) != 1 {
			t.Fatalf("%d worms on the free list, want the delivered one", len(f.free))
		}
		notReused(t, k, f, victim, hosts[1], hosts[2])
	})

	t.Run("flushed with events queued", func(t *testing.T) {
		k := sim.New(1)
		nw, rows := topology.Chain(2, 2, 1)
		f := New(k, nw, DefaultConfig())
		delivered := 0
		for _, r := range rows {
			for _, h := range r {
				f.AttachHost(h, func(*Packet) { delivered++ })
			}
		}
		// At 2 µs the 1500 B worm holds all three channels of its path;
		// its two releases and its delivery are queued.
		f.Inject(rows[0][0], mkPacket(nw, rows[0][0], rows[1][0], 1500))
		victim := f.newest
		k.RunFor(2 * time.Microsecond)
		f.KillLink(nw.Links[0])
		if !victim.dead || k.Pending() != 3 {
			t.Fatalf("dead %v with %d events queued, want the flushed worm's 3", victim.dead, k.Pending())
		}
		f.Inject(rows[1][0], mkPacket(nw, rows[1][0], rows[1][1], 64))
		if f.newest == victim {
			t.Fatal("flushed worm handed out while its events are queued")
		}
		k.Run()
		if delivered != 1 || dropped(f, DropFlushed) != 1 {
			t.Fatalf("%d delivered, %d flushed; want 1 and 1", delivered, dropped(f, DropFlushed))
		}
		notReused(t, k, f, victim, rows[1][0], rows[1][1])
	})

	t.Run("dead switch with events queued", func(t *testing.T) {
		k := sim.New(1)
		nw, rows := topology.Chain(3, 1, 1)
		f := New(k, nw, DefaultConfig())
		for _, r := range rows {
			f.AttachHost(r[0], func(*Packet) {})
		}
		f.Inject(rows[0][0], mkPacket(nw, rows[0][0], rows[2][0], 1500))
		victim := f.newest
		// The head reaches the last switch at 1050 ns; it dies there,
		// while the releases of its first two channels are still queued.
		k.RunFor(800 * time.Nanosecond)
		nw.KillSwitch(nw.Switches()[2])
		k.RunFor(300 * time.Nanosecond)
		if !victim.dead || dropped(f, DropDeadSwitch) != 1 || k.Pending() != 2 {
			t.Fatalf("dead %v, %d dead-switch drops, %d events queued; want true, 1, 2",
				victim.dead, dropped(f, DropDeadSwitch), k.Pending())
		}
		f.Inject(rows[1][0], mkPacket(nw, rows[1][0], rows[0][0], 64))
		if f.newest == victim {
			t.Fatal("worm handed out while its releases are queued")
		}
		k.Run()
		notReused(t, k, f, victim, rows[1][0], rows[0][0])
	})

	t.Run("lazy, materialized, delivered", func(t *testing.T) {
		k, f, a, b, route := lineFabric(t, 8, true)
		var w *worm
		deliveries := 0
		f.AttachHost(b, func(*Packet) {
			if err := idleAtDelivery(f, f.firing); err != nil {
				t.Fatal(err)
			}
			if deliveries == 0 && f.firing != w {
				t.Fatal("the delivery is not the lazy worm's")
			}
			deliveries++
		})
		f.Inject(a, &Packet{Route: route, Dst: b, Size: 1500})
		w = f.newest
		k.RunFor(time.Microsecond)
		if !w.lazy {
			t.Fatal("the worm did not go lazy")
		}
		var lines []string
		f.SetTracer(eventLog{&lines})
		if w.lazy {
			t.Fatal("the tracer did not materialize the worm")
		}
		k.Run()
		if deliveries != 1 || onFreeList(f, w) != 1 || len(f.free) != 1 {
			t.Fatalf("%d deliveries, worm %d times on a free list of %d; want 1, 1, 1", deliveries, onFreeList(f, w), len(f.free))
		}
		if w.pkt != nil || w.seq != 0 {
			t.Fatal("a free worm keeps its packet")
		}
		f.Inject(a, &Packet{Route: route, Dst: b, Size: 64})
		if f.newest != w {
			t.Fatal("the free worm was not reused")
		}
		k.Run()
		if deliveries != 2 {
			t.Fatalf("%d deliveries, want 2", deliveries)
		}
	})
}

// TestDroppedPacketNotReused: a packet the fabric drops keeps its
// contents for whatever its drop callback kept, and never comes back out
// of the pool.
func TestDroppedPacketNotReused(t *testing.T) {
	k := sim.New(1)
	nw, hosts := topology.Star(2)
	f := New(k, nw, DefaultConfig())
	f.AttachHost(hosts[1], func(*Packet) { t.Fatal("delivered over a dead link") })
	route := mkPacket(nw, hosts[0], hosts[1], 64).Route
	f.KillLink(nw.Node(hosts[0]).Ports[0])
	var kept *Packet
	var p *Packet
	p = PacketsOf(nil).New(Packet{Route: route, Dst: hosts[1], Size: 64,
		Payload: "frame", OnDropped: func(DropReason) { kept = p }})
	f.Inject(hosts[0], p)
	k.Run()
	if kept != p || dropped(f, DropNoRoute) != 1 {
		t.Fatalf("drop callback kept %p of %p, %d no-route drops", kept, p, dropped(f, DropNoRoute))
	}
	for i := 0; i < 64; i++ {
		if q := PacketsOf(nil).New(Packet{}); q == p {
			t.Fatal("a dropped packet came back out of the pool")
		}
	}
	if p.Payload != "frame" || p.Route == nil {
		t.Fatal("a dropped packet was cleared")
	}
}

// TestPipeEgressPacketReleasedAfterSendDMA: a Pipe hands a packet bound
// for another cell to its egress hook, which copies it; the original is
// released after its send-DMA event, whose OnInjectDone still sees it
// whole, and not before. A locally delivered packet is not released by
// the pipe at all: the receiver owns it.
func TestPipeEgressPacketReleasedAfterSendDMA(t *testing.T) {
	k := sim.New(1)
	nw, hosts := topology.Star(2)
	p := NewPipe(k, nw, DefaultConfig())
	var local *Packet
	p.AttachHost(hosts[0], func(pkt *Packet) { local = pkt })
	var away *Packet
	p.SetEgress(func(dst topology.NodeID, at sim.Time, pkt *Packet) { away = pkt })

	route := mkPacket(nw, hosts[0], hosts[1], 64).Route
	var pkt *Packet
	injectDone := 0
	pkt = PacketsOf(nil).New(Packet{Route: route, Dst: hosts[1], Size: 1500, Payload: "frame", OnInjectDone: func() {
		if pkt.Payload != "frame" || pkt.Route == nil {
			t.Fatal("egress packet cleared before its send DMA completed")
		}
		injectDone++
	}})
	p.Inject(hosts[0], pkt)
	if away != pkt {
		t.Fatal("packet not handed to the egress hook")
	}
	for i := 0; i < 64; i++ {
		if q := PacketsOf(nil).New(Packet{}); q == pkt {
			t.Fatal("egress packet handed out before its send DMA completed")
		}
	}
	back := PacketsOf(nil).New(Packet{Route: mkPacket(nw, hosts[1], hosts[0], 64).Route, Dst: hosts[0], Size: 64, Payload: "reply"})
	p.Inject(hosts[1], back)
	k.Run()
	if injectDone != 1 {
		t.Fatalf("OnInjectDone fired %d times, want 1", injectDone)
	}
	if pkt.Payload != nil || pkt.Route != nil || pkt.OnInjectDone != nil {
		t.Fatal("egress packet not released after its send DMA")
	}
	if local != back || back.Payload != "reply" {
		t.Fatal("locally delivered packet released by the pipe")
	}
}
