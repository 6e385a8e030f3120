package fabric

import (
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// worm is the in-flight state of one packet traversing the network
// wormhole-style. It advances hop by hop, acquiring the directed channel of
// each link before streaming onto it, and holds a channel until the next
// one is acquired (and one serialization time has passed), so blocking
// propagates backward exactly as in real wormhole switching.
//
// A worm is the sim.Handler of its own events, told apart by a wormEvent
// argument, so a hop schedules nothing that allocates. Two invariants let
// the events carry no other state:
//
//   - Exactly one head event (advance or deliver) is pending at a time:
//     the next one is scheduled only by a grant, and a grant happens only
//     after the previous head event fired. Its target node is w.head.
//   - Tail releases fire in path order. The release of held[i] is
//     scheduled when held[i+1] is granted, at max(grant_i + serialization,
//     grant_{i+1}); grants never go back in time, so neither do release
//     times, and equal times fire in scheduling order. The next release
//     therefore always frees held[w.released].
type worm struct {
	f   *Fabric
	pkt *Packet
	// seq is the worm's injection-order serial number, printed by
	// InFlightDetail.
	seq uint64
	// older and newer link the fabric's in-flight list, which is in
	// injection order, so flushes and diagnostics visit worms in the same
	// order on every run with the same seed.
	older, newer *worm

	curNode  topology.NodeID // node whose output we last left / are leaving
	routeIdx int             // next route byte to consume
	head     topology.NodeID // target of the pending head event

	// held lists the channels acquired so far, in path order; heldBuf
	// backs it so that a short path never grows it. released counts the
	// tail releases that have fired.
	held      []chanKey
	heldBuf   [16]chanKey
	released  int
	lastGrant sim.Time // grant time of the newest held channel

	waiting  *channelState // non-nil while parked in a waiter queue
	waitKey  chanKey
	waitNext topology.NodeID // node at far end of the awaited channel
	parkedAt sim.Time        // when the worm parked (for blocking-time accounting)

	watchdog      sim.Timer
	dead          bool
	injectionDone bool // OnInjectDone already fired
}

// wormEvent is the argument of a worm's own events: a small constant, so
// boxing it allocates nothing.
type wormEvent uint8

const (
	wormAdvance  wormEvent = iota // the head reaches switch w.head
	wormDeliver                   // the tail reaches host w.head
	wormRelease                   // the tail clears held[w.released]
	wormWatchdog                  // the blocked-path timer expired
)

// EventKind names the worm's events for the engine profiler.
func (*worm) EventKind() sim.EventKind { return sim.KindWorm }

// Fire runs one of the worm's events.
func (w *worm) Fire(arg any) {
	switch arg.(wormEvent) {
	case wormAdvance:
		w.advance(w.head)
	case wormDeliver:
		w.deliverTo(w.head)
	case wormRelease:
		key := w.held[w.released]
		w.released++
		w.f.release(key, w)
	case wormWatchdog:
		w.f.mx.Add("fabric.watchdog_resets", 1)
		w.f.emitPkt(trace.EvWatchdog, w.pkt, w.waitKey.link(), w.waitKey.dir(), "")
		w.die(DropWatchdog)
	}
}

// usesLink reports whether the worm holds or awaits a channel of link id.
func (w *worm) usesLink(id int) bool {
	for _, k := range w.held {
		if k.link() == id {
			// Only counts if we still actually hold it.
			if cs := w.f.channel(k); cs != nil && cs.holder == w {
				return true
			}
		}
	}
	return w.waiting != nil && w.waitKey.link() == id
}

// request asks for the directed channel key leading to node next. If the
// channel is free it is granted immediately; otherwise the worm parks in
// the FIFO queue and arms the blocked-path watchdog.
func (w *worm) request(key chanKey, next topology.NodeID) {
	if w.dead {
		return
	}
	f := w.f
	cs := f.chanState(key)
	if cs.holder == nil && cs.waiters.Len() == 0 {
		w.granted(key, next)
		return
	}
	cs.waiters.Push(w)
	w.waiting, w.waitKey, w.waitNext = cs, key, next
	w.parkedAt = f.k.Now()
	f.emitPkt(trace.EvLinkBlock, w.pkt, key.link(), key.dir(), "")
	if !w.watchdog.Pending() {
		w.watchdog = f.k.AtHandler(f.k.Now().Add(f.cfg.Watchdog), w, wormWatchdog)
	}
}

// noteUnparked records how long the worm was blocked waiting for a channel
// — the wormhole head-of-line blocking time. Called on grant and on death
// while parked.
func (w *worm) noteUnparked() {
	if w.waiting == nil {
		return
	}
	w.f.mx.Observe("fabric.worm.block_ns", w.f.k.Now().Sub(w.parkedAt))
}

// granted is called (from request or from a release handing the channel
// over) when the worm becomes the holder of key.
func (w *worm) granted(key chanKey, next topology.NodeID) {
	if w.dead {
		// Should not happen: dying removes the worm from waiter queues.
		panic("fabric: channel granted to dead worm")
	}
	f := w.f
	now := f.k.Now()
	cs := f.chanState(key)
	cs.holder = w
	cs.grabbed = now
	f.emitPkt(trace.EvLinkAcquire, w.pkt, key.link(), key.dir(), "")
	w.noteUnparked()
	w.waiting = nil
	w.watchdog.Cancel()
	w.held = append(w.held, key)

	// The previous channel is released when the tail clears it: one
	// serialization after its grant, but never before the next channel
	// was acquired (a blocked head stalls the tail).
	if len(w.held) >= 2 {
		relAt := w.lastGrant.Add(f.SerializationTime(w.pkt.Size))
		if relAt.Before(now) {
			relAt = now
		}
		f.k.AtHandler(relAt, w, wormRelease)
	}
	w.lastGrant = now

	w.head = next
	if f.nw.Node(next).Kind == topology.Host {
		// Final hop. A route with leftover bytes is malformed: the host
		// NIC discards it.
		if w.routeIdx != len(w.pkt.Route) {
			w.die(DropBadRoute)
			return
		}
		f.k.AtHandler(now.Add(f.cfg.PropDelay+f.SerializationTime(w.pkt.Size)), w, wormDeliver)
		return
	}
	// Head reaches the switch after propagation, takes a routing decision,
	// then requests the next channel.
	f.k.AtHandler(now.Add(f.cfg.PropDelay+f.cfg.RouteDelay), w, wormAdvance)
}

// advance consumes the next route byte at switch sw and requests the
// corresponding output channel.
func (w *worm) advance(sw topology.NodeID) {
	if w.dead {
		return
	}
	f := w.f
	w.curNode = sw
	node := f.nw.Node(sw)
	if !node.Up {
		w.die(DropDeadSwitch)
		return
	}
	if w.routeIdx >= len(w.pkt.Route) {
		w.die(DropBadRoute)
		return
	}
	port := w.pkt.Route[w.routeIdx]
	w.routeIdx++
	if port < 0 || port >= node.Radix() || node.Ports[port] == nil {
		w.die(DropBadRoute)
		return
	}
	l := node.Ports[port]
	if !f.nw.LinkUsable(l) {
		w.die(DropDeadLink)
		return
	}
	if f.graySample(l.ID) {
		w.die(DropGray)
		return
	}
	e := l.Other(sw)
	w.request(keyFor(l, sw), e.Node)
}

// deliverTo completes the worm at host h: frees remaining channels, applies
// the transit hook, and hands the packet to the host's receive callback.
func (w *worm) deliverTo(h topology.NodeID) {
	if w.dead {
		return
	}
	w.finish()
	w.f.arrive(h, w.pkt)
}

// die aborts the worm (watchdog reset, dead route element, or flush): all
// held channels are freed immediately and the packet is dropped silently.
func (w *worm) die(reason DropReason) {
	if w.dead {
		return
	}
	f := w.f
	w.finish()
	f.drop(w.pkt, reason)
}

// finish tears down worm state common to delivery and death: watchdog,
// waiter-queue membership, held channels, inject-done notification.
func (w *worm) finish() {
	f := w.f
	w.dead = true
	f.untrack(w)
	w.watchdog.Cancel()
	if w.waiting != nil {
		w.noteUnparked()
		for i, cand := range w.waiting.waiters.Items() {
			if cand == w {
				w.waiting.waiters.RemoveAt(i)
				break
			}
		}
		w.waiting = nil
	}
	for _, key := range w.held {
		f.release(key, w)
	}
	w.fireInjectDone()
}

// fireInjectDone notifies the source NIC that its send path is free. Safe
// to call multiple times; only the first fires.
func (w *worm) fireInjectDone() {
	if w.injectionDone {
		return
	}
	w.injectionDone = true
	if w.pkt.OnInjectDone != nil {
		w.pkt.OnInjectDone()
	}
}

// release frees channel key if worm w still holds it, accounts busy time,
// and grants the channel to the next FIFO waiter.
func (f *Fabric) release(key chanKey, w *worm) {
	cs := f.channel(key)
	if cs == nil || cs.holder != w {
		return // already released (e.g. death raced a scheduled release)
	}
	cs.busy += f.k.Now().Sub(cs.grabbed)
	cs.holder = nil
	f.emitPkt(trace.EvLinkRelease, w.pkt, key.link(), key.dir(), "")
	// First-channel release means the tail has left the source NIC.
	if len(w.held) > 0 && w.held[0] == key {
		w.fireInjectDone()
	}
	if cs.waiters.Len() > 0 {
		// The waiter queues for exactly one channel at a time, so the far
		// node it stored at request time is this channel's.
		next := cs.waiters.Pop()
		next.granted(key, next.waitNext)
	}
}
