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
//
// A lazy worm (lazy.go) keeps both. Its one pending head event is its
// delivery, and w.head is the destination host. Its only release event
// is the injection channel's, held[0]; the channels it reserved past its
// first switch are released by arithmetic, in path order, and
// materializing it schedules exactly the releases the eager worm would
// have pending, so the next release still frees held[w.released].
type worm struct {
	f   *Fabric
	pkt *Packet
	// seq is the worm's injection-order serial number, printed by
	// InFlightDetail and part of its event keys.
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

	// keyed: the worm's first switch granted it the next channel with the
	// rest of its path free, so the events it schedules from its own later
	// steps are AtFrom events (see at). lazy: its hops past that switch are
	// not simulated; hops counts the channels it holds or reserved from
	// there on, delivery is its pending delivery, and from1 and key2 place
	// its first two steps (see lazy.go).
	keyed, lazy bool
	hops        int
	delivery    sim.Timer
	from1       sim.Origin
	key2        uint64
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

// Fire runs one of the worm's events. A worm whose delivery ran goes back
// to the fabric's free list once the event is over: its releases were
// all due before the delivery and have fired, its watchdog is cancelled,
// and it holds, reserves and waits on nothing, so no event, channel or
// list can reach it. It goes back only after firing is cleared, so a
// worm injected from inside the delivery never is this one. A worm that
// died is never reused: its death may leave its head event or releases
// queued.
func (w *worm) Fire(arg any) {
	f := w.f
	f.firing = w
	delivered := false
	switch arg.(wormEvent) {
	case wormAdvance:
		w.advance(w.head)
	case wormDeliver:
		delivered = w.deliverTo(w.head)
	case wormRelease:
		key := w.held[w.released]
		w.released++
		w.f.release(key, w)
	case wormWatchdog:
		w.f.count(&w.f.watchdogResets, "fabric.watchdog_resets", 1)
		w.f.emitPkt(trace.EvWatchdog, w.pkt, w.waitKey.link(), w.waitKey.dir(), "")
		w.die(DropWatchdog)
	}
	f.firing = nil
	if delivered {
		*w = worm{f: f} // drops the packet and every timer handle
		f.free = append(f.free, w)
	}
}

// wormBand sets the keys of a worm's AtFrom events above the NIC timer's
// AtAsOf keys.
const wormBand = 1 << 62

// key is the key of the worm's event ev among the events its step
// schedules: its injection serial, and a release ahead of a head event, as
// a grant schedules them.
func (w *worm) key(ev wormEvent) uint64 {
	k := wormBand | w.seq<<1
	if ev != wormRelease {
		k |= 1
	}
	return k
}

// at schedules the worm's event ev at t. A keyed worm's own step schedules
// it with AtFrom from that step, with no ordinary sequence number, which
// is where a lazy worm's materialized step lands too (lazy.go). Every
// other scheduling, a grant inside another worm's event included, is
// ordinary, on every chain alike.
func (w *worm) at(t sim.Time, ev wormEvent) {
	k := w.f.k
	if w.keyed && w.f.firing == w {
		k.AtFrom(t, k.Now(), k.Origin(), w.key(ev), w, ev)
		return
	}
	k.AtHandler(t, w, ev)
}

// usesLinks reports whether the worm holds or awaits a channel of a link
// hit reports: a channel it has released no longer counts.
func (w *worm) usesLinks(hit func(link int) bool) bool {
	for _, k := range w.held {
		if hit(k.link()) {
			if cs := w.f.channel(k); cs != nil && cs.holder == w {
				return true
			}
		}
	}
	return w.waiting != nil && hit(w.waitKey.link())
}

// request asks for the directed channel key leading to node next. If the
// channel is free it is granted immediately; otherwise the worm parks in
// the FIFO queue and arms the blocked-path watchdog. A lazy worm that has
// reserved the channel, and not released it yet, materializes first, so
// the request meets the eager state.
func (w *worm) request(key chanKey, next topology.NodeID) {
	if w.dead {
		return
	}
	f := w.f
	cs := f.chanState(key)
	if h := cs.holder; h != nil && h.lazy {
		f.settle(cs)
		if cs.holder == h {
			h.materialize()
		}
	}
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
	f := w.f
	if f.blockNS == nil {
		f.blockNS = f.reg.Histogram("fabric.worm.block_ns", nil)
	}
	f.blockNS.Observe(f.k.Now().Sub(w.parkedAt))
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
	handoff := w.waiting != nil
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
		w.at(relAt, wormRelease)
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
		w.at(now.Add(f.cfg.PropDelay+f.SerializationTime(w.pkt.Size)), wormDeliver)
		return
	}
	// Head reaches the switch after propagation, takes a routing decision,
	// then requests the next channel. When the first switch granted the
	// second channel at once, the worm may be keyed, or go lazy; the
	// advance that first switch schedules stays ordinary either way.
	reach := now.Add(f.cfg.PropDelay + f.cfg.RouteDelay)
	if len(w.held) == 2 && !handoff {
		if f.plan(w) {
			return
		}
		f.k.AtHandler(reach, w, wormAdvance)
		return
	}
	w.at(reach, wormAdvance)
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
// It reports whether it did: a worm that died before its delivery event
// ran has nothing to deliver.
func (w *worm) deliverTo(h topology.NodeID) bool {
	if w.dead {
		return false
	}
	if w.lazy {
		w.unreserve()
	}
	w.finish()
	w.f.arrive(h, w.pkt)
	return true
}

// die aborts the worm (watchdog reset, dead route element, or flush): all
// held channels are freed immediately and the packet is dropped silently.
// A lazy worm (flushed for its injection channel) materializes first, so
// it frees what the eager worm holds.
func (w *worm) die(reason DropReason) {
	if w.dead {
		return
	}
	f := w.f
	if w.lazy {
		w.materialize()
	}
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
