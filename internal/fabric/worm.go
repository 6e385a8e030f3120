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
type worm struct {
	f   *Fabric
	pkt *Packet
	// seq is the worm's injection-order serial number. The worm set is a
	// map, so every operation that visits several worms (flushes on a
	// kill, in-flight diagnostics) orders them by seq to keep runs with
	// the same seed byte-identical.
	seq uint64

	curNode  topology.NodeID // node whose output we last left / are leaving
	routeIdx int             // next route byte to consume

	held   []chanKey  // channels currently or recently held, in path order
	grants []sim.Time // grant time per held channel

	waiting  *channelState // non-nil while parked in a waiter queue
	waitKey  chanKey
	waitNext topology.NodeID // node at far end of the awaited channel
	parkedAt sim.Time        // when the worm parked (for blocking-time accounting)

	watchdog      sim.Timer
	dead          bool
	injectionDone bool // OnInjectDone already fired
}

// usesLink reports whether the worm holds or awaits a channel of link id.
func (w *worm) usesLink(id int) bool {
	for _, k := range w.held {
		if k.link == id {
			// Only counts if we still actually hold it.
			if cs := w.f.chans[k]; cs != nil && cs.holder == w {
				return true
			}
		}
	}
	return w.waiting != nil && w.waitKey.link == id
}

// request asks for the directed channel key leading to node next. If the
// channel is free it is granted immediately; otherwise the worm parks in
// the FIFO queue and arms the blocked-path watchdog.
func (w *worm) request(key chanKey, next topology.NodeID) {
	if w.dead {
		return
	}
	cs := w.f.chanState(key)
	if cs.holder == nil && len(cs.waiters) == 0 {
		w.granted(key, next)
		return
	}
	cs.waiters = append(cs.waiters, w)
	w.waiting, w.waitKey, w.waitNext = cs, key, next
	w.parkedAt = w.f.k.Now()
	w.f.emitPkt(trace.EvLinkBlock, w.pkt, key.link, key.dir, "")
	if !w.watchdog.Pending() {
		w.watchdog = w.f.k.After(w.f.cfg.Watchdog, func() {
			w.f.mx.Add("fabric.watchdog_resets", 1)
			w.f.emitPkt(trace.EvWatchdog, w.pkt, w.waitKey.link, w.waitKey.dir, "")
			w.die(DropWatchdog)
		})
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
	f.emitPkt(trace.EvLinkAcquire, w.pkt, key.link, key.dir, "")
	w.noteUnparked()
	w.waiting = nil
	w.watchdog.Cancel()
	w.held = append(w.held, key)
	w.grants = append(w.grants, now)

	// The previous channel is released when the tail clears it: one
	// serialization after its grant, but never before the next channel
	// was acquired (a blocked head stalls the tail).
	if n := len(w.held); n >= 2 {
		prev := w.held[n-2]
		relAt := w.grants[n-2].Add(f.SerializationTime(w.pkt.Size))
		if relAt.Before(now) {
			relAt = now
		}
		f.k.At(relAt, func() { f.release(prev, w) })
	}

	nextNode := f.nw.Node(next)
	if nextNode.Kind == topology.Host {
		// Final hop. A route with leftover bytes is malformed: the host
		// NIC discards it.
		if w.routeIdx != len(w.pkt.Route) {
			w.die(DropBadRoute)
			return
		}
		deliverAt := now.Add(f.cfg.PropDelay + f.SerializationTime(w.pkt.Size))
		f.k.At(deliverAt, func() { w.deliverTo(next) })
		return
	}
	// Head reaches the switch after propagation, takes a routing decision,
	// then requests the next channel.
	f.k.After(f.cfg.PropDelay+f.cfg.RouteDelay, func() { w.advance(next) })
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
	delete(f.worms, w)
	w.watchdog.Cancel()
	if w.waiting != nil {
		w.noteUnparked()
		ws := w.waiting.waiters
		for i, cand := range ws {
			if cand == w {
				w.waiting.waiters = append(ws[:i], ws[i+1:]...)
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
	cs := f.chans[key]
	if cs == nil || cs.holder != w {
		return // already released (e.g. death raced a scheduled release)
	}
	cs.busy += f.k.Now().Sub(cs.grabbed)
	cs.holder = nil
	f.emitPkt(trace.EvLinkRelease, w.pkt, key.link, key.dir, "")
	// First-channel release means the tail has left the source NIC.
	if len(w.held) > 0 && w.held[0] == key {
		w.fireInjectDone()
	}
	if len(cs.waiters) > 0 {
		next := cs.waiters[0]
		cs.waiters = cs.waiters[1:]
		// Re-resolve the far node for the waiter (stored at request time).
		next.granted(key, next.waitNextFor(key))
	}
}

// waitNextFor returns the node the worm was heading to when it queued for
// key. (The worm queues for exactly one channel at a time.)
func (w *worm) waitNextFor(key chanKey) topology.NodeID {
	return w.waitNext
}
