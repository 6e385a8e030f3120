package fabric

import (
	"time"

	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// Lazy worms. On a free path cut-through timing has a closed form: with
// hop = PropDelay + RouteDelay and ser the serialization, a worm granted
// its second channel L1 at g1 is granted channel Lj at gj = g1 + (j−1)·hop,
// releases it at gj + max(ser, hop), and is delivered at gH + PropDelay +
// ser, H the last channel. Simulating that costs two kernel events a hop.
//
// A worm whose first switch grants it L1 at once, in its own head event,
// is planned there (plan): if the rest of its route is well formed, every
// link on it usable and not gray, no tracer installed, and every channel
// free in the eager state of that instant, the worm is keyed. The advance
// its first switch schedules stays an ordinary event; every event its
// later steps schedule is an AtFrom event from the step that schedules it
// (worm.at), keyed by the worm's injection serial, release before head,
// and takes no ordinary sequence number. If moreover no reservation on
// the path is still pending and the fabric allows it (SetLazyWorms), the
// worm goes lazy: it reserves the sequence number of the advance its first
// switch would schedule (sim.Kernel.NextKey), marks itself holder of
// L2..LH from their future grant instants, and schedules only its
// delivery, as the eager worm's last step would. Its first-hop event and
// the injection channel's release that event scheduled stay as they are,
// so the source NIC's OnInjectDone lands where it always did. A packet on
// a free path costs three events, however many switches it crosses.
//
// Every step of the eager worm therefore has a place computable by
// arithmetic: time, scheduling instant, the origin of the step that
// scheduled it, key. Ordinary events get the same sequence numbers on
// both chains. The eager state is never stored; it is recomputed on
// demand. Whether the eager worm has been granted or has released a
// channel by the current point of the run is sim.Kernel.RanFrom of the
// step that would have done it, so ties with events of the same instant
// fall exactly where the eager chain puts them. A reservation counts as
// the channel's holder from its grant until its release; once released
// it is free, and any reader folds its busy time in (settle). The lazy
// worm materializes — rebuilds its eager state and schedules with AtFrom
// the steps the eager worm has pending — as soon as anything could tell
// the difference: another worm requesting a channel it reserved and has
// not released, a kill or loss change on a link of its path, its own
// death, a tracer, or InFlightDetail. A materialized worm runs eagerly,
// and still keyed, to the end. Lazy and eager chains order every event
// alike by construction.
//
// Against ordinary events of the same time and scheduling instant, an
// AtFrom step runs where the ordinary event it replaces ran, as long as
// its own scheduler is the advance of the first switch or was scheduled
// at another instant than the other event's scheduler. Only if the two
// schedulers tie in scheduling instant too does the step run first (by
// serial against another worm's step), where the scheduling order would
// have decided.
//
// What stays eager: traced runs, paths with a gray, dead or repeated
// channel, paths blocked or held at the first switch, one-switch paths,
// which have no step past the first to spare, and paths of more than
// maxLazyHops channels past the injection channel. The wiring must not
// change under a lazy worm (Network.MoveHost, Disconnect): its path is
// re-walked from its route.

// maxLazyHops bounds the channels past the injection channel that a lazy
// worm holds or reserves: the plan checks them in a stack array.
const maxLazyHops = 16

// SetLazyWorms lets worms go lazy on free paths. Results are identical
// either way; only the kernel's event count differs. core turns it on for
// the wormhole fabric it builds, unless Config.Eager asks for the
// reference that runs every hop.
func (f *Fabric) SetLazyWorms(on bool) { f.lazyOn = on }

// hopDelay is the time from one grant of a free path to the next.
func (f *Fabric) hopDelay() time.Duration { return f.cfg.PropDelay + f.cfg.RouteDelay }

// plan runs in a worm's first-hop event, once its first switch granted it
// the second channel held[1] at once. It keys the worm if the rest of its
// path is free in the eager state, and reports whether the worm went lazy,
// its delivery scheduled.
func (f *Fabric) plan(w *worm) bool {
	hop := f.hopDelay()
	if f.tracer != nil || hop <= 0 {
		return false
	}
	var keys [maxLazyHops]chanKey
	keys[0] = w.held[1]
	n := 1
	reserved := false // a reservation on the path is still pending
	route := w.pkt.Route
	node, idx := w.head, w.routeIdx
	for {
		nd := f.nw.Node(node)
		if nd.Kind == topology.Host {
			if idx != len(route) {
				return false
			}
			break
		}
		if !nd.Up || idx >= len(route) || n == maxLazyHops {
			return false
		}
		port := route[idx]
		idx++
		if port < 0 || port >= nd.Radix() {
			return false
		}
		l := nd.Ports[port]
		if !f.nw.LinkUsable(l) || f.grayLink(l.ID) != nil {
			return false
		}
		key := keyFor(l, node)
		for _, k := range keys[:n] {
			if k == key {
				return false
			}
		}
		if cs := f.channel(key); cs != nil {
			f.settle(cs)
			switch h := cs.holder; {
			case cs.waiters.Len() > 0:
				return false
			case h == nil:
			case h.lazy && !h.reached(h.index(cs.grabbed)):
				reserved = true
			default:
				return false
			}
		}
		keys[n] = key
		n++
		node = l.Other(node).Node
	}
	w.keyed = true
	if !f.lazyOn || reserved {
		return false
	}
	for j := 1; j < n; j++ {
		cs := f.chanState(keys[j])
		cs.holder, cs.grabbed = w, w.grantAt(j+1)
	}
	// The advance this step would schedule is an ordinary event: reserve
	// its key, so every later ordinary event gets the key it gets when the
	// worm runs eagerly, and the advance can be placed where it would run.
	w.from1, w.key2 = f.k.Origin(), f.k.NextKey()
	w.lazy, w.hops, w.head = true, n, node
	last := w.grantAt(n)
	w.delivery = f.k.AtFrom(last.Add(f.cfg.PropDelay+f.SerializationTime(w.pkt.Size)), last, w.stepOrigin(n), w.key(wormDeliver), w, wormDeliver)
	return true
}

// grantAt returns when a lazy worm is granted the j-th channel past its
// injection channel, j = 1..hops.
func (w *worm) grantAt(j int) sim.Time {
	return w.lastGrant.Add(time.Duration(j-1) * w.f.hopDelay())
}

// releaseAt returns when a lazy worm releases its j-th channel, j < hops
// (the last one it releases at delivery).
func (w *worm) releaseAt(j int) sim.Time {
	hold := w.f.SerializationTime(w.pkt.Size)
	if hop := w.f.hopDelay(); hold < hop {
		hold = hop
	}
	return w.grantAt(j).Add(hold)
}

// index returns which of a lazy worm's channels it is granted at g.
func (w *worm) index(g sim.Time) int { return int(g.Sub(w.lastGrant)/w.f.hopDelay()) + 1 }

// stepKey returns the key of the step that requests the j-th channel,
// j ≥ 2: the ordinary key the first switch reserved for the advance it
// schedules, then the worm's head key.
func (w *worm) stepKey(j int) uint64 {
	if j == 2 {
		return w.key2
	}
	return w.key(wormAdvance)
}

// stepOrigin returns the origin of the step that requested the j-th
// channel, which the events it schedules carry: the first-hop event's for
// j = 1.
func (w *worm) stepOrigin(j int) sim.Origin {
	if j == 1 {
		return w.from1
	}
	return sim.Origin{Sched: w.grantAt(j - 1), Key: w.stepKey(j)}
}

// reached reports whether the eager worm has been granted its j-th
// channel by the current point of the run: the first it holds, a later one
// once the step requesting it has run.
func (w *worm) reached(j int) bool {
	return j == 1 || w.f.k.RanFrom(w.grantAt(j), w.grantAt(j-1), w.stepOrigin(j-1), w.stepKey(j))
}

// releasedBy reports whether the eager worm has released its j-th
// channel, j < hops, by the current point of the run. The release is
// scheduled by the step granting the next channel.
func (w *worm) releasedBy(j int) bool {
	return w.f.k.RanFrom(w.releaseAt(j), w.grantAt(j+1), w.stepOrigin(j+1), w.key(wormRelease))
}

// settle folds a lazy reservation of cs that the eager worm has released
// by now into the channel's busy time, and frees the channel. Readers of
// busy time and contenders call it; it never materializes the worm.
func (f *Fabric) settle(cs *channelState) {
	w := cs.holder
	if w == nil || !w.lazy {
		return
	}
	if j := w.index(cs.grabbed); j < w.hops && w.releasedBy(j) {
		cs.busy += w.releaseAt(j).Sub(cs.grabbed)
		cs.holder = nil
	}
}

// lazyPath walks the channels a lazy worm holds or reserved past its
// injection channel, in path order, from its first switch.
type lazyPath struct {
	w    *worm
	node topology.NodeID
	idx  int
}

func (w *worm) path() lazyPath { return lazyPath{w: w, node: w.curNode, idx: w.routeIdx - 1} }

// next returns the path's next channel, the link it crosses and the node
// at its far end.
func (p *lazyPath) next() (chanKey, *topology.Link, topology.NodeID) {
	l := p.w.f.nw.Node(p.node).Ports[p.w.pkt.Route[p.idx]]
	key := keyFor(l, p.node)
	p.node = l.Other(p.node).Node
	p.idx++
	return key, l, p.node
}

// crosses reports whether a lazy worm's path crosses a link hit reports.
func (w *worm) crosses(hit func(link int) bool) bool {
	p := w.path()
	for j := 1; j <= w.hops; j++ {
		if _, l, _ := p.next(); hit(l.ID) {
			return true
		}
	}
	return false
}

// materialize turns a lazy worm eager at the current point of the run:
// the channels it has been granted are held (those released are folded
// and freed, those not reached yet freed), its position is that of its
// newest grant, and the releases and the head event the eager worm has
// pending are scheduled where the eager worm's steps scheduled them.
func (w *worm) materialize() {
	f, k := w.f, w.f.k
	newest := 1
	p := w.path()
	for j := 1; j <= w.hops; j++ {
		from := p.node
		key, _, next := p.next()
		cs := f.chans[key]
		if !w.reached(j) {
			if cs.holder == w {
				cs.holder = nil
			}
			continue
		}
		newest = j
		if j > 1 {
			w.held = append(w.held, key)
		}
		w.curNode, w.routeIdx, w.head = from, p.idx, next
		switch {
		case j == w.hops || !w.reached(j+1):
		case w.releasedBy(j):
			if cs.holder == w {
				cs.busy += w.releaseAt(j).Sub(w.grantAt(j))
				cs.holder = nil
			}
			w.released++
		default:
			k.AtFrom(w.releaseAt(j), w.grantAt(j+1), w.stepOrigin(j+1), w.key(wormRelease), w, wormRelease)
		}
	}
	if newest < w.hops {
		w.delivery.Cancel()
		k.AtFrom(w.grantAt(newest+1), w.grantAt(newest), w.stepOrigin(newest), w.stepKey(newest+1), w, wormAdvance)
	}
	w.lastGrant, w.lazy = w.grantAt(newest), false
}

// unreserve ends a lazy worm at its delivery: each channel it still holds
// is freed with the busy time the eager worm's release would have
// accounted, the last one's ending now.
func (w *worm) unreserve() {
	f := w.f
	p := w.path()
	for j := 1; j <= w.hops; j++ {
		key, _, _ := p.next()
		if cs := f.chans[key]; cs.holder == w {
			end := f.k.Now()
			if j < w.hops {
				end = w.releaseAt(j)
			}
			cs.busy += end.Sub(w.grantAt(j))
			cs.holder = nil
		}
	}
	w.lazy = false
}

// materializeWhere materializes the lazy worms pred selects (nil: all),
// in injection order.
func (f *Fabric) materializeWhere(pred func(*worm) bool) {
	for w := f.oldest; w != nil; w = w.newer {
		if w.lazy && (pred == nil || pred(w)) {
			w.materialize()
		}
	}
}

// SetTracer wires (or removes, with nil) a packet event tracer; lazy worms
// materialize first, so every hop from now on is traced.
func (f *Fabric) SetTracer(tr trace.Tracer) {
	f.materializeWhere(nil)
	f.wire.SetTracer(tr)
}

// SetLinkLoss makes link id gray (see wire.SetLinkLoss); lazy worms
// crossing it materialize first, so the worms yet to cross it sample its
// loss stream as eager ones do.
func (f *Fabric) SetLinkLoss(link int, rate float64, seed int64) {
	f.materializeWhere(func(w *worm) bool { return w.crosses(func(id int) bool { return id == link }) })
	f.wire.SetLinkLoss(link, rate, seed)
}
