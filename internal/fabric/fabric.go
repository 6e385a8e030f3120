package fabric

import (
	"fmt"
	"strconv"
	"time"

	"sanft/internal/metrics"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// Config holds the physical constants of the fabric. Defaults (via
// DefaultConfig) are calibrated to the paper's Myrinet testbed.
type Config struct {
	// LinkRate is the per-direction link bandwidth in bytes/second.
	// Myrinet: 1.28 Gb/s = 160e6 B/s.
	LinkRate float64
	// PropDelay is the per-link propagation delay (SAN cables are a few
	// feet).
	PropDelay time.Duration
	// RouteDelay is the per-switch routing decision time (crossbar setup).
	RouteDelay time.Duration
	// Watchdog is the Myrinet blocked-path timer: a worm blocked longer
	// than this is reset and its packet dropped. Hardware-configurable
	// 62.5 ms – 4 s; default 62.5 ms.
	Watchdog time.Duration
}

// DefaultConfig returns constants calibrated to the paper's testbed.
func DefaultConfig() Config {
	return Config{
		LinkRate:   160e6,
		PropDelay:  50 * time.Nanosecond,
		RouteDelay: 300 * time.Nanosecond,
		Watchdog:   62500 * time.Microsecond,
	}
}

// chanKey identifies a directed channel: one direction of a full-duplex
// link, numbered 2·linkID + dir (dir 0 flows A→B, dir 1 flows B→A). It
// indexes the wormhole fabric's channel slice.
type chanKey int32

func (k chanKey) link() int { return int(k) >> 1 }
func (k chanKey) dir() int  { return int(k) & 1 }

// channelState is the arbiter for one directed channel: at most one worm
// streams on it; others wait FIFO.
type channelState struct {
	holder  *worm
	waiters sim.Queue[*worm]
	busy    time.Duration
	grabbed sim.Time
}

// Fabric is the network wire simulator.
type Fabric struct {
	wire

	chans []*channelState // indexed by chanKey; nil until first used
	// oldest and newest end the list of in-flight worms, linked in
	// injection order; inFlight counts them.
	oldest, newest *worm
	inFlight       int
	wormSeq        uint64 // injection-order serial, printed by InFlightDetail

	lazyOn bool  // worms may go lazy on free paths (SetLazyWorms)
	firing *worm // the worm whose event is running, nil between worm events

	// free holds delivered worms for Inject to reuse (see worm.Fire).
	free []*worm

	// The worm metrics, resolved on first use like the wire's counters.
	watchdogResets *metrics.Counter
	blockNS        *metrics.Histogram
}

// New returns a fabric over network nw driven by kernel k.
func New(k *sim.Kernel, nw *topology.Network, cfg Config) *Fabric {
	w := newWire(k, nw, cfg)
	if cfg.Watchdog <= 0 {
		panic("fabric: Watchdog must be positive")
	}
	f := &Fabric{wire: w, chans: make([]*channelState, 2*len(nw.Links))}
	f.BindMetrics(metrics.NewRegistry())
	return f
}

// BindMetrics points the fabric's instrumentation at reg (core.New calls
// this with the cluster-wide registry before any traffic flows; standalone
// fabrics keep the private registry New installed). Per-link busy time and
// utilization are published by one gauge collector, a pair of gauges per
// directed channel of every link present now.
func (f *Fabric) BindMetrics(reg *metrics.Registry) {
	f.wire.BindMetrics(reg)
	f.watchdogResets, f.blockNS = nil, nil
	nlinks := len(f.nw.Links)
	var ids []string // busy and utilization idents per channel, built on first export
	reg.GaugeCollector("fabric.link", func(emit func(string, float64)) {
		if ids == nil {
			ids = make([]string, 0, 4*nlinks)
			for id := 0; id < nlinks; id++ {
				for dir := 0; dir < 2; dir++ {
					ls := "{dir=" + strconv.Itoa(dir) + ",link=" + strconv.Itoa(id) + "}"
					ids = append(ids, "fabric.link.busy_ns"+ls, "fabric.link.utilization"+ls)
				}
			}
		}
		now := f.k.Now()
		for i := 0; i < 2*nlinks; i++ {
			var busy float64
			if cs := f.channel(chanKey(i)); cs != nil {
				f.settle(cs)
				busy = float64(cs.busy)
			}
			var util float64
			if now > 0 {
				util = busy / float64(now)
			}
			emit(ids[2*i], busy)
			emit(ids[2*i+1], util)
		}
	})
}

// InFlight returns the number of worms currently in the network.
func (f *Fabric) InFlight() int { return f.inFlight }

// channel returns the arbiter of key, nil if no worm ever used it.
func (f *Fabric) channel(key chanKey) *channelState {
	if int(key) >= len(f.chans) {
		return nil
	}
	return f.chans[key]
}

// chanState returns the arbiter of key, creating it on first use. The
// slice grows for a link added after New.
func (f *Fabric) chanState(key chanKey) *channelState {
	if grow := int(key) + 1 - len(f.chans); grow > 0 {
		f.chans = append(f.chans, make([]*channelState, grow)...)
	}
	cs := f.chans[key]
	if cs == nil {
		cs = &channelState{}
		f.chans[key] = cs
	}
	return cs
}

// keyFor returns the directed channel leaving `from` across link l.
func keyFor(l *topology.Link, from topology.NodeID) chanKey {
	if l.A.Node == from {
		return chanKey(2 * l.ID)
	}
	return chanKey(2*l.ID + 1)
}

// track appends w to the in-flight list.
func (f *Fabric) track(w *worm) {
	w.older = f.newest
	if f.newest != nil {
		f.newest.newer = w
	} else {
		f.oldest = w
	}
	f.newest = w
	f.inFlight++
}

// untrack unlinks w from the in-flight list.
func (f *Fabric) untrack(w *worm) {
	if w.older != nil {
		w.older.newer = w.newer
	} else {
		f.oldest = w.newer
	}
	if w.newer != nil {
		w.newer.older = w.older
	} else {
		f.newest = w.older
	}
	w.older, w.newer = nil, nil
	f.inFlight--
}

// Inject launches a packet from host src. The packet's fate is reported via
// its callbacks and the registry's fabric.* counters; there is no error
// return — the wire gives no feedback, which is precisely why the
// retransmission protocol exists.
func (f *Fabric) Inject(src topology.NodeID, pkt *Packet) {
	l := f.inject(src, pkt)
	if l == nil {
		return
	}
	f.wormSeq++
	var w *worm
	if n := len(f.free); n > 0 {
		w = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
	} else {
		w = &worm{f: f}
	}
	w.pkt, w.curNode, w.seq = pkt, src, f.wormSeq
	w.held = w.heldBuf[:0]
	f.track(w)
	e := l.Other(src)
	w.request(keyFor(l, src), e.Node)
}

// KillLink marks a link permanently failed and flushes any worms holding or
// waiting on either of its channels.
func (f *Fabric) KillLink(l *topology.Link) {
	f.nw.KillLink(l)
	f.flushLinks(func(id int) bool { return id == l.ID })
}

// KillSwitch marks a switch permanently failed and flushes the worms
// holding or waiting on a channel of any of its links. A worm whose tail
// has already left the switch is past it, and carries on.
func (f *Fabric) KillSwitch(id topology.NodeID) {
	f.nw.KillSwitch(id)
	ports := f.nw.Node(id).Ports
	f.flushLinks(func(link int) bool {
		for _, l := range ports {
			if l != nil && l.ID == link {
				return true
			}
		}
		return false
	})
}

// flushLinks kills the worms that hold or wait on a channel of a link hit
// reports. Lazy worms whose path crosses such a link materialize first, so
// the kill meets the eager state.
func (f *Fabric) flushLinks(hit func(link int) bool) {
	f.materializeWhere(func(w *worm) bool { return w.crosses(hit) })
	f.flushWhere(func(w *worm) bool { return w.usesLinks(hit) })
}

// flushWhere kills the in-flight worms matching pred, in injection order.
// The victims are collected first: a death can hand a channel to a waiter
// whose grant kills it in turn.
func (f *Fabric) flushWhere(pred func(*worm) bool) {
	for _, w := range f.wormsInOrder(pred) {
		w.die(DropFlushed)
	}
}

// wormsInOrder returns the in-flight worms matching pred (nil: all), in
// injection order.
func (f *Fabric) wormsInOrder(pred func(*worm) bool) []*worm {
	var out []*worm
	for w := f.oldest; w != nil; w = w.newer {
		if pred == nil || pred(w) {
			out = append(out, w)
		}
	}
	return out
}

// InFlightDetail describes each in-flight worm — held channels, what it is
// waiting on, and whether a watchdog is armed. Diagnostic aid for chaos
// audits: at quiesce this should be empty. Lazy worms materialize first,
// so each line shows the eager state.
func (f *Fabric) InFlightDetail() []string {
	f.materializeWhere(nil)
	var out []string
	for _, w := range f.wormsInOrder(nil) {
		held := 0
		for _, k := range w.held {
			if cs := f.channel(k); cs != nil && cs.holder == w {
				held++
			}
		}
		wait := "-"
		if w.waiting != nil {
			h := "free"
			if w.waiting.holder != nil {
				h = fmt.Sprintf("held(src=%d dst=%d)", w.waiting.holder.pkt.Src, w.waiting.holder.pkt.Dst)
			}
			wait = fmt.Sprintf("link%d.%d[%s q=%d]", w.waitKey.link(), w.waitKey.dir(), h, w.waiting.waiters.Len())
		}
		out = append(out, fmt.Sprintf(
			"worm#%d src=%d dst=%d size=%d routeIdx=%d/%d held=%d/%d wait=%s watchdog=%v dead=%v",
			w.seq, w.pkt.Src, w.pkt.Dst, w.pkt.Size, w.routeIdx, len(w.pkt.Route),
			held, len(w.held), wait, w.watchdog.Pending(), w.dead))
	}
	return out
}

// ChannelBusyTime returns the accumulated busy time of the directed channel
// leaving `from` over link l, for utilization reporting.
func (f *Fabric) ChannelBusyTime(l *topology.Link, from topology.NodeID) time.Duration {
	cs := f.channel(keyFor(l, from))
	if cs == nil {
		return 0
	}
	f.settle(cs)
	return cs.busy
}
