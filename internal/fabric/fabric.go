package fabric

import (
	"fmt"
	"sort"
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
// link. dir 0 flows A→B, dir 1 flows B→A.
type chanKey struct {
	link int
	dir  int
}

// channelState is the arbiter for one directed channel: at most one worm
// streams on it; others wait FIFO.
type channelState struct {
	holder  *worm
	waiters []*worm
	busy    time.Duration
	grabbed sim.Time
}

// Fabric is the network wire simulator.
type Fabric struct {
	wire

	chans   map[chanKey]*channelState
	worms   map[*worm]struct{} // in-flight, for flush operations
	wormSeq uint64             // injection-order serial for deterministic worm ordering
}

// New returns a fabric over network nw driven by kernel k.
func New(k *sim.Kernel, nw *topology.Network, cfg Config) *Fabric {
	w := newWire(k, nw, cfg)
	if cfg.Watchdog <= 0 {
		panic("fabric: Watchdog must be positive")
	}
	f := &Fabric{
		wire:  w,
		chans: make(map[chanKey]*channelState),
		worms: make(map[*worm]struct{}),
	}
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
			if cs := f.chans[chanKey{i / 2, i % 2}]; cs != nil {
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
func (f *Fabric) InFlight() int { return len(f.worms) }

func (f *Fabric) chanState(key chanKey) *channelState {
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
		return chanKey{l.ID, 0}
	}
	return chanKey{l.ID, 1}
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
	w := &worm{f: f, pkt: pkt, curNode: src, seq: f.wormSeq}
	f.worms[w] = struct{}{}
	e := l.Other(src)
	w.request(keyFor(l, src), e.Node)
}

// KillLink marks a link permanently failed and flushes any worms holding or
// waiting on either of its channels.
func (f *Fabric) KillLink(l *topology.Link) {
	f.nw.KillLink(l)
	f.flushWhere(func(w *worm) bool { return w.usesLink(l.ID) })
}

// KillSwitch marks a switch permanently failed and flushes worms crossing
// any of its links.
func (f *Fabric) KillSwitch(id topology.NodeID) {
	f.nw.KillSwitch(id)
	n := f.nw.Node(id)
	links := make(map[int]bool)
	for _, l := range n.Ports {
		if l != nil {
			links[l.ID] = true
		}
	}
	f.flushWhere(func(w *worm) bool {
		for _, k := range w.held {
			if links[k.link] {
				return true
			}
		}
		return w.waiting != nil && links[w.waitKey.link]
	})
}

func (f *Fabric) flushWhere(pred func(*worm) bool) {
	// The worm set is a map: kill victims in injection order, or the drop
	// events (and the waiter promotions they cause) would reorder from run
	// to run.
	victims := f.wormsInOrder(pred)
	for _, w := range victims {
		w.die(DropFlushed)
	}
}

// wormsInOrder returns the in-flight worms matching pred, in injection
// order.
func (f *Fabric) wormsInOrder(pred func(*worm) bool) []*worm {
	var out []*worm
	for w := range f.worms {
		if pred == nil || pred(w) {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// InFlightDetail describes each in-flight worm — held channels, what it is
// waiting on, and whether a watchdog is armed. Diagnostic aid for chaos
// audits: at quiesce this should be empty.
func (f *Fabric) InFlightDetail() []string {
	var out []string
	for _, w := range f.wormsInOrder(nil) {
		held := 0
		for _, k := range w.held {
			if cs := f.chans[k]; cs != nil && cs.holder == w {
				held++
			}
		}
		wait := "-"
		if w.waiting != nil {
			h := "free"
			if w.waiting.holder != nil {
				h = fmt.Sprintf("held(src=%d dst=%d)", w.waiting.holder.pkt.Src, w.waiting.holder.pkt.Dst)
			}
			wait = fmt.Sprintf("link%d.%d[%s q=%d]", w.waitKey.link, w.waitKey.dir, h, len(w.waiting.waiters))
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
	cs := f.chans[keyFor(l, from)]
	if cs == nil {
		return 0
	}
	return cs.busy
}
