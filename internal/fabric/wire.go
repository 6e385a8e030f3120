package fabric

import (
	"fmt"
	"time"

	"sanft/internal/metrics"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// wire is the core the wormhole Fabric and the shard-local Pipe share:
// host attachment, fault hooks, tracing, gray links, the registry binding,
// and the accounting of every packet's injection, drop and delivery. Each
// of those facts is recorded once, in the registry.
type wire struct {
	k   *sim.Kernel
	nw  *topology.Network
	cfg Config

	// deliver holds each attached host's receive callback, indexed by
	// node ID; gray the loss state of each gray link (SetLinkLoss),
	// indexed by link ID, and stays nil until some link turns gray.
	deliver []func(*Packet)
	gray    []*grayLink

	// transitHook, if set, runs once per packet at delivery time and may
	// mutate it (set Corrupted) or return false to drop it in transit.
	transitHook func(*Packet) bool

	// tracer, if set, receives packet events: drops with reason and
	// deliveries, plus the wormhole fabric's hop-level channel events.
	tracer trace.Tracer

	reg *metrics.Registry
	// injected, delivered and bytes hold the fabric.pkts_injected,
	// fabric.pkts_delivered and fabric.bytes_delivered counters, resolved
	// on first use (count) like the drop counters.
	injected, delivered, bytes *metrics.Counter
	// dropped holds the fabric.pkts_dropped{reason=…} counter of each
	// reason, resolved on its first drop: a drop then allocates nothing,
	// and a reason that never fires never appears in an export.
	dropped [len(dropNames)]*metrics.Counter
}

func newWire(k *sim.Kernel, nw *topology.Network, cfg Config) wire {
	if cfg.LinkRate <= 0 {
		panic("fabric: LinkRate must be positive")
	}
	return wire{k: k, nw: nw, cfg: cfg, deliver: make([]func(*Packet), len(nw.Nodes))}
}

// BindMetrics points the packet counters at reg. core.New calls it with
// the cluster-wide (or shard) registry before any traffic flows;
// standalone fabrics keep the private registry their constructor installed.
func (w *wire) BindMetrics(reg *metrics.Registry) {
	w.reg = reg
	w.injected, w.delivered, w.bytes = nil, nil, nil
	w.dropped = [len(dropNames)]*metrics.Counter{}
}

// count adds n to the unlabelled counter name held in *c, resolving it on
// first use: a count then allocates nothing, and a series that never
// fires never appears in an export.
func (w *wire) count(c **metrics.Counter, name string, n uint64) {
	if *c == nil {
		*c = w.reg.Counter(name, nil)
	}
	(*c).Add(n)
}

// Metrics returns the registry the fabric currently records into.
func (w *wire) Metrics() *metrics.Registry { return w.reg }

// Kernel returns the driving kernel.
func (w *wire) Kernel() *sim.Kernel { return w.k }

// Network returns the topology (a shard-local replica for a Pipe).
func (w *wire) Network() *topology.Network { return w.nw }

// Config returns the fabric constants.
func (w *wire) Config() Config { return w.cfg }

// AttachHost registers the receive callback for a host: it runs (in event
// context) when a packet's tail fully arrives at that host.
func (w *wire) AttachHost(h topology.NodeID, fn func(*Packet)) {
	if w.nw.Node(h).Kind != topology.Host {
		panic(fmt.Sprintf("fabric: %d is not a host", h))
	}
	for int(h) >= len(w.deliver) {
		w.deliver = append(w.deliver, nil)
	}
	w.deliver[h] = fn
}

// host returns the receive callback attached at host h, nil if none.
func (w *wire) host(h topology.NodeID) func(*Packet) {
	if int(h) < len(w.deliver) {
		return w.deliver[h]
	}
	return nil
}

// SetTransitHook installs a fault-injection hook invoked once per packet at
// delivery. Returning false drops the packet (counted as DropInjected); the
// hook may also set pkt.Corrupted to model CRC errors.
func (w *wire) SetTransitHook(fn func(*Packet) bool) { w.transitHook = fn }

// SetTracer wires (or removes, with nil) a packet event tracer. Fabric
// events are attributed to the packet's source (Event.Node = Src) so they
// join the source's message span.
func (w *wire) SetTracer(tr trace.Tracer) { w.tracer = tr }

// KillLink marks link l failed on this wire's topology view. The wormhole
// Fabric overrides it to also flush the worms holding the link; a Pipe
// evaluates routes at injection and has nothing in flight to flush.
func (w *wire) KillLink(l *topology.Link) { w.nw.KillLink(l) }

// SerializationTime returns how long a packet of n bytes occupies a link.
func (w *wire) SerializationTime(n int) time.Duration {
	return time.Duration(float64(n) / w.cfg.LinkRate * 1e9)
}

// SetLinkLoss makes link id gray: every packet crossing it is dropped
// with probability rate, drawn from the link's deterministic (seed, link)
// stream. rate 0 removes the loss.
func (w *wire) SetLinkLoss(link int, rate float64, seed int64) {
	if rate <= 0 {
		if link < len(w.gray) {
			w.gray[link] = nil
		}
		return
	}
	for link >= len(w.gray) {
		w.gray = append(w.gray, nil)
	}
	w.gray[link] = newGrayLink(rate, seed, link)
}

// grayLink returns the loss state of link id, nil if it is not gray.
func (w *wire) grayLink(link int) *grayLink {
	if link < len(w.gray) {
		return w.gray[link]
	}
	return nil
}

// graySample draws the gray stream of link id (if any) for one crossing.
func (w *wire) graySample(link int) bool {
	g := w.grayLink(link)
	return g != nil && g.drop()
}

// emitPkt records one trace event for pkt. link < 0 means "no channel
// involved" (drops at injection, deliveries, every pipe event).
func (w *wire) emitPkt(kind trace.Kind, pkt *Packet, link, dir int, note string) {
	if w.tracer == nil {
		return
	}
	e := trace.Event{
		At: w.k.Now(), Node: pkt.Src, Kind: kind, Peer: pkt.Dst,
		Gen: pkt.Gen, Seq: pkt.Seq, Msg: pkt.Msg, Note: note,
	}
	if link >= 0 {
		e.Link = int32(link + 1)
		e.Dir = uint8(dir)
	}
	w.tracer.Trace(e)
}

// inject stamps and counts a packet leaving host src and checks the
// host's own link. It returns that link, or nil once the packet has been
// dropped.
func (w *wire) inject(src topology.NodeID, pkt *Packet) *topology.Link {
	pkt.Src = src
	pkt.Injected = w.k.Now()
	w.count(&w.injected, "fabric.pkts_injected", 1)
	n := w.nw.Node(src)
	if n.Kind != topology.Host {
		panic(fmt.Sprintf("fabric: inject from non-host %s", n.Name))
	}
	l := n.Ports[0]
	if !w.nw.LinkUsable(l) {
		w.dropAtInject(pkt, DropNoRoute)
		return nil
	}
	if w.graySample(l.ID) {
		w.dropAtInject(pkt, DropGray)
		return nil
	}
	return l
}

// dropAtInject drops a packet whose route failed before it left the
// source and completes its send DMA: nothing else would release the
// injection channel, and the source NIC's transmit path would wedge.
func (w *wire) dropAtInject(pkt *Packet, reason DropReason) {
	w.drop(pkt, reason)
	if pkt.OnInjectDone != nil {
		pkt.OnInjectDone()
	}
}

func (w *wire) drop(pkt *Packet, reason DropReason) {
	c := w.dropped[reason]
	if c == nil {
		c = w.reg.Counter("fabric.pkts_dropped", metrics.L("reason", reason.String()))
		w.dropped[reason] = c
	}
	c.Inc()
	w.emitPkt(trace.EvFabDrop, pkt, -1, 0, reason.String())
	if pkt.OnDropped != nil {
		pkt.OnDropped(reason)
	}
}

// arrive completes delivery of pkt at host dst: the transit hook may drop
// it; otherwise it is stamped, counted, traced and handed to the host.
func (w *wire) arrive(dst topology.NodeID, pkt *Packet) {
	if w.transitHook != nil && !w.transitHook(pkt) {
		w.drop(pkt, DropInjected)
		return
	}
	pkt.Delivered = w.k.Now()
	w.count(&w.delivered, "fabric.pkts_delivered", 1)
	w.count(&w.bytes, "fabric.bytes_delivered", uint64(pkt.Size))
	w.emitPkt(trace.EvDeliver, pkt, -1, 0, "")
	if fn := w.host(dst); fn != nil {
		fn(pkt)
	}
}
