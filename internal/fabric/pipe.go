package fabric

import (
	"time"

	"sanft/internal/metrics"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// Pipe is the shard-local fabric of the conservative parallel engine
// (internal/parsim): a latency-faithful, contention-decoupled wire model.
//
// The wormhole fabric cannot be partitioned conservatively: backpressure
// couples a worm's tail to its head with zero lookahead (a blocked channel
// on one host's path releases at the same instant another host's grant
// lands). Pipe removes channel contention and evaluates the whole path at
// injection time against the shard's own topology replica, charging the
// uncontended cut-through latency:
//
//	H·(PropDelay + RouteDelay) + PropDelay + SerializationTime(size)
//
// for a route crossing H switches — exactly the wormhole fabric's
// uncontended pipeline. Every quantity depends only on the shard's local
// state at the injection instant, so a packet's arrival time is known the
// moment it leaves, and the minimum such latency over all host pairs is a
// sound lookahead for the epoch barrier. Route and liveness checks (dead
// links, dead switches, bad route bytes) also happen at injection time:
// drop timing shifts earlier than the wormhole's head-hits-the-fault
// timing, which is a documented modeling difference of sharded mode — but
// an identical one for every worker count, which is what byte-identical
// parallel execution requires.
//
// A destination host attached locally (AttachHost) receives directly; any
// other destination is handed to the Egress hook with its precomputed
// arrival time — the shard boundary the engine carries packets across.
type Pipe struct {
	wire

	egress func(dst topology.NodeID, at sim.Time, pkt *Packet)

	// The send-DMA completion and the local arrival of every packet, bound
	// once; the packet is the event argument. sentAway is the send-DMA
	// completion of a packet handed to the egress hook.
	sent, sentAway, landed sim.Handler
}

// NewPipe returns a pipe-mode fabric over the (shard-local) network nw
// driven by kernel k. Pipe mode has no channel arbiters, so unlike the
// wormhole fabric it publishes no per-link busy/utilization gauges — only
// the packet counters.
func NewPipe(k *sim.Kernel, nw *topology.Network, cfg Config) *Pipe {
	p := &Pipe{wire: newWire(k, nw, cfg)}
	p.sent = (*pipeSent)(p)
	p.sentAway = (*pipeSentAway)(p)
	p.landed = (*pipeLanded)(p)
	p.BindMetrics(metrics.NewRegistry())
	return p
}

// pipeSent and pipeLanded are a Pipe seen as the Handler of a packet's
// send-DMA completion and of its local arrival, pipeSentAway as that of
// the send-DMA completion of a packet handed to the egress hook; the
// packet is the event argument.
type (
	pipeSent     Pipe
	pipeSentAway Pipe
	pipeLanded   Pipe
)

func (*pipeSent) Fire(arg any) {
	if pkt := arg.(*Packet); pkt.OnInjectDone != nil {
		pkt.OnInjectDone()
	}
}

// Fire completes the send DMA of a packet the egress hook has copied
// (or let go), which is its last use.
func (*pipeSentAway) Fire(arg any) {
	pkt := arg.(*Packet)
	if pkt.OnInjectDone != nil {
		pkt.OnInjectDone()
	}
	pkt.Release()
}

func (p *pipeLanded) Fire(arg any) {
	pkt := arg.(*Packet)
	(*Pipe)(p).arrive(pkt.term, pkt)
}

func (*pipeSent) EventKind() sim.EventKind     { return sim.KindPipe }
func (*pipeSentAway) EventKind() sim.EventKind { return sim.KindPipe }
func (*pipeLanded) EventKind() sim.EventKind   { return sim.KindPipe }

// SetEgress installs the shard-boundary hook: packets terminating at a
// host with no local AttachHost callback are handed to fn together with
// their arrival time (strictly later than now by at least the cross-shard
// lookahead). The engine forwards them to the owning shard's pipe via
// Arrive. fn must copy what it keeps: the pipe releases the packet after
// its send DMA.
func (p *Pipe) SetEgress(fn func(dst topology.NodeID, at sim.Time, pkt *Packet)) {
	p.egress = fn
}

// Inject launches a packet from host src. The whole route is evaluated
// now against the shard's topology replica; on success the send DMA
// completes after one serialization time and the packet arrives at its
// terminal host after the uncontended cut-through latency. Any drop
// decided here still completes the send DMA, as on the wormhole fabric.
func (p *Pipe) Inject(src topology.NodeID, pkt *Packet) {
	l := p.inject(src, pkt)
	if l == nil {
		return
	}
	lat := p.cfg.PropDelay
	cur := l.Other(src).Node
	for _, port := range pkt.Route {
		node := p.nw.Node(cur)
		if node.Kind != topology.Switch {
			p.dropAtInject(pkt, DropBadRoute)
			return
		}
		if !node.Up {
			p.dropAtInject(pkt, DropDeadSwitch)
			return
		}
		lat += p.cfg.RouteDelay
		if port < 0 || port >= node.Radix() || node.Ports[port] == nil {
			p.dropAtInject(pkt, DropBadRoute)
			return
		}
		nl := node.Ports[port]
		if !p.nw.LinkUsable(nl) {
			p.dropAtInject(pkt, DropDeadLink)
			return
		}
		if p.graySample(nl.ID) {
			p.dropAtInject(pkt, DropGray)
			return
		}
		lat += p.cfg.PropDelay
		cur = nl.Other(cur).Node
	}
	term := p.nw.Node(cur)
	if term.Kind != topology.Host || !term.Up {
		p.dropAtInject(pkt, DropBadRoute)
		return
	}

	local := p.deliver[cur] != nil
	if !local && p.egress == nil {
		p.dropAtInject(pkt, DropNoRoute)
		return
	}
	ser := p.SerializationTime(pkt.Size)
	sent := p.sent
	if !local {
		sent = p.sentAway
	}
	p.k.AtHandler(p.k.Now().Add(ser), sent, pkt)
	at := p.k.Now().Add(lat + ser)
	if local {
		pkt.term = cur
		p.k.AtHandler(at, p.landed, pkt)
		return
	}
	p.egress(cur, at, pkt)
}

// Arrive completes delivery of pkt to terminal host dst at the current
// instant. For cross-shard packets the engine calls this on the owning
// shard's pipe at the arrival time the source shard computed.
func (p *Pipe) Arrive(dst topology.NodeID, pkt *Packet) { p.arrive(dst, pkt) }

// MinCrossLatency returns the smallest pipe-mode traversal latency between
// any ordered pair of distinct hosts whose shortest route crosses minHops
// switches — the conservative lookahead of the parallel engine. It
// excludes serialization time (a true lower bound for any packet size):
//
//	lookahead = minHops·(PropDelay + RouteDelay) + PropDelay
//
// Every cross-shard packet arrives at least this much later than its
// injection, so events exchanged at an epoch boundary can never land
// inside the epoch that produced them.
func (cfg Config) MinCrossLatency(minHops int) time.Duration {
	if minHops < 1 {
		minHops = 1
	}
	return time.Duration(minHops)*(cfg.PropDelay+cfg.RouteDelay) + cfg.PropDelay
}
