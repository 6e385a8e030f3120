package core

import (
	"bytes"
	"fmt"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/metrics"
	"sanft/internal/nic"
	"sanft/internal/parsim"
	"sanft/internal/proto"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// shardTraceCap bounds the trace ring of each cell of a plan of several
// cells. Rings are per cell, so overflow (oldest-event eviction) is a
// per-cell property, identical for every worker count.
const shardTraceCap = 8192

// cell is the unit of a cluster: a group of hosts with their NICs, a
// private kernel, and everything the group's protocol stacks touch — a
// topology view, a wire, a metrics observer and a tracer. Nothing in a
// cell is reachable from another cell except through the engine's
// epoch-barrier exchange; traffic between hosts of the same cell delivers
// directly through the cell's wire, with no clone and no barrier.
type cell struct {
	hosts  []topology.NodeID
	k      *sim.Kernel
	nw     *topology.Network
	wire   cellWire
	nics   map[topology.NodeID]*nic.NIC
	obs    *metrics.Observer
	tracer trace.Tracer

	deliveries []Delivery
}

func (c *cell) Kernel() *sim.Kernel { return c.k }

// cellWire is what a cell uses of its fabric: the wire its NICs inject
// into plus the observability, loss and fault hooks the wormhole Fabric
// and the Pipe share.
type cellWire interface {
	nic.Wire
	BindMetrics(*metrics.Registry)
	SetTracer(trace.Tracer)
	SetLinkLoss(link int, rate float64, seed int64)
	KillLink(*topology.Link)
}

// logDelivery returns host h's accepted-data upcall: it appends every
// accepted frame to the cell's delivery log.
func (c *cell) logDelivery(h topology.NodeID) func(*proto.Frame) {
	return func(f *proto.Frame) {
		c.deliveries = append(c.deliveries, Delivery{
			At: c.k.Now(), Src: f.Src, Dst: h, Msg: msgID(f), Gen: f.Gen, Seq: f.Seq,
		})
	}
}

// Delivery is one accepted data frame of a StartFlows workload, as
// observed by the destination's cell — the delivery-order oracle record.
type Delivery struct {
	At       sim.Time
	Src, Dst topology.NodeID
	Msg      uint64
	Gen      uint32
	Seq      uint64
}

func (d Delivery) String() string {
	return fmt.Sprintf("t=%d deliver %d->%d msg=%d gen=%d seq=%d", d.At, d.Src, d.Dst, d.Msg, d.Gen, d.Seq)
}

// Flow is one directed traffic stream of a frame-level workload.
type Flow struct {
	Src, Dst topology.NodeID
}

// cellGroups partitions the hosts into cells. The default engine is the
// one-cell plan; EngineSharded, or any non-zero Plan, resolves the plan
// with planGroups.
//
// A plan of several cells runs under the parallel engine, so it needs at
// least two hosts and two groups, and some things stay one-cell. On-demand
// mapping does: its probes and echoes would cross epoch barriers. So do
// VMMC endpoints, and with them chaos.Engine and the workload tier:
// vmmc.Import reads the exporter's table directly, a cross-cell read
// outside the barrier.
func (cfg *Config) cellGroups() [][]topology.NodeID {
	if cfg.Engine != EngineSharded && cfg.Plan.HostsPerShard == 0 {
		return [][]topology.NodeID{cfg.Hosts}
	}
	if cfg.Mapper {
		panic("core: on-demand mapping needs the one-cell plan: its probes and echoes would cross epoch barriers")
	}
	if len(cfg.Hosts) < 2 {
		panic("core: sharded execution needs at least two hosts")
	}
	groups := planGroups(cfg.Plan, cfg.Hosts)
	if len(groups) < 2 {
		panic("core: shard plan must create at least two shards")
	}
	return groups
}

// planGroups resolves a ShardPlan against the host list: HostsPerShard
// chunks the hosts in order, and the zero plan is one host per cell.
func planGroups(plan ShardPlan, hosts []topology.NodeID) [][]topology.NodeID {
	k := plan.HostsPerShard
	if k <= 0 {
		k = 1
	}
	var groups [][]topology.NodeID
	for i := 0; i < len(hosts); i += k {
		j := i + k
		if j > len(hosts) {
			j = len(hosts)
		}
		groups = append(groups, hosts[i:j])
	}
	return groups
}

// startEngine puts a plan of several cells under the parallel engine. The
// lookahead is the fastest cross-cell traversal the route table allows.
// A packet terminating at a host of another cell crosses via the engine,
// deep-copied from pooled storage — wire transit is the serialization
// point — and posted to the destination pipe's bound arrival handler,
// with the copy as the argument, so a crossing schedules no closure.
// Intra-cell packets never get here: their hosts are attached to the
// cell's own pipe.
func (c *Cluster) startEngine(routes *routing.Table, groups [][]topology.NodeID) {
	c.Lookahead = c.cfg.Fabric.MinCrossLatency(minCrossHops(routes, groups))
	shards := make([]parsim.Shard, len(c.cells))
	pipes := make([]*fabric.Pipe, len(c.cells))
	for i, cl := range c.cells {
		shards[i], pipes[i] = cl, cl.wire.(*fabric.Pipe)
	}
	c.eng = parsim.NewEngine(shards, c.Lookahead, c.cfg.Workers)
	for i, p := range pipes {
		port := c.eng.Port(i)
		pkts, frames := fabric.PacketsOf(c.cells[i].k), proto.FramesOf(c.cells[i].k)
		p.SetEgress(func(dst topology.NodeID, at sim.Time, pkt *fabric.Packet) {
			j, ok := c.byHost[dst]
			if !ok {
				return // terminal node is not a workload host: silently lost
			}
			port.Send(at, j, pipes[j].Arrival(), clonePacket(pkts, frames, pkt))
		})
	}
}

// msgID extracts the VMMC message ID of a data frame (0 otherwise).
func msgID(f *proto.Frame) uint64 {
	if f.Data != nil {
		return f.Data.MsgID
	}
	return 0
}

// clonePacket deep-copies a packet crossing a shard boundary, drawing
// packet and frame storage from the source cell's lists, pkts and
// frames: the destination NIC's receive path sends both back to those
// lists at end of life, so steady-state cross-shard traffic allocates
// nothing. Callbacks are stripped (fabric.Packets.Clone): OnInjectDone
// already fired on the source shard, and the wire gives no cross-host
// drop feedback (which is why the retransmission protocol exists). The
// original packet's reference to its frame ends with the copy, so the
// hook lets go of the packet's hold here: an explicit ack's frame goes
// back to its list, and a data frame stays with whoever else holds it,
// the sender's retransmission entry under FT. The original packet goes
// back after its send DMA (fabric.Pipe).
func clonePacket(pkts fabric.Packets, frames proto.Frames, pkt *fabric.Packet) *fabric.Packet {
	cp := pkts.Clone(pkt)
	if f, ok := pkt.Payload.(*proto.Frame); ok {
		cp.Payload = frames.Clone(f)
		frames.Release(f)
	}
	return cp
}

// minCrossHops returns the smallest switch count on any shortest route
// between hosts of different shards, read from the cluster's route table
// — the hop floor for the lookahead derivation. Routes inside one shard
// don't constrain the lookahead (intra-cell delivery never crosses a
// barrier), which is exactly why coarse shards widen the window on
// clustered topologies.
func minCrossHops(t *routing.Table, groups [][]topology.NodeID) int {
	best := -1
	for i, ga := range groups {
		for _, a := range ga {
			row := t.Row(a)
			for j, gb := range groups {
				if i == j {
					continue
				}
				for _, b := range gb {
					if r := row[b]; r != nil && (best < 0 || len(r) < best) {
						best = len(r)
					}
				}
			}
		}
	}
	if best < 0 {
		return 1 // no route crosses shards at all
	}
	return best
}

// FlapTrunk schedules trunk link index ti (modulo the trunk count, in
// link-ID order) to fail at `at` and heal at `at+dur`: a one-event
// ScheduleLinkFlaps. A network without trunks is left alone.
func (c *Cluster) FlapTrunk(ti int, at, dur time.Duration) {
	trunks := c.Net.TrunkLinks()
	if len(trunks) == 0 {
		return
	}
	c.ScheduleLinkFlaps([]LinkFlapEvent{{Link: trunks[ti%len(trunks)].ID, At: at, Dur: dur}})
}

// LinkFlapEvent is one scheduled fault: topology link Link goes down at At
// and heals Dur later (Dur == 0 leaves it down permanently).
type LinkFlapEvent struct {
	Link int
	At   time.Duration
	Dur  time.Duration
}

// ScheduleLinkFlaps replicates a precomputed link-fault schedule onto
// every cell's topology view — the general form of FlapTrunk that flap
// storms feed with hundreds of seeded events. A fault goes down through
// the cell's wire (the wormhole fabric flushes the worms holding the
// link) and heals on the topology view. Fault events are global state
// changes applied identically on every cell at the same simulated
// instant, so they need no lookahead and are byte-identical for any
// worker count. Every link index is checked before anything is
// scheduled. Call before Run.
func (c *Cluster) ScheduleLinkFlaps(events []LinkFlapEvent) {
	for _, ev := range events {
		if ev.Link < 0 || ev.Link >= len(c.Net.Links) {
			panic(fmt.Sprintf("core: ScheduleLinkFlaps link %d out of range (%d links)", ev.Link, len(c.Net.Links)))
		}
	}
	for _, cl := range c.cells {
		nw, w := cl.nw, cl.wire
		for _, ev := range events {
			l := nw.Links[ev.Link]
			cl.k.After(ev.At, func() { w.KillLink(l) })
			if ev.Dur > 0 {
				cl.k.After(ev.At+ev.Dur, func() { nw.RestoreLink(l) })
			}
		}
	}
}

// StartFlows spawns the frame-level workload: for each flow, a sender
// process on the source's cell pushes msgs data frames of size bytes with
// gap pacing (plus a per-flow stagger), and the destination's cell logs
// every accepted frame (see Deliveries). Each flow must join two distinct
// cluster hosts; StartFlows checks every flow, and panics naming the
// first bad one, before it schedules anything. The delivery log takes
// over each destination NIC's accepted-data upcall, so on the one-cell
// plan a flow's destination stops being a VMMC receiver.
func (c *Cluster) StartFlows(flows []Flow, msgs, bytes int, gap time.Duration) {
	for i, f := range flows {
		_, src := c.byHost[f.Src]
		_, dst := c.byHost[f.Dst]
		if !src || !dst || f.Src == f.Dst {
			panic(fmt.Sprintf("core: StartFlows flow %d (%d->%d) must join two distinct cluster hosts", i, f.Src, f.Dst))
		}
	}
	if msgs == 0 {
		msgs = 6
	}
	if bytes == 0 {
		bytes = 512
	}
	if gap == 0 {
		gap = 200 * time.Microsecond
	}
	// Every message is sent from one zero buffer: no layer writes a send
	// buffer (a boundary copy copies the bytes, a receiver reads them).
	buf := make([]byte, bytes)
	for i, f := range flows {
		sc, dc := c.cells[c.byHost[f.Src]], c.cells[c.byHost[f.Dst]]
		dc.nics[f.Dst].SetOnDeliver(dc.logDelivery(f.Dst))
		n, frames := sc.nics[f.Src], proto.FramesOf(sc.k)
		stagger := time.Duration(i%7) * 37 * time.Microsecond
		sc.k.Spawn(fmt.Sprintf("flow-%d-%d", f.Src, f.Dst), func(p *sim.Proc) {
			p.Sleep(stagger)
			for m := 1; m <= msgs; m++ {
				n.Send(p, frames.NewData(f.Dst, proto.DataPayload{
					MsgID:  uint64(m),
					MsgLen: bytes,
					Data:   buf,
					Notify: true,
				}))
				p.Sleep(gap)
			}
		})
	}
}

// Workers returns the engine's worker count (1 on the one-cell plan).
func (c *Cluster) Workers() int {
	if c.eng == nil {
		return 1
	}
	return c.eng.Workers()
}

// Epochs returns how many epoch windows the engine has executed (0 on the
// one-cell plan).
func (c *Cluster) Epochs() uint64 {
	if c.eng == nil {
		return 0
	}
	return c.eng.Epochs()
}

// Exchanged returns how many packets crossed cell boundaries (0 on the
// one-cell plan).
func (c *Cluster) Exchanged() uint64 {
	if c.eng == nil {
		return 0
	}
	return c.eng.Exchanged()
}

// TotalExecuted sums executed events across all cell kernels.
func (c *Cluster) TotalExecuted() uint64 {
	var t uint64
	for _, cl := range c.cells {
		t += cl.k.Executed()
	}
	return t
}

// Shards returns the cell count of the partition (1 on the one-cell plan).
func (c *Cluster) Shards() int { return len(c.cells) }

// CellKernel returns cell i's kernel (for RNG-discipline checks).
func (c *Cluster) CellKernel(i int) *sim.Kernel { return c.cells[i].k }

// MergedObserver merges every cell's registry (in cell order — though any
// order gives the same result, see metrics.MergeFrom) into one fresh
// observer, materializing derived gauges at the current frontier.
func (c *Cluster) MergedObserver() *metrics.Observer {
	obs := metrics.NewObserver(c.cfg.Metrics)
	for _, cl := range c.cells {
		obs.Registry().MergeFrom(cl.obs.Registry())
	}
	return obs
}

// TraceEvents returns the deterministic cluster-wide timeline: the cells'
// rings merged by (time, cell index, emission order). On the one-cell
// plan that is the events of the cluster tracer when it is a *trace.Ring,
// and nil otherwise.
func (c *Cluster) TraceEvents() []trace.Event {
	streams := make([][]trace.Event, len(c.cells))
	for i, cl := range c.cells {
		if r, ok := cl.tracer.(*trace.Ring); ok {
			streams[i] = r.Events()
		}
	}
	return sim.MergeByTime(streams, func(e *trace.Event) sim.Time { return e.At })
}

// Deliveries returns the merged delivery order of the StartFlows
// workload: per-cell logs (each in local time order) merged by (time,
// cell index, log position).
func (c *Cluster) Deliveries() []Delivery {
	logs := make([][]Delivery, len(c.cells))
	for i, cl := range c.cells {
		logs[i] = cl.deliveries
	}
	return sim.MergeByTime(logs, func(d *Delivery) sim.Time { return d.At })
}

// DeliveredCount returns the total number of accepted StartFlows frames.
func (c *Cluster) DeliveredCount() int {
	n := 0
	for _, cl := range c.cells {
		n += len(cl.deliveries)
	}
	return n
}

// DumpObservables renders every observable of the run as one byte
// stream — delivery order, merged metrics summary, and the merged
// Perfetto trace export — the payload of the differential determinism
// gate: byte-identical for every worker count.
func (s *Cluster) DumpObservables() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "sharded run: hosts=%d lookahead=%v frontier=%d exchanged=%d\n",
		len(s.Hosts), s.Lookahead, s.Now(), s.Exchanged())
	b.WriteString("--- deliveries ---\n")
	for _, d := range s.Deliveries() {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	b.WriteString("--- metrics ---\n")
	obs := s.MergedObserver()
	obs.SampleNow(s.Now())
	b.WriteString(obs.Summary())
	if err := obs.WriteJSONL(&b); err != nil {
		fmt.Fprintf(&b, "jsonl error: %v\n", err)
	}
	b.WriteString("--- perfetto ---\n")
	if err := trace.WriteChromeTrace(&b, s.TraceEvents()); err != nil {
		fmt.Fprintf(&b, "perfetto error: %v\n", err)
	}
	b.WriteByte('\n')
	return b.Bytes()
}
