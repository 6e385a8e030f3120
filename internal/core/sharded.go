package core

import (
	"bytes"
	"fmt"
	"sort"
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

// shardTraceCap bounds each shard's trace ring. Rings are per shard, so
// overflow (oldest-event eviction) is a per-shard property, identical for
// every worker count.
const shardTraceCap = 8192

// cell is one shard of a sharded cluster: a group of hosts with their
// NICs, a private kernel, and private replicas of everything the group's
// protocol stacks touch — topology, fabric (pipe mode), metrics registry,
// trace ring. Nothing in a cell is reachable from another cell except
// through the engine's epoch-barrier exchange; traffic between hosts of
// the same cell delivers directly through the cell's pipe, exactly as the
// sequential engine would, with no clone and no barrier.
type cell struct {
	hosts []topology.NodeID
	k     *sim.Kernel
	nw    *topology.Network
	pipe  *fabric.Pipe
	nics  map[topology.NodeID]*nic.NIC
	obs   *metrics.Observer
	ring  *trace.Ring

	deliveries []Delivery
}

func (c *cell) Kernel() *sim.Kernel { return c.k }

// Delivery is one accepted data frame, as observed by the destination
// shard — the sharded cluster's delivery-order oracle record.
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

// Flow is one directed traffic stream of a sharded workload.
type Flow struct {
	Src, Dst topology.NodeID
}

// planGroups resolves a ShardPlan against the host list: explicit groups
// are validated (every host exactly once, no strangers), HostsPerShard
// chunks the hosts in order, and the zero plan is one host per shard.
func planGroups(plan ShardPlan, hosts []topology.NodeID) [][]topology.NodeID {
	if len(plan.Groups) > 0 {
		seen := make(map[topology.NodeID]bool)
		for _, g := range plan.Groups {
			if len(g) == 0 {
				panic("core: shard plan contains an empty group")
			}
			for _, h := range g {
				if seen[h] {
					panic(fmt.Sprintf("core: shard plan lists host %d twice", h))
				}
				seen[h] = true
			}
		}
		for _, h := range hosts {
			if !seen[h] {
				panic(fmt.Sprintf("core: shard plan does not cover host %d", h))
			}
		}
		if len(seen) != len(hosts) {
			panic("core: shard plan names nodes outside the cluster's host list")
		}
		return plan.Groups
	}
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

// newSharded builds the sharded half of New: per-shard kernels under the
// conservative parallel engine. Each shard's kernel is seeded
// parsim.ShardSeed(cfg.Seed, shardIndex); per-NIC droppers use the same
// per-host derivation as the sequential engine, so shard membership never
// changes a host's drop schedule.
func newSharded(cfg Config) *Cluster {
	if cfg.Mapper {
		panic("core: sharded execution does not support on-demand mapping yet")
	}
	cfg.resolve()
	if len(cfg.Hosts) < 2 {
		panic("core: sharded execution needs at least two hosts")
	}
	groups := planGroups(cfg.Plan, cfg.Hosts)
	if len(groups) < 2 {
		panic("core: shard plan must create at least two shards")
	}
	routes := routing.NewTable(cfg.Net, cfg.Hosts)
	s := &Cluster{
		Net:       cfg.Net,
		Hosts:     cfg.Hosts,
		Lookahead: cfg.Fabric.MinCrossLatency(minCrossHops(routes, groups)),
		cfg:       cfg,
		byHost:    make(map[topology.NodeID]int, len(cfg.Hosts)),
	}
	shards := make([]parsim.Shard, len(groups))
	for i, g := range groups {
		k := sim.New(parsim.ShardSeed(cfg.Seed, i))
		obs := metrics.NewObserver(cfg.Metrics)
		nw := cfg.Net.Clone()
		pipe := fabric.NewPipe(k, nw, cfg.Fabric)
		pipe.BindMetrics(obs.Registry())
		ring := trace.NewRing(shardTraceCap)
		pipe.SetTracer(ring)
		c := &cell{
			hosts: g, k: k, nw: nw, pipe: pipe, obs: obs, ring: ring,
			nics: make(map[topology.NodeID]*nic.NIC, len(g)),
		}
		for _, h := range g {
			host := h
			n := cfg.newNIC(k, pipe, h, ring, obs.Registry())
			n.SetOnDeliver(func(f *proto.Frame) {
				c.deliveries = append(c.deliveries, Delivery{
					At: k.Now(), Src: f.Src, Dst: host, Msg: msgID(f), Gen: f.Gen, Seq: f.Seq,
				})
			})
			c.nics[h] = n
			s.byHost[h] = i
		}
		s.cells = append(s.cells, c)
		shards[i] = c
	}
	for _, c := range s.cells {
		for _, a := range c.hosts {
			installRoutes(c.nics[a], routes, cfg.Hosts)
		}
	}
	s.eng = parsim.NewEngine(shards, s.Lookahead, cfg.Workers)
	// Shard boundary: a packet terminating at a host of another cell
	// crosses via the engine, deep-copied from pooled storage — wire
	// transit is the serialization point. Intra-cell packets never get
	// here: their hosts are locally attached to the cell's pipe.
	for i := range s.cells {
		src := s.cells[i]
		port := s.eng.Port(i)
		src.pipe.SetEgress(func(dst topology.NodeID, at sim.Time, pkt *fabric.Packet) {
			j, ok := s.byHost[dst]
			if !ok {
				return // terminal node is not a workload host: silently lost
			}
			cp := clonePacket(pkt)
			dstCell := s.cells[j]
			port.Send(at, j, func() { dstCell.pipe.Arrive(dst, cp) })
		})
	}
	if cfg.Profile {
		s.enableProfiling()
	}
	if cfg.Telemetry != "" {
		s.startTelemetry(cfg.Telemetry)
	}
	return s
}

// msgID extracts the VMMC message ID of a data frame (0 otherwise).
func msgID(f *proto.Frame) uint64 {
	if f.Data != nil {
		return f.Data.MsgID
	}
	return 0
}

// clonePacket deep-copies a packet crossing a shard boundary, drawing
// packet and frame storage from the fabric/proto pools: the destination
// NIC's receive path releases both at end of life, so steady-state
// cross-shard traffic allocates nothing. Callbacks are stripped by
// ClonePooled: OnInjectDone already fired on the source shard, and the
// wire gives no cross-host drop feedback (which is why the
// retransmission protocol exists).
func clonePacket(pkt *fabric.Packet) *fabric.Packet {
	cp := pkt.ClonePooled()
	if f, ok := pkt.Payload.(*proto.Frame); ok {
		cp.Payload = f.ClonePooled()
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

// trunkLinks returns the switch-to-switch links of nw in link-ID order —
// the same deterministic candidate set on every shard's replica.
func trunkLinks(nw *topology.Network) []*topology.Link {
	var out []*topology.Link
	for _, l := range nw.Links {
		if nw.Node(l.A.Node).Kind == topology.Switch &&
			nw.Node(l.B.Node).Kind == topology.Switch {
			out = append(out, l)
		}
	}
	return out
}

// FlapTrunk schedules trunk link index ti (modulo the trunk count, in
// link-ID order) to fail at `at` and heal at `at+dur`. The fault is
// replicated onto every shard's topology view at the same simulated
// instant — fault events are global state changes, not cross-shard
// messages, so they need no lookahead and are identical for any worker
// count. Call before Run. Sharded engine only.
func (s *Cluster) FlapTrunk(ti int, at, dur time.Duration) {
	s.mustSharded("FlapTrunk")
	for _, c := range s.cells {
		trunks := trunkLinks(c.nw)
		if len(trunks) == 0 {
			return
		}
		l := trunks[ti%len(trunks)]
		nw := c.nw
		c.k.After(at, func() { nw.KillLink(l) })
		c.k.After(at+dur, func() { nw.RestoreLink(l) })
	}
}

// LinkFlapEvent is one scheduled fault: topology link Link goes down at At
// and heals Dur later (Dur == 0 leaves it down permanently).
type LinkFlapEvent struct {
	Link int
	At   time.Duration
	Dur  time.Duration
}

// ScheduleLinkFlaps replicates a precomputed link-fault schedule onto
// every shard's topology view — the general form of FlapTrunk that flap
// storms feed with hundreds of seeded events. Fault events are global
// state changes applied identically on every replica at the same
// simulated instant, so they need no lookahead and are byte-identical for
// any worker count. Call before Run. Sharded engine only.
func (s *Cluster) ScheduleLinkFlaps(events []LinkFlapEvent) {
	s.mustSharded("ScheduleLinkFlaps")
	for _, c := range s.cells {
		nw := c.nw
		for _, ev := range events {
			if ev.Link < 0 || ev.Link >= len(nw.Links) {
				panic(fmt.Sprintf("core: ScheduleLinkFlaps link %d out of range (%d links)", ev.Link, len(nw.Links)))
			}
			l := nw.Links[ev.Link]
			c.k.After(ev.At, func() { nw.KillLink(l) })
			if ev.Dur > 0 {
				c.k.After(ev.At+ev.Dur, func() { nw.RestoreLink(l) })
			}
		}
	}
}

// StartFlows spawns the frame-level workload: for each flow, a sender
// process on the source shard pushes msgs data frames of size bytes with
// gap pacing (plus the chaos workload's per-flow stagger), and the
// destination shard's delivery log records every accepted frame. Sharded
// engine only.
func (s *Cluster) StartFlows(flows []Flow, msgs, bytes int, gap time.Duration) {
	s.mustSharded("StartFlows")
	if msgs == 0 {
		msgs = 6
	}
	if bytes == 0 {
		bytes = 512
	}
	if gap == 0 {
		gap = 200 * time.Microsecond
	}
	for i, f := range flows {
		c := s.cells[s.byHost[f.Src]]
		n := c.nics[f.Src]
		dst := f.Dst
		stagger := time.Duration(i%7) * 37 * time.Microsecond
		mcount := msgs
		size := bytes
		pace := gap
		c.k.Spawn(fmt.Sprintf("flow-%d-%d", f.Src, f.Dst), func(p *sim.Proc) {
			p.Sleep(stagger)
			for m := 1; m <= mcount; m++ {
				frame := &proto.Frame{
					Type: proto.FrameData,
					Dst:  dst,
					Data: &proto.DataPayload{
						MsgID:  uint64(m),
						MsgLen: size,
						Data:   make([]byte, size),
						Notify: true,
					},
				}
				n.Send(p, frame)
				p.Sleep(pace)
			}
		})
	}
}

// Workers returns the engine's worker count. Sharded engine only.
func (s *Cluster) Workers() int {
	s.mustSharded("Workers")
	return s.eng.Workers()
}

// Epochs returns how many epoch windows the engine has executed. Sharded
// engine only.
func (s *Cluster) Epochs() uint64 {
	s.mustSharded("Epochs")
	return s.eng.Epochs()
}

// Exchanged returns how many packets crossed shard boundaries. Sharded
// engine only.
func (s *Cluster) Exchanged() uint64 {
	s.mustSharded("Exchanged")
	return s.eng.Exchanged()
}

// TotalExecuted sums executed events across all shard kernels. Sharded
// engine only.
func (s *Cluster) TotalExecuted() uint64 {
	s.mustSharded("TotalExecuted")
	var t uint64
	for _, c := range s.cells {
		t += c.k.Executed()
	}
	return t
}

// Shards returns the shard count of the partition (≥ 2 in sharded mode).
func (s *Cluster) Shards() int {
	s.mustSharded("Shards")
	return len(s.cells)
}

// CellKernel returns shard i's kernel (for RNG-discipline checks).
// Sharded engine only.
func (s *Cluster) CellKernel(i int) *sim.Kernel {
	s.mustSharded("CellKernel")
	return s.cells[i].k
}

// MergedObserver merges every shard's registry (in shard order — though
// any order gives the same result, see metrics.MergeFrom) into one fresh
// observer, materializing derived gauges at the current frontier. Sharded
// engine only; the sequential engine's Observer is already cluster-wide.
func (s *Cluster) MergedObserver() *metrics.Observer {
	s.mustSharded("MergedObserver")
	obs := metrics.NewObserver(s.cfg.Metrics)
	for _, c := range s.cells {
		obs.Registry().MergeFrom(c.obs.Registry())
	}
	return obs
}

// TraceEvents returns the deterministic cluster-wide timeline: per-shard
// rings merged by (time, shard index, emission order). Sharded engine
// only.
func (s *Cluster) TraceEvents() []trace.Event {
	s.mustSharded("TraceEvents")
	streams := make([][]trace.Event, len(s.cells))
	for i, c := range s.cells {
		streams[i] = c.ring.Events()
	}
	return trace.MergeStreams(streams...)
}

// Deliveries returns the merged delivery order: per-shard logs (each in
// local time order) merged by (time, shard index, log position). Sharded
// engine only.
func (s *Cluster) Deliveries() []Delivery {
	s.mustSharded("Deliveries")
	// Reuse the stable-sort merge rule via concatenation in shard order.
	var out []Delivery
	for _, c := range s.cells {
		out = append(out, c.deliveries...)
	}
	stableSortDeliveries(out)
	return out
}

// DeliveredCount returns the total number of accepted data frames.
// Sharded engine only.
func (s *Cluster) DeliveredCount() int {
	s.mustSharded("DeliveredCount")
	n := 0
	for _, c := range s.cells {
		n += len(c.deliveries)
	}
	return n
}

// DumpObservables renders every observable of the run as one byte
// stream — delivery order, merged metrics summary, and the merged
// Perfetto trace export — the payload of the differential determinism
// gate: byte-identical for every worker count. Sharded engine only.
func (s *Cluster) DumpObservables() []byte {
	s.mustSharded("DumpObservables")
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

// stableSortDeliveries orders by time, keeping concatenation (shard,
// position) order for ties.
func stableSortDeliveries(ds []Delivery) {
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].At < ds[j].At })
}
