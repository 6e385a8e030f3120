package nic

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/fault"
	"sanft/internal/liveness"
	"sanft/internal/metrics"
	"sanft/internal/proto"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// Options configures a NIC.
type Options struct {
	// FT enables the firmware retransmission protocol. Off, the NIC is
	// the unreliable baseline ("No Fault Tolerance" in the figures).
	FT bool
	// Retrans holds the protocol parameters (queue size, timer, ...).
	// The queue size also bounds the send-buffer pool in non-FT mode.
	Retrans retrans.Config
	// Dropper, if non-nil, injects send-side packet drops (the paper's
	// controlled error-rate mechanism). Applies to data frames only.
	Dropper fault.Dropper

	// OnDeliver receives accepted data frames after the receive path
	// completes (data deposited in host memory, notification posted).
	OnDeliver func(*proto.Frame)
	// OnProbe receives host-probe replies and echo probes (the mapping
	// layer's upcall). Host probes themselves are answered in firmware.
	OnProbe func(*proto.Frame)
	// OnPathStale fires (at most once per remap cycle) when a
	// destination exceeds the permanent-failure threshold with no
	// acknowledgment progress.
	OnPathStale func(dst topology.NodeID)
	// OnNoRoute fires when a packet must be transmitted but no route to
	// its destination is installed.
	OnNoRoute func(dst topology.NodeID)
	// OnSessionDown fires (at most once per remap cycle, sharing the
	// stale/no-route guard) when a liveness session to a destination
	// drops — the adaptive counterpart of OnPathStale, typically an
	// order of magnitude earlier.
	OnSessionDown func(dst topology.NodeID)
	// Liveness, if non-nil, runs a BFD-style liveness session per routed
	// destination in this NIC's firmware (internal/liveness): periodic
	// jittered control packets and detect-multiplier timeouts. It also
	// makes the retransmission timer adaptive: the sessions' RTT samples
	// drive a per-destination timeout (retrans.NewAdaptiveSender), and
	// each scan is scheduled at the earliest timeout deadline. Nil (the
	// default) is the paper's fixed-timer firmware, bit for bit.
	Liveness *liveness.Config
	// Tracer, if non-nil, receives a packet-level event per protocol
	// action (see internal/trace). Debugging aid; zero cost when nil.
	Tracer trace.Tracer
	// Metrics is the cluster-wide registry this NIC records into. Nil
	// gives the NIC a private registry, so instrumentation never needs a
	// nil check.
	Metrics *metrics.Registry
	// SkipIdleScans lets the fixed-interval timer stop at a tick that
	// finds nothing unacknowledged and the firmware idle, and catch the
	// scans it skips up by arithmetic (see catchUp): an idle NIC then
	// costs no kernel events, and nothing else changes. Off, every scan
	// runs. Ignored with Liveness, which runs the adaptive timer instead
	// (and whose sessions put work on the firmware every interval anyway).
	SkipIdleScans bool
}

// txItem is one frame queued for transmission. A queued data frame is
// held by its item (the send path's hold) until kickTX passes the hold
// on to the frame's packet, or lets go of it.
type txItem struct {
	frame *proto.Frame
	entry *retrans.Entry // nil for control frames and non-FT mode
	// data, set once the frame has gone to its packet, records that it
	// was a data frame: onInjectDone reads it instead of the frame, which
	// the receiver may have released by then.
	data bool
}

// depositMark is the reliable-reception ack horizon for one source.
type depositMark struct {
	gen   uint32
	seq   uint64
	valid bool
}

// Wire is the NIC's view of the network: the real wormhole fabric
// (*fabric.Fabric) in sequential runs, a shard-local *fabric.Pipe under
// the parallel engine. The NIC touches the wire only through these two
// calls — attach a receive callback, and fire-and-forget injection.
type Wire interface {
	AttachHost(h topology.NodeID, fn func(*fabric.Packet))
	Inject(src topology.NodeID, pkt *fabric.Packet)
}

// NIC is one simulated network interface.
type NIC struct {
	k    *sim.Kernel
	fab  Wire
	node topology.NodeID
	cost CostModel
	ft   bool

	// cpu is the firmware processor (LANai); pci the host-DMA engine.
	cpu *sim.Resource
	pci *sim.Resource

	// routes is the routing table, indexed by destination node ID (nil:
	// no route). A cluster build adopts one routing.Table row here in
	// place, read-only (shared): the hosts of one switch share that row,
	// so while shared the NIC's own entry — the switch's route back to
	// this host — is masked, and the first write copies the row. nroutes
	// counts the destinations Route reports.
	routes  []routing.Route
	shared  bool
	nroutes int

	freeBuffers int
	bufGate     sim.Gate

	// pkts and frames are the free lists of the kernel's cell: every
	// packet sent, explicit ack and go-back-N copy comes from them, and
	// every hold the NIC has on a frame (see queueData) and every packet
	// it received are let go of through them, home to whichever cell's
	// list they came from.
	pkts   fabric.Packets
	frames proto.Frames

	// txQueue holds the frames waiting for the send DMA. The NIC has one
	// packet on the DMA at a time (txBusy); txCur is that packet's item.
	txQueue sim.Queue[txItem]
	txBusy  bool
	txCur   txItem

	// bursts is the cell's list of retransmit-burst records (see
	// retransmitBatch); resend is the scratch a burst's firmware work
	// builds the copies' items in.
	bursts *sim.FreeList[burst]
	resend []txItem

	snd *retrans.Sender
	rcv *retrans.Receiver
	// delayed holds the delayed-ack record of each peer ever armed; the
	// record is the argument of ackDue. A map, not a slice indexed by node
	// ID: that would cost every NIC a pointer per node of the network.
	delayed map[topology.NodeID]*delayedAck
	inRemap map[topology.NodeID]bool
	live    map[topology.NodeID]*liveSession
	// deposited tracks, per source, the newest (gen, seq) whose data has
	// completed its DMA into host memory — the acknowledgment horizon
	// under reliable-reception semantics (deposits are FIFO through the
	// PCI engine, so this is cumulative).
	deposited map[topology.NodeID]depositMark

	dropper fault.Dropper
	opts    Options

	// Retransmission timer. adaptive, decided once in New from
	// Options.Liveness, selects the deadline-driven timer and an adaptive
	// sender. interval is the fixed timer's period; rank, the kernel's
	// schedule count when the timer started, orders this NIC's timer
	// events after those of NICs built before it, as their scheduling
	// sequence would (see tickKey).
	adaptive bool
	interval time.Duration
	rank     uint64
	scanned  sim.Handler // fixed-timer scan done: timerScan
	adapted  sim.Handler // adaptive scan done: adaptiveTimerScan

	// Idle-skipping state. While parked the tick chain is stopped (see
	// catchUp): nextTick is the first skipped tick not yet known to have
	// run, and scanOpen says the scan of the tick before it has not been
	// folded into skipped and skipBusy, the scans caught up so far and
	// their firmware time, which the nic.cpu gauges add to the firmware
	// CPU's own totals.
	parked   bool
	nextTick sim.Time
	scanOpen bool
	skipped  uint64
	skipBusy time.Duration

	// Per-packet callbacks, bound once in New so the data path schedules
	// no closure; the frame or packet is the event argument.
	injectDone  func()      // n.onInjectDone: every packet's OnInjectDone
	dmaSent     sim.Handler // host DMA into SRAM done: firmwareSend
	fwSent      sim.Handler // firmware send processing done: queueData
	received    sim.Handler // receive firmware done: receive
	depositDone sim.Handler // data in host memory: notifyHost
	notified    sim.Handler // notification posted: deliverUp
	ackReady    sim.Handler // ack firmware done: transmitAck
	ackDue      sim.Handler // delayed-ack timer expired: delayedAckDue
	burstDone   sim.Handler // retransmit burst's firmware work done: resendBurst

	// mx is the NIC's host-labeled scope: every firmware event is one
	// add to a constant nic.* name, read back through Counters; m holds
	// the typed handles the adds go through.
	mx *metrics.Scope
	m  nicMetrics
}

// nicMetrics holds the NIC's metric handles, each resolved through the
// NIC's scope the first time its event fires (metrics.Scope.AddTo), so a
// metric that never fires stays out of every export.
type nicMetrics struct {
	// Firmware events with no trace kind, read back through Counters.
	sendBufferStall, acksPiggybacked, controlNoRoute, txNoRoute, pktsSent,
	retransmitBursts, routeUpdates, rxDropped, probesAnswered *metrics.Counter
	// byKind holds the counter of each kind kindCounters names (emit).
	byKind [trace.NumKinds]*metrics.Counter
	// Retransmission timing.
	ackLatencyNS, detectNS, scanWaitNS *metrics.Histogram
	// Liveness sessions.
	liveTx, liveRx        *metrics.Counter
	liveRTT, liveDetectNS *metrics.Histogram
}

// kindCounters names the counter of every counted trace kind: the one
// place a protocol action that is both counted and traced binds the two.
// The NIC's and the liveness sessions' actions count in the NIC's scope,
// and so do the remap manager's, which records through EmitEvent.
var kindCounters = [trace.NumKinds]string{
	trace.EvErrDrop:     "nic.err-injected-drops",
	trace.EvRetransmit:  "nic.pkts-retransmitted",
	trace.EvCrcDrop:     "nic.crc-drops",
	trace.EvAckRx:       "nic.acks-received",
	trace.EvDupDrop:     "nic.rx-dup-drops",
	trace.EvOooDrop:     "nic.rx-ooo-drops",
	trace.EvAccept:      "nic.pkts-accepted",
	trace.EvAckTx:       "nic.acks-sent",
	trace.EvGenReset:    "nic.path-resets",
	trace.EvUnreachable: "nic.pkts-dropped-unreachable",
	trace.EvLiveUp:      "liveness.session_up",
	trace.EvLiveDown:    "liveness.session_down",
	trace.EvRemapStart:  "remap.attempts",
	trace.EvRemapDone:   "remap.successes",
	trace.EvRemapDefer:  "remap.deferred",
	trace.EvQuarantine:  "remap.quarantines",
}

// emit records one protocol action: it adds one to the kind's counter, if
// kindCounters names one, and traces the event if a tracer is wired. An
// unreachable verdict adds seq, the number of packets it dropped, 0
// included.
func (n *NIC) emit(kind trace.Kind, peer topology.NodeID, gen uint32, seq uint64, msg uint64) {
	if name := kindCounters[kind]; name != "" {
		d := uint64(1)
		if kind == trace.EvUnreachable {
			d = seq
		}
		n.mx.AddTo(&n.m.byKind[kind], name, d)
	}
	if n.opts.Tracer == nil {
		return
	}
	n.opts.Tracer.Trace(trace.Event{
		At: n.k.Now(), Node: n.node, Kind: kind, Peer: peer, Gen: gen, Seq: seq, Msg: msg,
	})
}

// msgOf returns the VMMC message ID a data frame belongs to (0 for
// control frames), so trace events can be grouped into message spans.
func msgOf(frame *proto.Frame) uint64 {
	if frame.Data != nil {
		return frame.Data.MsgID
	}
	return 0
}

// New creates a NIC for host `node`, attaches it to the fabric, and (in FT
// mode) starts the retransmission timer.
func New(k *sim.Kernel, fab Wire, node topology.NodeID, opts Options) *NIC {
	opts.Retrans = opts.Retrans.Defaults()
	n := &NIC{
		k:           k,
		fab:         fab,
		node:        node,
		cost:        DefaultCostModel(),
		ft:          opts.FT,
		cpu:         sim.NewResource(k, fmt.Sprintf("nic%d-cpu", node)),
		pci:         sim.NewResource(k, fmt.Sprintf("nic%d-pci", node)),
		freeBuffers: opts.Retrans.QueueSize,
		pkts:        fabric.PacketsOf(k),
		frames:      proto.FramesOf(k),
		bursts:      burstLists.Of(k),
		delayed:     make(map[topology.NodeID]*delayedAck),
		inRemap:     make(map[topology.NodeID]bool),
		live:        make(map[topology.NodeID]*liveSession),
		deposited:   make(map[topology.NodeID]depositMark),
		dropper:     opts.Dropper,
		opts:        opts,
		adaptive:    opts.Liveness != nil,
	}
	if n.dropper == nil {
		n.dropper = fault.None{}
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	n.mx = reg.Scope(metrics.HostLabels(int(node)))
	n.bindHandlers()
	if opts.FT {
		if n.adaptive {
			n.snd = retrans.NewAdaptiveSender(opts.Retrans)
		} else {
			n.snd = retrans.NewSender(opts.Retrans)
		}
		n.rcv = retrans.NewReceiver(opts.Retrans)
		n.scheduleTimer()
	}
	n.registerGauges()
	fab.AttachHost(node, n.onWire)
	return n
}

// bindHandlers binds the per-packet callbacks once.
func (n *NIC) bindHandlers() {
	n.injectDone = n.onInjectDone
	n.dmaSent = sim.HandlerFunc(func(a any) { n.firmwareSend(a.(*proto.Frame)) })
	n.fwSent = sim.HandlerFunc(func(a any) { n.queueData(a.(*proto.Frame)) })
	n.received = sim.HandlerFunc(func(a any) { n.receive(a.(*fabric.Packet)) })
	n.depositDone = sim.HandlerFunc(func(a any) { n.notifyHost(a.(*proto.Frame)) })
	n.notified = sim.HandlerFunc(func(a any) { n.deliverUp(a.(*proto.Frame)) })
	n.ackReady = sim.HandlerFunc(func(a any) { n.transmitAck(a.(*proto.Frame)) })
	n.ackDue = sim.HandlerFunc(func(a any) { n.delayedAckDue(a.(*delayedAck)) })
	n.burstDone = sim.HandlerFunc(func(a any) { n.resendBurst(a.(*burst)) })
	n.scanned = sim.HandlerFunc(func(any) { n.timerScan() })
	n.adapted = sim.HandlerFunc(func(any) { n.adaptiveTimerScan() })
}

// registerGauges publishes the NIC's instantaneous state as derived
// gauges: DMA/firmware occupancy, SRAM pool, and protocol queue depth.
func (n *NIC) registerGauges() {
	n.mx.GaugeFunc("nic.cpu.busy_ns", func() float64 {
		n.catchUp(false)
		return float64(n.cpu.BusyTime() + n.skipBusy)
	})
	n.mx.GaugeFunc("nic.cpu.dispatches", func() float64 {
		n.catchUp(false)
		return float64(n.cpu.Served() + n.skipped)
	})
	n.mx.GaugeFunc("nic.pci.busy_ns", func() float64 { return float64(n.pci.BusyTime()) })
	n.mx.GaugeFunc("nic.pci.dispatches", func() float64 { return float64(n.pci.Served()) })
	n.mx.GaugeFunc("nic.sram.free_buffers", func() float64 { return float64(n.freeBuffers) })
	n.mx.GaugeFunc("nic.sram.in_use", func() float64 {
		return float64(n.opts.Retrans.QueueSize - n.freeBuffers)
	})
	n.mx.GaugeFunc("nic.tx.queue_depth", func() float64 { return float64(n.txQueue.Len()) })
	if n.snd != nil {
		n.mx.GaugeFunc("retrans.queue_depth", func() float64 { return float64(n.snd.TotalUnacked()) })
	}
	if n.opts.Liveness != nil {
		n.mx.GaugeFunc("liveness.sessions_up", func() float64 {
			c := 0
			for _, ls := range n.live {
				if ls.s.State() == liveness.Up {
					c++
				}
			}
			return float64(c)
		})
	}
}

// MetricsScope returns the NIC's host-labeled metrics scope, shared with
// the layers stacked on this NIC (mapper, remap manager).
func (n *NIC) MetricsScope() *metrics.Scope { return n.mx }

// Node returns the host this NIC belongs to.
func (n *NIC) Node() topology.NodeID { return n.node }

// SetOnDeliver replaces the accepted-data upcall (used by the VMMC layer,
// which is constructed after the NIC).
func (n *NIC) SetOnDeliver(fn func(*proto.Frame)) { n.opts.OnDeliver = fn }

// SetOnProbe replaces the probe-reply upcall (used by the mapping layer).
func (n *NIC) SetOnProbe(fn func(*proto.Frame)) { n.opts.OnProbe = fn }

// SetOnPathStale replaces the permanent-failure-suspected upcall.
func (n *NIC) SetOnPathStale(fn func(dst topology.NodeID)) { n.opts.OnPathStale = fn }

// SetOnNoRoute replaces the missing-route upcall.
func (n *NIC) SetOnNoRoute(fn func(dst topology.NodeID)) { n.opts.OnNoRoute = fn }

// SetOnSessionDown replaces the liveness session-down upcall.
func (n *NIC) SetOnSessionDown(fn func(dst topology.NodeID)) { n.opts.OnSessionDown = fn }

// SetTracer wires (or removes, with nil) a packet-event tracer.
func (n *NIC) SetTracer(tr trace.Tracer) { n.opts.Tracer = tr }

// EmitEvent records an action on behalf of a layer above the NIC, as the
// NIC's own actions are recorded (emit): the remap manager's remap
// lifecycle, counted and traced, and the VMMC layer's message lifecycle
// (host send, message completion), traced only, with msg its message ID.
func (n *NIC) EmitEvent(kind trace.Kind, peer topology.NodeID, msg uint64) {
	n.emit(kind, peer, 0, 0, msg)
}

// PendingDelayedAcks returns the number of armed delayed-ack timers — a
// quiesce invariant: after traffic drains, every requested ack must have
// been emitted (piggybacked or explicit) and no timer left armed.
func (n *NIC) PendingDelayedAcks() int {
	c := 0
	for _, d := range n.delayed {
		if d.timer.Pending() {
			c++
		}
	}
	return c
}

// SetDropper replaces the send-side error injector (nil disables
// injection). Used by experiments that need non-default loss models.
func (n *NIC) SetDropper(d fault.Dropper) {
	if d == nil {
		d = fault.None{}
	}
	n.dropper = d
}

// counterNames lists the firmware's nic.* event counters without their
// prefix, in the order Counters().String() renders them.
var counterNames = [...]string{
	"acks-piggybacked", "acks-received", "acks-sent", "control-no-route",
	"crc-drops", "err-injected-drops", "path-resets", "pkts-accepted",
	"pkts-dropped-unreachable", "pkts-retransmitted", "pkts-sent",
	"probes-answered", "retransmit-bursts", "route-updates", "rx-dropped",
	"rx-dup-drops", "rx-ooo-drops", "send-buffer-stall", "tx-no-route",
}

// Counters is a read view of a NIC's event counters, which live in its
// metrics scope as nic.<name>{host=h}.
type Counters struct{ mx *metrics.Scope }

// Counters returns a read view of the NIC's event counters.
func (n *NIC) Counters() Counters { return Counters{n.mx} }

// Get returns the count of event name (e.g. "pkts-sent"), 0 if it never
// fired. It never creates a counter.
func (c Counters) Get(name string) uint64 {
	if ctr, ok := c.mx.Lookup("nic." + name); ok {
		return ctr.Value()
	}
	return 0
}

// String renders every event that fired as sorted name=value pairs.
func (c Counters) String() string {
	var b strings.Builder
	for _, name := range counterNames {
		if ctr, ok := c.mx.Lookup("nic." + name); ok {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%d", name, ctr.Value())
		}
	}
	return b.String()
}

// ProtoSender exposes retransmission-protocol sender state (nil without FT).
func (n *NIC) ProtoSender() *retrans.Sender { return n.snd }

// FreeBuffers returns the number of free send buffers.
func (n *NIC) FreeBuffers() int { return n.freeBuffers }

// Cost returns the NIC's cost model.
func (n *NIC) Cost() CostModel { return n.cost }

// FT reports whether the retransmission protocol is enabled.
func (n *NIC) FT() bool { return n.ft }

// InstallRoutes adopts row as the NIC's whole routing table: row[d] is
// the route to destination d, nil for none. The NIC takes the slice
// itself — no per-destination insert, no copy — and never writes it: the
// row may be shared with other NICs, so the NIC ignores its own entry
// and copies the row at its first SetRoute or RemoveRoute. order lists
// the routed destinations in the order their liveness sessions start, as
// one SetRoute per destination would start them.
func (n *NIC) InstallRoutes(row []routing.Route, order []topology.NodeID) {
	n.catchUp(true)
	n.routes, n.shared = row, true
	n.nroutes = 0
	for d := range row {
		if _, ok := n.Route(topology.NodeID(d)); ok {
			n.nroutes++
		}
	}
	for _, dst := range order {
		if _, ok := n.Route(dst); ok {
			delete(n.inRemap, dst)
			n.ensureSession(dst)
		}
	}
}

// own gives the NIC a private copy of an adopted row, with its own entry
// cleared, before the NIC first writes its routing table.
func (n *NIC) own() {
	if !n.shared {
		return
	}
	n.routes, n.shared = slices.Clone(n.routes), false
	if int(n.node) < len(n.routes) {
		n.routes[n.node] = nil
	}
}

// SetRoute installs (or replaces) the source route used for frames to dst.
// A nil route installs an empty one: present, with no switch hops.
func (n *NIC) SetRoute(dst topology.NodeID, r routing.Route) {
	if r == nil {
		r = routing.Route{}
	}
	n.own()
	if grow := int(dst) + 1 - len(n.routes); grow > 0 {
		n.routes = append(n.routes, make([]routing.Route, grow)...)
	}
	if n.routes[dst] == nil {
		n.catchUp(true)
		n.nroutes++
	}
	n.routes[dst] = r
	delete(n.inRemap, dst)
	n.ensureSession(dst)
}

// Route returns the installed route to dst.
func (n *NIC) Route(dst topology.NodeID) (routing.Route, bool) {
	if uint(dst) >= uint(len(n.routes)) || (n.shared && dst == n.node) {
		return nil, false
	}
	r := n.routes[dst]
	return r, r != nil
}

// RemoveRoute invalidates the route to dst (e.g. after a permanent failure
// is detected).
func (n *NIC) RemoveRoute(dst topology.NodeID) {
	if _, ok := n.Route(dst); ok {
		n.catchUp(true)
		n.own()
		n.routes[dst] = nil
		n.nroutes--
	}
}

// Destinations returns the destinations with installed routes, in
// ascending ID order.
func (n *NIC) Destinations() []topology.NodeID {
	out := make([]topology.NodeID, 0, n.nroutes)
	for d := range n.routes {
		if _, ok := n.Route(topology.NodeID(d)); ok {
			out = append(out, topology.NodeID(d))
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

// Send transmits a data frame to frame.Dst from host-process context. It
// blocks (in virtual time) while no send buffer is free, pays the host-side
// cost (PIO or descriptor post), and returns once the host's part is done —
// the asynchronous VMMC send semantics. Delivery is reported to the remote
// host via its OnDeliver. A pooled frame (proto.Frames.NewData) comes with
// the send path's hold, which the NIC takes over: the caller must not use
// the frame after Send.
func (n *NIC) Send(p *sim.Proc, frame *proto.Frame) {
	if frame.Type != proto.FrameData || frame.Data == nil {
		panic("nic: Send is for data frames; use SendControl")
	}
	frame.Src = n.node
	if frame.Stamps.HostStart == 0 {
		frame.Stamps.HostStart = n.k.Now()
	}
	// Reserve a send buffer; block while the pool is exhausted. This is
	// where a small NIC send queue throttles the sender.
	for n.freeBuffers == 0 {
		n.mx.AddTo(&n.m.sendBufferStall, "nic.send-buffer-stall", 1)
		n.bufGate.Wait(p)
	}
	n.freeBuffers--

	size := len(frame.Data.Data)
	if size <= n.cost.PIOThreshold {
		// Programmed I/O: the host CPU moves the bytes itself.
		p.Sleep(n.cost.HostPIOSend)
		frame.Stamps.HostDone = n.k.Now()
		n.firmwareSend(frame)
		return
	}
	// DMA: the host posts a descriptor and returns; the PCI engine pulls
	// the data into NIC SRAM and then hands it to the firmware.
	p.Sleep(n.cost.HostDescPost)
	frame.Stamps.HostDone = n.k.Now()
	n.pci.SubmitHandler(n.pci.TransferTime(size, n.cost.PCIRate, n.cost.PCISetup), n.dmaSent, frame)
}

// firmwareSend is the firmware's per-packet send processing.
func (n *NIC) firmwareSend(frame *proto.Frame) {
	c := n.cost.SendFirmware
	if n.ft {
		c += n.cost.FTSendOverhead
	}
	n.fw(c, n.fwSent, frame)
}

// queueData finishes the firmware's send processing of a data frame: it
// sequences the frame under FT and queues it for transmission.
//
// A pooled data frame has one hold per holder, and each lets go where its
// reference ends: the send path's, carried by the transmit item, until
// kickTX passes it on to the frame's packet or lets go of it on a
// send-side drop or a missing route; the retransmission entry's, taken
// here, until the sender releases the entry (dropPayload); and each
// packet's, until the receiving NIC's last use of it or the shard-boundary
// hook's copy. A packet the fabric drops never lets go: its frame is left
// to the garbage collector, like the packet.
func (n *NIC) queueData(frame *proto.Frame) {
	var entry *retrans.Entry
	if n.ft {
		entry = n.snd.Prepare(frame.Dst, n.k.Now(), n.freeBuffers, frame, frame.WireSize())
		frame.Hold() // the entry's, until the sender releases it
		frame.Gen = entry.Gen
		frame.Seq = entry.Seq
		frame.AckReq = n.snd.AckRequestFor(entry, n.freeBuffers)
		n.attachPiggyback(frame)
		entry.InFlight++
	}
	n.emit(trace.EvSend, frame.Dst, frame.Gen, frame.Seq, msgOf(frame))
	n.enqueueTX(txItem{frame: frame, entry: entry})
}

// attachPiggyback adds the current cumulative ack for frame.Dst to an
// outgoing data frame, if the receiver side owes that node one (§4.1.2:
// piggy-backed acknowledgments on two-way traffic).
func (n *NIC) attachPiggyback(frame *proto.Frame) {
	if n.snd.Config().NoPiggyback {
		return
	}
	if !n.rcv.PendingAck(frame.Dst) {
		return
	}
	gen, seq, ok := n.ackValue(frame.Dst)
	if !ok {
		return
	}
	frame.HasAck = true
	frame.AckGen = gen
	frame.AckSeq = seq
	n.rcv.AckEmitted(frame.Dst)
	n.cancelDelayedAck(frame.Dst)
	n.mx.AddTo(&n.m.acksPiggybacked, "nic.acks-piggybacked", 1)
}

// SendControl queues a control frame (ack or probe) for transmission. If
// route is nil the installed route for frame.Dst is used. Control frames
// bypass the buffer pool and the retransmission protocol entirely: they
// are fire-and-forget, as acknowledgments must be (§4.1.1: "acknowledgments
// are not critical... they can be dropped").
func (n *NIC) SendControl(frame *proto.Frame, route routing.Route) {
	frame.Src = n.node
	if route == nil {
		r, ok := n.Route(frame.Dst)
		if !ok {
			n.mx.AddTo(&n.m.controlNoRoute, "nic.control-no-route", 1)
			n.frames.Release(frame)
			return
		}
		route = r
	}
	frame.Probe = cloneProbe(frame.Probe)
	frame.ControlRoute = route
	n.enqueueTX(txItem{frame: frame})
}

func cloneProbe(p *proto.ProbePayload) *proto.ProbePayload {
	if p == nil {
		return nil
	}
	c := *p
	c.ReturnRoute = p.ReturnRoute.Clone()
	return &c
}

// enqueueTX appends a packet to the transmit queue and starts the
// transmitter if idle.
func (n *NIC) enqueueTX(it txItem) {
	n.txQueue.Push(it)
	n.kickTX()
}

// kickTX pushes the next queued packet onto the wire. The NIC has one
// network-send DMA: one packet streams at a time, and the next starts when
// the previous packet's tail has left the SRAM (OnInjectDone).
func (n *NIC) kickTX() {
	for !n.txBusy && n.txQueue.Len() > 0 {
		it := n.txQueue.Pop()
		frame := it.frame

		// Send-side error injection (§5.1.3): the packet goes to the
		// retransmission queue as if transmitted, but never touches the
		// wire.
		if frame.Type == proto.FrameData && n.dropper.ShouldDrop() {
			n.emit(trace.EvErrDrop, frame.Dst, frame.Gen, frame.Seq, msgOf(frame))
			if n.ft && it.entry != nil {
				n.snd.OnTransmitted(it.entry, n.k.Now())
				n.copyDone(it.entry)
			} else {
				n.releaseBuffer()
			}
			n.frames.Release(frame) // the send path's hold
			continue
		}

		route := frame.ControlRoute
		if route == nil {
			dst := frame.Dst
			r, ok := n.Route(dst)
			if !ok {
				n.mx.AddTo(&n.m.txNoRoute, "nic.tx-no-route", 1)
				n.frames.Release(frame) // the send path's hold
				if n.ft && it.entry != nil {
					// Keep the entry queued; the timer will retry once a
					// route exists. Mark transmitted so the timer owns it.
					n.snd.OnTransmitted(it.entry, n.k.Now())
					n.copyDone(it.entry)
					n.noRoute(dst)
				} else {
					n.releaseBuffer()
				}
				continue
			}
			route = r
		}

		frame.Stamps.Injected = n.k.Now()
		if n.ft && it.entry != nil {
			n.snd.OnTransmitted(it.entry, n.k.Now())
		}
		// The packet carries the route itself: the wire only reads it,
		// and no installed route is ever written in place (SetRoute
		// replaces the slice, table routes are capacity-capped). It comes
		// from the cell's packet list; the receiving NIC releases it. It
		// takes over the send path's hold on the frame.
		pkt := n.pkts.New(fabric.Packet{
			Route:        route,
			Dst:          frame.Dst,
			Size:         frame.WireSize(),
			Payload:      frame,
			Gen:          frame.Gen,
			Seq:          frame.Seq,
			Msg:          msgOf(frame),
			OnInjectDone: n.injectDone,
		})
		n.txBusy = true
		n.txCur = txItem{entry: it.entry, data: frame.Type == proto.FrameData}
		n.mx.AddTo(&n.m.pktsSent, "nic.pkts-sent", 1)
		if frame.Type == proto.FrameData {
			n.emit(trace.EvInject, frame.Dst, frame.Gen, frame.Seq, msgOf(frame))
		}
		n.fab.Inject(n.node, pkt)
		return
	}
}

// onInjectDone runs when the packet on the send DMA (txCur) has left the
// SRAM: the wire fires it exactly once per packet, and the next packet
// starts only after it. It reads no frame: the packet's frame may already
// be back on its list (released by the receiving NIC, or by the
// shard-boundary hook once it has cloned it).
func (n *NIC) onInjectDone() {
	it := n.txCur
	n.txCur = txItem{}
	n.txBusy = false
	if it.entry != nil {
		n.copyDone(it.entry)
	}
	if !n.ft && it.data {
		n.releaseBuffer()
	}
	n.kickTX()
}

// copyDone notes that a copy of e has left the transmit path, and hands e
// back to the sender if nothing else reaches it any more.
func (n *NIC) copyDone(e *retrans.Entry) {
	e.InFlight--
	n.dropPayload(n.snd.Release(e))
}

// dropPayload lets go of the hold a retransmission entry had on its
// payload frame, once the sender has released the entry (nil: it has
// not).
func (n *NIC) dropPayload(payload any) {
	if f, ok := payload.(*proto.Frame); ok {
		n.frames.Release(f)
	}
}

// releaseBuffer returns one send buffer to the pool and wakes a blocked
// sender.
func (n *NIC) releaseBuffer() {
	n.freeBuffers++
	n.bufGate.Signal()
}

func (n *NIC) releaseBuffers(k int) {
	if k == 0 {
		return
	}
	n.freeBuffers += k
	n.bufGate.Broadcast()
}

func (n *NIC) noRoute(dst topology.NodeID) {
	if n.opts.OnNoRoute != nil && !n.inRemap[dst] {
		n.inRemap[dst] = true
		n.emit(trace.EvNoRoute, dst, 0, 0, 0)
		n.opts.OnNoRoute(dst)
	}
}

// ---------------------------------------------------------------------------
// Retransmission timer
// ---------------------------------------------------------------------------

// scheduleTimer starts the retransmission timer. Its first tick comes one
// interval plus a per-NIC phase after boot.
func (n *NIC) scheduleTimer() {
	n.interval = n.opts.Retrans.Interval
	n.rank = n.k.Stats().Scheduled
	// Desynchronize timer phases across NICs (real NICs boot at
	// arbitrary instants). Without this, symmetric workloads can
	// retransmit in lockstep after a synchronized watchdog reset and
	// re-deadlock forever — a livelock only possible because the
	// simulation starts every NIC at t=0.
	phase := time.Duration(int64(n.node)%16) * (n.interval / 16)
	first := n.k.Now().Add(n.interval + phase)
	if n.adaptive {
		n.k.AtHandler(first, (*timerTick)(n), nil)
		return
	}
	n.tickAt(first, n.k.Now())
}

// tickKey and scanKey are the sim.Kernel.AtAsOf keys of the fixed timer's
// events: a tick is scheduled as of the tick before it (the first as of
// boot), and the completion of a scan that starts at its tick as of that
// tick. The keys order the events of one instant scheduled as of one
// instant as scheduling sequence would: a NIC built earlier first, and a
// NIC's scan completion before its tick. So each event runs at the same
// place among all others whether the chain runs every scan or skips idle
// ones, and wherever it was scheduled from.
func (n *NIC) tickKey() uint64 { return n.rank<<1 | 1 }
func (n *NIC) scanKey() uint64 { return n.rank << 1 }

// timerTick is the NIC seen as the Handler of its timer ticks, so the
// engine profiler counts them as sim.KindTick.
type timerTick NIC

func (t *timerTick) Fire(any) {
	n := (*NIC)(t)
	if n.adaptive {
		n.adaptiveTimerFire()
		return
	}
	n.tick()
}

// tickAt schedules the fixed timer's next tick at t, as of asOf.
func (n *NIC) tickAt(t, asOf sim.Time) {
	n.k.AtAsOf(t, asOf, n.tickKey(), (*timerTick)(n), nil)
}

// tick is one period of the fixed timer: a scan, and the next tick. With
// SkipIdleScans a tick that finds nothing unacknowledged and the firmware
// idle stops the chain instead. Its scan, and every later one until
// catchUp restarts the chain, would change nothing but the firmware's
// busy time and dispatch count, which catchUp adds up.
func (n *NIC) tick() {
	now := n.k.Now()
	if n.opts.SkipIdleScans && !n.cpu.Busy() && n.snd.TotalUnacked() == 0 && n.scanCost() < n.interval {
		n.parked, n.nextTick, n.scanOpen = true, now.Add(n.interval), true
		return
	}
	n.timerFire()
	n.tickAt(now.Add(n.interval), now)
}

// timerFire is the single periodic retransmission timer: one firmware scan
// over the per-destination queues. A scan that starts at its tick
// completes as of the tick (sim.Resource.StartAsOf); one queued behind
// other firmware work starts, and completes, as ordinary work.
func (n *NIC) timerFire() {
	c := n.scanCost()
	if n.cpu.Busy() {
		n.fw(c, n.scanned, nil)
		return
	}
	n.cpu.StartAsOf(n.k.Now(), c, n.scanKey(), n.scanned, nil)
}

// fw submits work to the firmware CPU. Every submission goes through it,
// so a stopped tick chain catches up first: the scans it skipped may hold
// the CPU. (The tick's own scan in timerFire starts directly only on an
// idle CPU, from a running chain.)
func (n *NIC) fw(service time.Duration, h sim.Handler, arg any) {
	n.catchUp(true)
	n.cpu.SubmitHandler(service, h, arg)
}

// catchUp folds the scans a stopped tick chain has skipped so far into
// skipped and skipBusy. The skipped ticks fall on the phase grid, at
// nextTick, nextTick+interval, ...; scanOpen says the scan of the tick
// before nextTick is not folded yet. The routes cannot have changed since
// the chain stopped (a route change restarts it), so neither has
// scanCost, and as it is below the interval, every skipped scan but the
// last has ended before the next tick.
//
// Whether a skipped tick or scan completion has happened yet is exact,
// ties included: sim.Kernel.Ran places it where the eager chain's event
// would run among the events of its instant. So work that arrives as a
// skipped scan ends finds the CPU busy or free exactly as on the eager
// chain.
//
// With resume the chain restarts, as the next submission or route change
// requires: a scan still in service goes back into service for the rest
// of its time (work submitted now queues behind it, as on the eager
// chain), and the next tick is scheduled. Without it (a gauge read)
// nothing is scheduled, and the chain stays stopped.
func (n *NIC) catchUp(resume bool) {
	if !n.parked {
		return
	}
	c, I := n.scanCost(), n.interval
	now := n.k.Now()
	if now >= n.nextTick {
		// Ticks in [nextTick, now) have run; one at now may have.
		m := int64(now.Sub(n.nextTick)/I) + 1
		if at := n.nextTick.Add(time.Duration(m-1) * I); at == now && !n.k.Ran(at, at.Add(-I), n.tickKey()) {
			m--
		}
		if m > 0 {
			// Each tick ends the previous scan, and opens its own.
			folded := m - 1
			if n.scanOpen {
				folded++
			}
			n.skipped += uint64(folded)
			n.skipBusy += time.Duration(folded) * c
			n.nextTick = n.nextTick.Add(time.Duration(m) * I)
			n.scanOpen = true
		}
	}
	began := n.nextTick.Add(-I)
	if n.scanOpen && n.k.Ran(began.Add(c), began, n.scanKey()) {
		n.skipped++
		n.skipBusy += c
		n.scanOpen = false
	}
	if !resume {
		return
	}
	n.parked = false
	if n.scanOpen {
		n.cpu.StartAsOf(began, c, n.scanKey(), n.scanned, nil)
	}
	n.tickAt(n.nextTick, began)
}

// scanCost is the firmware time of one timer scan: a fixed part plus one
// step per routed destination.
func (n *NIC) scanCost() time.Duration {
	return n.cost.TimerScanCost + time.Duration(n.nroutes)*n.cost.TimerPerDestCost
}

// timerScan is the scan body, run in firmware (cpu) context.
func (n *NIC) timerScan() {
	now := n.k.Now()
	batches := n.snd.Tick(now)
	for _, b := range batches {
		n.retransmitBatch(b)
	}
	if n.opts.OnPathStale != nil {
		for _, dst := range n.snd.StalePaths(now) {
			if !n.inRemap[dst] {
				n.inRemap[dst] = true
				n.emit(trace.EvPathStale, dst, 0, 0, 0)
				n.opts.OnPathStale(dst)
			}
		}
	}
}

// adaptiveTimerFire is the deadline-driven variant of the scan, run by a
// NIC with liveness sessions: after each scan the next one is scheduled
// at the earliest per-destination timeout deadline (clamped between
// retrans.RTOMin/2 and the fixed Interval) instead of a free-running
// period, so a timeout is detected within half an RTO floor of expiring
// rather than up to a full period late.
func (n *NIC) adaptiveTimerFire() {
	n.fw(n.scanCost(), n.adapted, nil)
}

// adaptiveTimerScan runs the scan in firmware context, then schedules the
// next fire at the earliest timeout deadline.
func (n *NIC) adaptiveTimerScan() {
	n.timerScan()
	delay := n.interval
	if dl, ok := n.snd.NextDeadline(); ok {
		delay = min(delay, dl.Sub(n.k.Now()))
	}
	delay = max(delay, retrans.RTOMin/2)
	n.k.AtHandler(n.k.Now().Add(delay), (*timerTick)(n), nil)
}

// noteAcked records the acknowledgment latency of freed entries: how long
// each sat in the retransmission queue since its last (re)transmission.
func (n *NIC) noteAcked(freed []*retrans.Entry) {
	if len(freed) == 0 {
		return
	}
	now := n.k.Now()
	for _, e := range freed {
		n.mx.ObserveTo(&n.m.ackLatencyNS, "retrans.ack_latency_ns", now.Sub(e.LastSent))
	}
}

// burst is a go-back-N batch waiting for its firmware work: the entries
// it resends, each pinned until the work has run. The record is the
// argument of the NIC's bound burstDone handler, drawn from its cell's
// list, and goes back once the work has run.
type burst struct {
	entries []*retrans.Entry
}

// burstLists holds each cell's list of burst records.
var burstLists sim.Lists[burst]

// retransmitBatch re-enqueues a go-back-N batch at the front of the TX
// queue, in order, once its firmware work is paid (resendBurst). The
// final frame requests an immediate ack so the sender resynchronizes in
// one round trip.
func (n *NIC) retransmitBatch(b retrans.Batch) {
	n.mx.AddTo(&n.m.retransmitBursts, "nic.retransmit-bursts", 1)
	// detect_ns is the honest timeout-detection latency: the timeout in
	// force plus the scan-quantization wait; scan_wait_ns isolates that
	// second component (up to a full period for the fixed free-running
	// timer, at most retrans.RTOMin/2 + scan cost for the adaptive one).
	n.mx.ObserveTo(&n.m.detectNS, "retrans.detect_ns", b.Oldest)
	n.mx.ObserveTo(&n.m.scanWaitNS, "retrans.scan_wait_ns", b.Waited)
	cost := time.Duration(len(b.Entries)) * n.cost.RetransPktCost
	// The work resends every entry of the batch, also those an ack frees
	// before it runs, so the batch pins them until then.
	bu := n.bursts.Get()
	bu.entries = append(bu.entries, b.Entries...)
	for _, e := range bu.entries {
		n.snd.Pin(e)
	}
	n.fw(cost, n.burstDone, bu)
}

// resendBurst is a burst's firmware work: it queues a copy of each
// entry's payload, each a block of its own (proto.Frames.Resend) held by
// its transmit item, ahead of every queued frame.
func (n *NIC) resendBurst(bu *burst) {
	items := n.resend
	for i, e := range bu.entries {
		orig, ok := e.Payload.(*proto.Frame)
		if !ok {
			continue
		}
		f := n.frames.Resend(orig)
		f.Retransmitted = true
		f.HasAck = false
		f.Gen = e.Gen
		f.Seq = e.Seq
		if i == len(bu.entries)-1 {
			f.AckReq = proto.AckImmediate
		}
		n.attachPiggybackIfAny(f)
		n.emit(trace.EvRetransmit, f.Dst, f.Gen, f.Seq, msgOf(f))
		e.InFlight++
		items = append(items, txItem{frame: f, entry: e})
	}
	for _, e := range bu.entries {
		n.dropPayload(n.snd.Unpin(e))
	}
	clear(bu.entries)
	bu.entries = bu.entries[:0]
	n.bursts.Put(bu)
	// Prepend preserving batch order.
	n.txQueue.PushFront(items...)
	clear(items)
	n.resend = items[:0]
	n.kickTX()
}

func (n *NIC) attachPiggybackIfAny(frame *proto.Frame) {
	if n.rcv != nil && n.rcv.PendingAck(frame.Dst) {
		n.attachPiggyback(frame)
	}
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

// onWire is the fabric delivery callback: a packet's tail has arrived in
// NIC SRAM.
func (n *NIC) onWire(pkt *fabric.Packet) {
	frame, ok := pkt.Payload.(*proto.Frame)
	if !ok {
		panic("nic: non-frame payload on the wire")
	}
	frame.Stamps.Delivered = pkt.Delivered
	var cost time.Duration
	switch frame.Type {
	case proto.FrameAck:
		cost = n.cost.AckRecvCost
	case proto.FrameData:
		cost = n.cost.RecvFirmware
		if n.ft {
			cost += n.cost.FTRecvOverhead
		}
	default:
		cost = n.cost.ProbeCost
	}
	n.fw(cost, n.received, pkt)
}

// receive is the receive firmware's processing of pkt, run once its cost
// is paid.
func (n *NIC) receive(pkt *fabric.Packet) {
	n.processFrame(pkt.Payload.(*proto.Frame), pkt)
	// The packet shell is dead once receive firmware returns; recycle
	// its pooled storage. No-op for ordinary packets.
	n.pkts.Release(pkt)
}

func (n *NIC) processFrame(frame *proto.Frame, pkt *fabric.Packet) {
	// The CRC check covers every frame type; corrupted packets are
	// dropped after the check cost is paid.
	if pkt.Corrupted {
		n.emit(trace.EvCrcDrop, frame.Src, frame.Gen, frame.Seq, msgOf(frame))
		n.frames.Release(frame)
		return
	}
	// Frames the receive path fully consumes are released at their last
	// use: acks and liveness here, data frames at the end of their deposit
	// path (processData owns them from here). Probe-family and
	// route-update frames are never pooled — interior references outlive
	// the receive path — so they need no release. A data frame is the
	// sender's own block on the one-cell plan: releasing it lets go of
	// its packet's hold, and the sender's entry keeps its own.
	switch frame.Type {
	case proto.FrameAck:
		n.processAck(frame.Src, frame.AckGen, frame.AckSeq)
		n.frames.Release(frame)
	case proto.FrameData:
		n.processData(frame)
	case proto.FrameHostProbe:
		n.answerHostProbe(frame)
	case proto.FrameHostProbeReply, proto.FrameEchoProbe:
		if n.opts.OnProbe != nil {
			n.opts.OnProbe(frame)
		}
	case proto.FrameRouteUpdate:
		if frame.Probe != nil {
			n.SetRoute(frame.Src, frame.Probe.ReturnRoute)
			n.mx.AddTo(&n.m.routeUpdates, "nic.route-updates", 1)
		}
	case proto.FrameLiveness:
		n.onLiveness(frame)
		n.frames.Release(frame)
	}
}

func (n *NIC) processAck(from topology.NodeID, gen uint32, seq uint64) {
	if !n.ft {
		return
	}
	n.emit(trace.EvAckRx, from, gen, seq, 0)
	n.ackFreed(n.snd.OnAck(from, gen, seq, n.k.Now()))
}

// ackFreed records the acknowledgment latency of the entries an ack
// freed, hands them back to the sender, and frees their send buffers.
func (n *NIC) ackFreed(freed []*retrans.Entry) {
	n.noteAcked(freed)
	k := len(freed)
	n.snd.Recycle(freed, n.dropPayload)
	n.releaseBuffers(k)
}

func (n *NIC) processData(frame *proto.Frame) {
	// Piggybacked ack first: it frees buffers regardless of the data
	// verdict.
	if n.ft && frame.HasAck {
		n.ackFreed(n.snd.OnAck(frame.Src, frame.AckGen, frame.AckSeq, n.k.Now()))
	}
	rr := n.ft && n.snd.Config().ReliableReception
	var verdict retrans.Verdict
	if n.ft {
		verdict = n.rcv.OnData(frame.Src, frame.Gen, frame.Seq, frame.AckReq)
		if !rr {
			if verdict.AckNow {
				n.sendAck(frame.Src)
			} else if verdict.ArmDelayed {
				n.armDelayedAck(frame.Src)
			}
		} else if !verdict.Accept && verdict.AckNow {
			// Duplicate under reliable reception: re-ack up to the
			// deposit horizon.
			n.sendAck(frame.Src)
		}
		if !verdict.Accept {
			n.mx.AddTo(&n.m.rxDropped, "nic.rx-dropped", 1)
			if n.rcv.Expected(frame.Src) > frame.Seq {
				n.emit(trace.EvDupDrop, frame.Src, frame.Gen, frame.Seq, msgOf(frame))
			} else {
				n.emit(trace.EvOooDrop, frame.Src, frame.Gen, frame.Seq, msgOf(frame))
			}
			n.frames.Release(frame)
			return
		}
	}
	frame.Stamps.NICRecvDone = n.k.Now()
	n.emit(trace.EvAccept, frame.Src, frame.Gen, frame.Seq, msgOf(frame))
	// Deposit into host memory through the PCI engine, then notify.
	size := len(frame.Data.Data)
	if !rr {
		n.pci.SubmitHandler(n.pci.TransferTime(size, n.cost.PCIRate, n.cost.PCISetup), n.depositDone, frame)
		return
	}
	n.pci.SubmitBytes(size, n.cost.PCIRate, n.cost.PCISetup, func() {
		// The data is now in host memory: advance the ack horizon and
		// perform the deferred acknowledgment actions.
		n.deposited[frame.Src] = depositMark{gen: frame.Gen, seq: frame.Seq, valid: true}
		if verdict.AckNow {
			n.sendAck(frame.Src)
		} else if verdict.ArmDelayed {
			n.armDelayedAck(frame.Src)
		}
		n.notifyHost(frame)
	})
}

// notifyHost posts the host notification for a deposited data frame.
func (n *NIC) notifyHost(frame *proto.Frame) {
	n.k.AtHandler(n.k.Now().Add(n.cost.HostNotify), n.notified, frame)
}

// deliverUp hands a deposited data frame to the host.
func (n *NIC) deliverUp(frame *proto.Frame) {
	frame.Stamps.HostRecvDone = n.k.Now()
	if n.opts.OnDeliver != nil {
		n.opts.OnDeliver(frame)
	}
	// Host consumption is the end of a received data frame's life: its
	// packet's hold ends here.
	n.frames.Release(frame)
}

// ackValue returns the cumulative ack to advertise to `to`: the NIC-accept
// horizon under reliable delivery, or the host-deposit horizon under
// reliable reception.
func (n *NIC) ackValue(to topology.NodeID) (uint32, uint64, bool) {
	if n.snd.Config().ReliableReception {
		m := n.deposited[to]
		return m.gen, m.seq, m.valid
	}
	return n.rcv.CumAck(to)
}

// sendAck emits an explicit cumulative acknowledgment to `to`.
func (n *NIC) sendAck(to topology.NodeID) {
	gen, seq, ok := n.ackValue(to)
	if !ok {
		return
	}
	n.cancelDelayedAck(to)
	n.rcv.AckEmitted(to)
	n.fw(n.cost.AckSendCost, n.ackReady, n.frames.NewAck(to, gen, seq))
}

// transmitAck queues an explicit ack once its firmware cost is paid.
func (n *NIC) transmitAck(ack *proto.Frame) {
	n.emit(trace.EvAckTx, ack.Dst, ack.AckGen, ack.AckSeq, 0)
	n.SendControl(ack, nil)
}

// delayedAck is one peer's piggyback-or-explicit delayed ack timer. The
// record itself is the argument of the NIC's bound ackDue handler, so
// arming allocates nothing (a boxed NodeID above 255 would).
type delayedAck struct {
	peer  topology.NodeID
	timer sim.Timer
}

// armDelayedAck starts the piggyback-or-explicit delayed ack timer for src
// if it is not already running.
func (n *NIC) armDelayedAck(src topology.NodeID) {
	d := n.delayed[src]
	if d == nil {
		d = &delayedAck{peer: src}
		n.delayed[src] = d
	}
	if d.timer.Pending() {
		return
	}
	d.timer = n.k.AtHandler(n.k.Now().Add(retrans.DelayedAck), n.ackDue, d)
}

// delayedAckDue sends the ack a delayed-ack timer held, if it is still
// owed.
func (n *NIC) delayedAckDue(d *delayedAck) {
	if n.rcv.PendingAck(d.peer) {
		n.sendAck(d.peer)
	}
}

func (n *NIC) cancelDelayedAck(src topology.NodeID) {
	if d := n.delayed[src]; d != nil {
		d.timer.Cancel()
	}
}

// answerHostProbe replies to a mapping probe with this host's identity,
// along the probe's return route. Pure firmware behavior: the host never
// sees probes.
func (n *NIC) answerHostProbe(frame *proto.Frame) {
	if frame.Probe == nil {
		return
	}
	n.mx.AddTo(&n.m.probesAnswered, "nic.probes-answered", 1)
	reply := &proto.Frame{
		Type: proto.FrameHostProbeReply,
		Dst:  frame.Probe.Mapper,
		Probe: &proto.ProbePayload{
			ProbeID:   frame.Probe.ProbeID,
			Mapper:    frame.Probe.Mapper,
			ReplierID: n.node,
		},
	}
	n.SendControl(reply, frame.Probe.ReturnRoute)
}

// ---------------------------------------------------------------------------
// Remapping support (used by the mapping layer)
// ---------------------------------------------------------------------------

// ResetPath installs a new route for dst, starts a new sequence generation,
// and re-enqueues every pending packet under the new numbering (§4.2).
func (n *NIC) ResetPath(dst topology.NodeID, route routing.Route) {
	if !n.ft {
		n.SetRoute(dst, route)
		return
	}
	n.SetRoute(dst, route)
	entries := n.snd.ResetGeneration(dst, n.k.Now())
	for _, e := range entries {
		orig, ok := e.Payload.(*proto.Frame)
		if !ok {
			continue
		}
		// The entry's payload becomes a copy of its own, held by the
		// entry and by its transmit item; the entry lets go of the frame
		// the copy replaces, which copies still queued or on the wire
		// hold for themselves.
		f := n.frames.Resend(orig)
		f.Gen = e.Gen
		f.Seq = e.Seq
		f.HasAck = false
		f.Retransmitted = true
		f.Hold()
		e.Payload = f
		n.frames.Release(orig)
		e.InFlight++
		n.enqueueTX(txItem{frame: f, entry: e})
	}
	n.emit(trace.EvGenReset, dst, n.snd.Generation(dst), 0, 0)
}

// MarkUnreachable drops all pending packets for dst and frees their
// buffers; further traffic to dst is discarded until a route is installed.
func (n *NIC) MarkUnreachable(dst topology.NodeID) {
	delete(n.inRemap, dst)
	n.RemoveRoute(dst)
	if n.ft {
		entries := n.snd.MarkUnreachable(dst)
		dropped := len(entries)
		n.snd.Recycle(entries, n.dropPayload)
		n.releaseBuffers(dropped)
		n.emit(trace.EvUnreachable, dst, 0, uint64(dropped), 0)
	}
}
