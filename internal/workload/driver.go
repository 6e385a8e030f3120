package workload

import (
	"fmt"
	"math/rand"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/metrics"
	"sanft/internal/parsim"
	"sanft/internal/report"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/vmmc"
)

// Export names. Servers own the request, replication, and ack buffers;
// client hosts own the reply and stream-chunk buffers.
const (
	bufReq   = "wl-req"
	bufRepl  = "wl-repl"
	bufAck   = "wl-ack"
	bufReply = "wl-rep"
	bufChunk = "wl-str"
)

// ctlBytes sizes the small control messages (get requests, stream
// requests, replication acks, put replies).
const ctlBytes = 32

// opState is one in-flight operation, held in its client's fixed slot
// array. Slots, not maps, so every walk is deterministic.
type opState struct {
	active    bool
	kind      byte
	opID      uint64
	scheduled sim.Time
	deadline  sim.Time
	chunksGot int
	bytes     int
}

// clientState is one logical client. Exactly one generator process owns
// it; the reply handlers and the timeout sweeper touch it only from
// event context, which the sequential kernel serialises.
type clientState struct {
	idx     int             // global client index
	host    topology.NodeID // the host this client runs on
	local   int             // index among this host's clients
	primary int             // server index requests go to

	gate        sim.Gate // generator parks here when the window is full
	rng         *rand.Rand
	nextSeq     uint32
	outstanding int
	ops         [slotsPerClient]opState

	reqImp *vmmc.Import
}

// serverState is one server host's sending side. Servers are stateless:
// every routing decision derives from the opID in the message header, so
// a server needs no pending tables — only its imports.
type serverState struct {
	idx  int
	host topology.NodeID

	replImp *vmmc.Import   // to the backup's replication buffer (KV, ≥2 servers)
	ackImp  *vmmc.Import   // to the primary this server backs
	repImps []*vmmc.Import // reply buffer per client host
	strImps []*vmmc.Import // chunk buffer per client host (stream only)
}

// Driver wires one workload spec onto a chaos engine's cluster: exports,
// imports, server dispatchers, client reply handlers, the timeout
// sweeper, and the generator processes. Build it with Attach before the
// cluster runs; read the outcome with Result after it stops.
type Driver struct {
	E    *chaos.Engine
	Spec Spec

	clientHosts []topology.NodeID
	serverHosts []topology.NodeID
	clients     []*clientState
	servers     []*serverState

	run *chaos.Run
	lat *metrics.Histogram
	slo report.SLO

	maxOut int

	start   sim.Time
	windows []report.SLOWindow

	issued, completed, errors, spurious uint64
	payloadBytes                        uint64
	swept                               bool
	// halted stops admission: a generator that wakes after the grid
	// sets it returns without issuing, and the cluster drains.
	halted bool
}

// Attach builds the workload over the engine's cluster. clientHosts and
// serverHosts must be non-empty subsets of the cluster's hosts; logical
// clients are assigned round-robin over clientHosts, and client i's
// requests go to server i mod len(serverHosts). Call before the kernel
// runs; the generators start issuing as soon as it does.
func Attach(e *chaos.Engine, spec Spec, clientHosts, serverHosts []topology.NodeID) *Driver {
	spec = spec.withDefaults()
	if len(clientHosts) == 0 || len(serverHosts) == 0 {
		panic("workload: Attach needs at least one client host and one server host")
	}
	d := &Driver{
		E:           e,
		Spec:        spec,
		clientHosts: clientHosts,
		serverHosts: serverHosts,
		run:         e.NewExternalRun(),
		slo:         spec.SLO.WithDefaults(),
		start:       e.C.Now(),
	}
	d.lat = e.C.Metrics().Histogram("workload.latency_ns",
		metrics.L("proto", spec.Proto.String(), "mode", spec.Mode.String()))
	d.maxOut = slotsPerClient
	if spec.Mode == ModeClosed {
		d.maxOut = spec.Pipeline
	}

	// The traffic's own pacing must not read as delivery stalls: keep the
	// engine's stall floor above a few think times / arrival gaps so the
	// MTTR histogram records fault-induced delays only.
	pace := time.Duration(float64(spec.Clients) / spec.Rate * 1e9)
	if spec.Mode == ModeClosed {
		pace = spec.Think
	}
	if floor := 4 * pace; e.StallFloor < floor {
		e.StallFloor = floor
	}

	nCH, nSrv := len(clientHosts), len(serverHosts)
	reqSlot, repSlot, chunkSlot := spec.ValBytes, spec.ValBytes, spec.ChunkBytes

	// Exports first — imports resolve against them. Every buffer is sliced
	// into disjoint per-operation slots, so concurrent operations never
	// overwrite each other while in flight.
	reqExp := make([]*vmmc.Export, nSrv)
	replExp := make([]*vmmc.Export, nSrv)
	ackExp := make([]*vmmc.Export, nSrv)
	for s, h := range serverHosts {
		ep := e.C.Endpoint(h)
		reqExp[s] = ep.Export(bufReq, spec.Clients*slotsPerClient*reqSlot)
		if spec.Proto == ProtoKV && nSrv > 1 {
			replExp[s] = ep.Export(bufRepl, spec.Clients*slotsPerClient*reqSlot)
			ackExp[s] = ep.Export(bufAck, spec.Clients*slotsPerClient*ctlBytes)
		}
	}
	localCount := make([]int, nCH)
	for i := 0; i < spec.Clients; i++ {
		localCount[i%nCH]++
	}
	repExp := make([]*vmmc.Export, nCH)
	strExp := make([]*vmmc.Export, nCH)
	for j, h := range clientHosts {
		n := localCount[j]
		if n == 0 {
			n = 1 // keep the export non-empty so imports resolve
		}
		ep := e.C.Endpoint(h)
		repExp[j] = ep.Export(bufReply, n*slotsPerClient*repSlot)
		if spec.Proto == ProtoStream {
			strExp[j] = ep.Export(bufChunk, n*slotsPerClient*spec.Chunks*chunkSlot)
		}
	}

	mustImport := func(from topology.NodeID, to topology.NodeID, name string) *vmmc.Import {
		imp, err := e.C.Endpoint(from).Import(to, name)
		if err != nil {
			panic(fmt.Sprintf("workload: import %s %d->%d: %v", name, from, to, err))
		}
		return imp
	}

	// One request import per (client host, server) — clients sharing a
	// host and primary share it.
	reqImps := make([][]*vmmc.Import, nCH)
	for j := range reqImps {
		reqImps[j] = make([]*vmmc.Import, nSrv)
	}
	for i := 0; i < spec.Clients; i++ {
		j, s := i%nCH, i%nSrv
		if reqImps[j][s] == nil {
			reqImps[j][s] = mustImport(clientHosts[j], serverHosts[s], bufReq)
		}
		cl := &clientState{
			idx:     i,
			host:    clientHosts[j],
			local:   i / nCH,
			primary: s,
			rng:     rand.New(rand.NewSource(parsim.ShardSeed(spec.Seed, i))),
			reqImp:  reqImps[j][s],
		}
		d.clients = append(d.clients, cl)
	}

	for s, h := range serverHosts {
		sv := &serverState{idx: s, host: h}
		if spec.Proto == ProtoKV && nSrv > 1 {
			sv.replImp = mustImport(h, serverHosts[(s+1)%nSrv], bufRepl)
			sv.ackImp = mustImport(h, serverHosts[(s-1+nSrv)%nSrv], bufAck)
		}
		for _, ch := range clientHosts {
			sv.repImps = append(sv.repImps, mustImport(h, ch, bufReply))
			if spec.Proto == ProtoStream {
				sv.strImps = append(sv.strImps, mustImport(h, ch, bufChunk))
			}
		}
		d.servers = append(d.servers, sv)
	}

	for s := range d.servers {
		d.spawnServer(d.servers[s], reqExp[s], replExp[s], ackExp[s])
	}
	for j := range clientHosts {
		d.spawnClientHost(j, repExp[j], strExp[j])
	}
	d.spawnSweeper()
	d.spawnGenerators()
	return d
}

// Run exposes the chaos-run accounting (send/delivery sets) so campaigns
// can hand it to CheckInvariants.
func (d *Driver) Run() *chaos.Run { return d.run }

// Spurious returns the notifications that matched no live operation —
// late replies to slots already timed out and reused. They are expected
// under faults and are deliberately not SLO errors (the operation
// already was one, at its deadline).
func (d *Driver) Spurious() uint64 { return d.spurious }

// send wraps Import.Send with the exactly-once audit: every message the
// workload injects is recorded against its directed host pair, giving
// CheckInvariants the expectation side of the delivery invariant.
func (d *Driver) send(p *sim.Proc, imp *vmmc.Import, src, dst topology.NodeID, off int, data []byte) {
	id := imp.Send(p, off, data, true)
	d.run.NoteSent(chaos.Pair{Src: src, Dst: dst}, id)
}

// Slot-region offsets. g is the global request slot (client-major); the
// reply/chunk side uses the client's host-local index instead, because
// each client host sizes its buffers for its own clients only.
func (d *Driver) reqOff(opID uint64) int {
	return (opClient(opID)*slotsPerClient + opSlot(opID)) * d.Spec.ValBytes
}

func (d *Driver) repOff(opID uint64) int {
	local := opClient(opID) / len(d.clientHosts)
	return (local*slotsPerClient + opSlot(opID)) * d.Spec.ValBytes
}

func (d *Driver) chunkOff(opID uint64, chunk int) int {
	local := opClient(opID) / len(d.clientHosts)
	return ((local*slotsPerClient+opSlot(opID))*d.Spec.Chunks + chunk) * d.Spec.ChunkBytes
}

// clientHostIdx returns the client-host slice index serving a client.
func (d *Driver) clientHostIdx(clientIdx int) int { return clientIdx % len(d.clientHosts) }

// windowIdx maps a simulated instant to its SLO window.
func (d *Driver) windowIdx(t sim.Time) int {
	dt := t.Sub(d.start)
	if dt < 0 {
		return 0
	}
	return int(dt / d.slo.Window)
}

// win returns the window record, growing the series as the run advances.
func (d *Driver) win(idx int) *report.SLOWindow {
	for len(d.windows) <= idx {
		d.windows = append(d.windows, report.SLOWindow{})
	}
	return &d.windows[idx]
}

// completeOp settles one operation: latency from its scheduled arrival
// (open loop) or issue (closed loop), window accounting, and the slot
// freed for reuse. A completion that no longer matches a live operation
// is spurious — its operation already timed out.
func (d *Driver) completeOp(opID uint64, now sim.Time) {
	ci := opClient(opID)
	if ci < 0 || ci >= len(d.clients) {
		d.spurious++
		return
	}
	cl := d.clients[ci]
	op := &cl.ops[opSlot(opID)]
	if !op.active || op.opID != opID {
		d.spurious++
		return
	}
	lat := now.Sub(op.scheduled)
	d.lat.Observe(lat)
	w := d.win(d.windowIdx(now))
	w.Completed++
	if lat > d.slo.Latency {
		w.Slow++
	}
	d.completed++
	d.payloadBytes += uint64(op.bytes)
	op.active = false
	cl.outstanding--
	cl.gate.Signal()
}

// expireOp times one operation out, charging the error to the window of
// its deadline — the instant the user gave up, not the instant the
// sweeper noticed.
func (d *Driver) expireOp(cl *clientState, slot int) {
	op := &cl.ops[slot]
	op.active = false
	cl.outstanding--
	d.errors++
	d.win(d.windowIdx(op.deadline)).Errors++
	cl.gate.Signal()
}

// spawnServer starts the dispatcher processes for one server host. All
// routing derives from the opID header, so the handlers carry no state
// between messages.
func (d *Driver) spawnServer(sv *serverState, reqExp, replExp, ackExp *vmmc.Export) {
	e, spec := d.E, d.Spec
	nSrv := len(d.serverHosts)

	e.C.K.Spawn(fmt.Sprintf("wl-srv-req-%d", sv.host), func(p *sim.Proc) {
		for {
			n := reqExp.WaitNotification(p)
			e.NoteDelivered(d.run, chaos.Pair{Src: n.Src, Dst: sv.host}, n.MsgID)
			opID, kind, _ := decodeMsg(reqExp.Mem[n.Offset : n.Offset+n.Len])
			j := d.clientHostIdx(opClient(opID))
			switch kind {
			case kindReqRPC, kindReqGet:
				d.send(p, sv.repImps[j], sv.host, d.clientHosts[j], d.repOff(opID),
					encodeMsg(opID, kindReply, 0, spec.ValBytes))
			case kindReqPut:
				if sv.replImp == nil {
					// Single server (or non-KV misdirect): no replica to
					// wait for, acknowledge directly.
					d.send(p, sv.repImps[j], sv.host, d.clientHosts[j], d.repOff(opID),
						encodeMsg(opID, kindReply, 0, ctlBytes))
					break
				}
				d.send(p, sv.replImp, sv.host, d.serverHosts[(sv.idx+1)%nSrv], d.reqOff(opID),
					encodeMsg(opID, kindRepl, 0, spec.ValBytes))
			case kindReqStream:
				// Each transfer streams from its own process so one slow
				// client cannot head-of-line block the dispatcher.
				e.C.K.Spawn(fmt.Sprintf("wl-strm-%d-%d", sv.host, opID), func(p2 *sim.Proc) {
					for c := 0; c < spec.Chunks; c++ {
						d.send(p2, sv.strImps[j], sv.host, d.clientHosts[j], d.chunkOff(opID, c),
							encodeMsg(opID, kindChunk, uint64(c), spec.ChunkBytes))
					}
				})
			}
		}
	})

	if replExp != nil {
		e.C.K.Spawn(fmt.Sprintf("wl-srv-repl-%d", sv.host), func(p *sim.Proc) {
			for {
				n := replExp.WaitNotification(p)
				e.NoteDelivered(d.run, chaos.Pair{Src: n.Src, Dst: sv.host}, n.MsgID)
				opID, _, _ := decodeMsg(replExp.Mem[n.Offset : n.Offset+n.Len])
				// This server backs the primary that sent the replica; ack
				// back so it can release the put.
				d.send(p, sv.ackImp, sv.host, d.serverHosts[(sv.idx-1+nSrv)%nSrv],
					(opClient(opID)*slotsPerClient+opSlot(opID))*ctlBytes,
					encodeMsg(opID, kindAck, 0, ctlBytes))
			}
		})
	}
	if ackExp != nil {
		e.C.K.Spawn(fmt.Sprintf("wl-srv-ack-%d", sv.host), func(p *sim.Proc) {
			for {
				n := ackExp.WaitNotification(p)
				e.NoteDelivered(d.run, chaos.Pair{Src: n.Src, Dst: sv.host}, n.MsgID)
				opID, _, _ := decodeMsg(ackExp.Mem[n.Offset : n.Offset+n.Len])
				j := d.clientHostIdx(opClient(opID))
				d.send(p, sv.repImps[j], sv.host, d.clientHosts[j], d.repOff(opID),
					encodeMsg(opID, kindReply, 0, ctlBytes))
			}
		})
	}
}

// spawnClientHost starts the reply (and, for streams, chunk) handlers
// for one client host.
func (d *Driver) spawnClientHost(j int, repExp, strExp *vmmc.Export) {
	e := d.E
	host := d.clientHosts[j]
	e.C.K.Spawn(fmt.Sprintf("wl-cli-rep-%d", host), func(p *sim.Proc) {
		for {
			n := repExp.WaitNotification(p)
			e.NoteDelivered(d.run, chaos.Pair{Src: n.Src, Dst: host}, n.MsgID)
			opID, kind, _ := decodeMsg(repExp.Mem[n.Offset : n.Offset+n.Len])
			if kind == kindReply {
				d.completeOp(opID, p.Now())
			} else {
				d.spurious++
			}
		}
	})
	if strExp == nil {
		return
	}
	e.C.K.Spawn(fmt.Sprintf("wl-cli-str-%d", host), func(p *sim.Proc) {
		for {
			n := strExp.WaitNotification(p)
			e.NoteDelivered(d.run, chaos.Pair{Src: n.Src, Dst: host}, n.MsgID)
			opID, kind, _ := decodeMsg(strExp.Mem[n.Offset : n.Offset+n.Len])
			ci := opClient(opID)
			if kind != kindChunk || ci < 0 || ci >= len(d.clients) {
				d.spurious++
				continue
			}
			cl := d.clients[ci]
			op := &cl.ops[opSlot(opID)]
			if !op.active || op.opID != opID {
				d.spurious++
				continue
			}
			op.chunksGot++
			if op.chunksGot >= d.Spec.Chunks {
				d.completeOp(opID, p.Now())
			}
		}
	})
}

// spawnSweeper starts the timeout sweeper: a quarter-deadline tick over
// the fixed slot arrays, expiring operations past their deadline.
func (d *Driver) spawnSweeper() {
	tick := d.Spec.Timeout / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	d.E.C.K.Spawn("wl-sweeper", func(p *sim.Proc) {
		for {
			p.Sleep(tick)
			now := p.Now()
			for _, cl := range d.clients {
				for s := range cl.ops {
					if op := &cl.ops[s]; op.active && !now.Before(op.deadline) {
						d.expireOp(cl, s)
					}
				}
			}
		}
	})
}

// issueOp admits one operation — waiting on the client's gate while the
// outstanding window is full or the next slot is still occupied — then
// stamps its slot and sends the request. scheduled < 0 means "stamp at
// admission" (closed loop); open loop passes the virtual arrival time,
// so admission queueing counts toward latency (no coordinated omission).
// It reports false, admitting nothing, once the driver is halted.
func (d *Driver) issueOp(p *sim.Proc, cl *clientState, scheduled sim.Time) bool {
	seq := cl.nextSeq + 1
	for cl.outstanding >= d.maxOut || cl.ops[int(seq)%slotsPerClient].active {
		cl.gate.Wait(p)
	}
	if d.halted {
		return false
	}
	cl.nextSeq = seq
	if scheduled < 0 {
		scheduled = p.Now()
	}

	spec := &d.Spec
	var kind byte
	reqLen, opBytes := ctlBytes, spec.ValBytes
	switch spec.Proto {
	case ProtoRPC:
		kind, reqLen = kindReqRPC, spec.ValBytes
	case ProtoKV:
		if cl.rng.Float64() < spec.GetFrac {
			kind = kindReqGet
		} else {
			kind, reqLen = kindReqPut, spec.ValBytes
		}
	case ProtoStream:
		kind = kindReqStream
		opBytes = spec.Chunks * spec.ChunkBytes
	}

	opID := makeOpID(cl.idx, seq)
	cl.ops[opSlot(opID)] = opState{
		active:    true,
		kind:      kind,
		opID:      opID,
		scheduled: scheduled,
		deadline:  scheduled.Add(spec.Timeout),
		bytes:     opBytes,
	}
	cl.outstanding++
	d.issued++
	d.win(d.windowIdx(scheduled)).Issued++
	d.send(p, cl.reqImp, cl.host, d.serverHosts[cl.primary], d.reqOff(opID),
		encodeMsg(opID, kind, 0, reqLen))
	return true
}

// Result assembles the SLO outcome after the cluster has stopped.
// Operations still open are swept as timeouts (charged to the earlier of
// their deadline and the end of the run). Call it once per driver.
func (d *Driver) Result(topo, fault string, elapsed time.Duration) report.SLOResult {
	if !d.swept {
		d.swept = true
		end := d.start.Add(elapsed)
		for _, cl := range d.clients {
			for s := range cl.ops {
				op := &cl.ops[s]
				if !op.active {
					continue
				}
				op.active = false
				cl.outstanding--
				d.errors++
				dl := op.deadline
				if dl.After(end) {
					dl = end
				}
				d.win(d.windowIdx(dl)).Errors++
			}
		}
	}
	return report.SLOResult{
		Scenario:     d.Spec.Scenario(),
		Topo:         topo,
		Fault:        fault,
		SLO:          d.slo,
		Issued:       d.issued,
		Completed:    d.completed,
		Errors:       d.errors,
		PayloadBytes: d.payloadBytes,
		ElapsedNS:    int64(elapsed),
		Latency:      d.lat.Snapshot(),
		Windows:      append([]report.SLOWindow(nil), d.windows...),
	}
}
