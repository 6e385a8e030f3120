package nic

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/fault"
	"sanft/internal/metrics"
	"sanft/internal/proto"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// rig is a small test cluster: n hosts on one switch, all routes installed.
type rig struct {
	k     *sim.Kernel
	fab   *fabric.Fabric
	hosts []topology.NodeID
	nics  map[topology.NodeID]*NIC
	rx    map[topology.NodeID][]*proto.Frame
}

func newRig(t *testing.T, nHosts int, mkOpts func(i int) Options) *rig {
	t.Helper()
	k := sim.New(1)
	nw, hosts := topology.Star(nHosts)
	fab := fabric.New(k, nw, fabric.DefaultConfig())
	r := &rig{k: k, fab: fab, hosts: hosts,
		nics: make(map[topology.NodeID]*NIC),
		rx:   make(map[topology.NodeID][]*proto.Frame)}
	for i, h := range hosts {
		h := h
		opts := mkOpts(i)
		userDeliver := opts.OnDeliver
		opts.OnDeliver = func(f *proto.Frame) {
			// A copy: a delivered frame is let go of once OnDeliver
			// returns, and a pooled one goes back to its list then.
			r.rx[h] = append(r.rx[h], f.Clone())
			if userDeliver != nil {
				userDeliver(f)
			}
		}
		r.nics[h] = New(k, fab, h, opts)
	}
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			rt, err := routing.Shortest(nw, a, b)
			if err != nil {
				t.Fatal(err)
			}
			r.nics[a].SetRoute(b, rt)
		}
	}
	return r
}

func dataFrame(dst topology.NodeID, msgID uint64, payload []byte) *proto.Frame {
	return &proto.Frame{
		Type: proto.FrameData,
		Dst:  dst,
		Data: &proto.DataPayload{MsgID: msgID, MsgLen: len(payload), Data: payload, Notify: true},
	}
}

func ftOpts(q int, interval time.Duration) Options {
	return Options{FT: true, Retrans: retrans.Config{QueueSize: q, Interval: interval}}
}

// runFor runs the kernel for d then stops it (killing parked procs).
func (r *rig) runFor(d time.Duration) {
	r.k.RunFor(d)
	r.k.Stop()
}

func TestBasicDeliveryNoFT(t *testing.T) {
	r := newRig(t, 2, func(int) Options { return Options{FT: false, Retrans: retrans.Config{QueueSize: 32}} })
	src, dst := r.hosts[0], r.hosts[1]
	payload := []byte{1, 2, 3, 4}
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.nics[src].Send(p, dataFrame(dst, 1, payload))
	})
	r.runFor(time.Millisecond)
	if len(r.rx[dst]) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(r.rx[dst]))
	}
	got := r.rx[dst][0].Data.Data
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatal("payload corrupted in transit")
		}
	}
}

func TestLatencyCalibrationNoFT(t *testing.T) {
	// The paper's baseline: ~8µs one-way for a 4-byte message.
	r := newRig(t, 2, func(int) Options { return Options{Retrans: retrans.Config{QueueSize: 32}} })
	src, dst := r.hosts[0], r.hosts[1]
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.nics[src].Send(p, dataFrame(dst, 1, make([]byte, 4)))
	})
	r.runFor(time.Millisecond)
	f := r.rx[dst][0]
	lat := f.Stamps.HostRecvDone.Sub(f.Stamps.HostStart)
	if lat < 7500*time.Nanosecond || lat > 8500*time.Nanosecond {
		t.Fatalf("4-byte no-FT latency = %v, want ≈8µs", lat)
	}
}

func TestLatencyCalibrationFT(t *testing.T) {
	// With the retransmission protocol: ~10µs (+~1µs each side).
	r := newRig(t, 2, func(int) Options { return ftOpts(32, time.Millisecond) })
	src, dst := r.hosts[0], r.hosts[1]
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.nics[src].Send(p, dataFrame(dst, 1, make([]byte, 4)))
	})
	r.runFor(time.Millisecond * 5)
	f := r.rx[dst][0]
	lat := f.Stamps.HostRecvDone.Sub(f.Stamps.HostStart)
	if lat < 9500*time.Nanosecond || lat > 10500*time.Nanosecond {
		t.Fatalf("4-byte FT latency = %v, want ≈10µs", lat)
	}
}

func TestInOrderDeliveryFT(t *testing.T) {
	r := newRig(t, 2, func(int) Options { return ftOpts(8, time.Millisecond) })
	src, dst := r.hosts[0], r.hosts[1]
	const n = 50
	r.k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.nics[src].Send(p, dataFrame(dst, uint64(i), make([]byte, 512)))
		}
	})
	r.runFor(100 * time.Millisecond)
	if len(r.rx[dst]) != n {
		t.Fatalf("delivered %d, want %d", len(r.rx[dst]), n)
	}
	for i, f := range r.rx[dst] {
		if f.Data.MsgID != uint64(i) {
			t.Fatalf("out of order at %d: msg %d", i, f.Data.MsgID)
		}
	}
}

func TestRecoveryFromInjectedDrops(t *testing.T) {
	// Every 10th packet is swallowed before the wire; the protocol must
	// still deliver everything exactly once, in order.
	drop := fault.NewRate(0.1)
	r := newRig(t, 2, func(i int) Options {
		o := ftOpts(32, time.Millisecond)
		if i == 0 {
			o.Dropper = drop
		}
		return o
	})
	src, dst := r.hosts[0], r.hosts[1]
	const n = 100
	r.k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.nics[src].Send(p, dataFrame(dst, uint64(i), make([]byte, 1024)))
		}
	})
	r.runFor(time.Second)
	if len(r.rx[dst]) != n {
		t.Fatalf("delivered %d, want %d (drops=%d)", len(r.rx[dst]), n, drop.Dropped())
	}
	for i, f := range r.rx[dst] {
		if f.Data.MsgID != uint64(i) {
			t.Fatalf("out of order at %d: msg %d", i, f.Data.MsgID)
		}
	}
	if drop.Dropped() == 0 {
		t.Fatal("dropper never fired; test proves nothing")
	}
	nic := r.nics[src]
	if nic.Counters().Get("pkts-retransmitted") == 0 {
		t.Fatal("no retransmissions recorded despite drops")
	}
	if nic.ProtoSender().TotalUnacked() != 0 {
		t.Fatalf("%d buffers leaked", nic.ProtoSender().TotalUnacked())
	}
}

func TestRecoveryFromCorruption(t *testing.T) {
	// Corrupt ~5% of packets in transit; CRC drops them at the receiver
	// and retransmission recovers.
	corr := fault.NewCorruptor(0.05, 99)
	r := newRig(t, 2, func(int) Options { return ftOpts(16, time.Millisecond) })
	r.fab.SetTransitHook(func(p *fabric.Packet) bool {
		if corr.Corrupt() {
			p.Corrupted = true
		}
		return true
	})
	src, dst := r.hosts[0], r.hosts[1]
	const n = 100
	r.k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.nics[src].Send(p, dataFrame(dst, uint64(i), make([]byte, 256)))
		}
	})
	r.runFor(time.Second)
	if len(r.rx[dst]) != n {
		t.Fatalf("delivered %d, want %d", len(r.rx[dst]), n)
	}
	if corr.Corrupted() == 0 {
		t.Fatal("corruptor never fired")
	}
	if r.nics[dst].Counters().Get("crc-drops") == 0 {
		t.Fatal("no CRC drops recorded")
	}
}

func TestBufferBlockingThrottlesSender(t *testing.T) {
	// With q=2 and acks disabled by severing the reverse route, the
	// sender must stall after 2 packets.
	r := newRig(t, 2, func(int) Options { return ftOpts(2, 100*time.Millisecond) })
	src, dst := r.hosts[0], r.hosts[1]
	r.nics[dst].RemoveRoute(src) // acks cannot return
	sent := 0
	r.k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			r.nics[src].Send(p, dataFrame(dst, uint64(i), make([]byte, 64)))
			sent++
		}
	})
	r.k.RunFor(50 * time.Millisecond)
	if sent > 3 {
		t.Fatalf("sender pushed %d packets with q=2 and no acks", sent)
	}
	if r.nics[src].Counters().Get("send-buffer-stall") == 0 {
		t.Fatal("no buffer stalls recorded")
	}
	r.k.Stop()
}

func TestPiggybackAcksOnTwoWayTraffic(t *testing.T) {
	r := newRig(t, 2, func(int) Options { return ftOpts(32, time.Millisecond) })
	a, b := r.hosts[0], r.hosts[1]
	const rounds = 30
	// Ping-pong: piggybacking should carry almost all acks.
	done := 0
	var mbA, mbB sim.Mailbox[*proto.Frame]
	r.nics[a].opts.OnDeliver = func(f *proto.Frame) { mbA.Put(f) }
	r.nics[b].opts.OnDeliver = func(f *proto.Frame) { mbB.Put(f) }
	r.k.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			r.nics[a].Send(p, dataFrame(b, uint64(i), make([]byte, 64)))
			mbA.Get(p)
			done++
		}
	})
	r.k.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			mbB.Get(p)
			r.nics[b].Send(p, dataFrame(a, uint64(i), make([]byte, 64)))
		}
	})
	r.runFor(100 * time.Millisecond)
	if done != rounds {
		t.Fatalf("completed %d rounds, want %d", done, rounds)
	}
	piggy := r.nics[a].Counters().Get("acks-piggybacked") + r.nics[b].Counters().Get("acks-piggybacked")
	explicit := r.nics[a].Counters().Get("acks-sent") + r.nics[b].Counters().Get("acks-sent")
	if piggy == 0 {
		t.Fatal("no piggybacked acks on two-way traffic")
	}
	if explicit > piggy {
		t.Fatalf("explicit acks (%d) dominate piggybacked (%d) on two-way traffic", explicit, piggy)
	}
}

func TestDelayedAckOnOneWayTraffic(t *testing.T) {
	// One-way traffic: acks must still flow (delayed/explicit), freeing
	// buffers without reverse data.
	r := newRig(t, 2, func(int) Options { return ftOpts(8, time.Millisecond) })
	src, dst := r.hosts[0], r.hosts[1]
	const n = 40
	r.k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.nics[src].Send(p, dataFrame(dst, uint64(i), make([]byte, 1024)))
		}
	})
	r.runFor(time.Second)
	if len(r.rx[dst]) != n {
		t.Fatalf("delivered %d, want %d", len(r.rx[dst]), n)
	}
	if r.nics[dst].Counters().Get("acks-sent") == 0 {
		t.Fatal("no explicit acks on one-way traffic")
	}
	if r.nics[src].ProtoSender().TotalUnacked() != 0 {
		t.Fatal("buffers not all freed")
	}
}

func TestGenerationResetEndToEnd(t *testing.T) {
	r := newRig(t, 2, func(int) Options { return ftOpts(8, time.Millisecond) })
	src, dst := r.hosts[0], r.hosts[1]
	route, _ := r.nics[src].Route(dst)
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.nics[src].Send(p, dataFrame(dst, 0, make([]byte, 64)))
		p.Sleep(5 * time.Millisecond)
		// Remap: reset the path (same route; the reset itself is under test).
		r.nics[src].ResetPath(dst, route)
		r.nics[src].Send(p, dataFrame(dst, 1, make([]byte, 64)))
	})
	r.runFor(50 * time.Millisecond)
	if len(r.rx[dst]) != 2 {
		t.Fatalf("delivered %d, want 2", len(r.rx[dst]))
	}
	if g := r.rx[dst][1].Gen; g != 1 {
		t.Fatalf("second message generation = %d, want 1", g)
	}
	if r.nics[src].ProtoSender().TotalUnacked() != 0 {
		t.Fatal("buffers leaked across generation reset")
	}
}

func TestMarkUnreachableFreesBuffers(t *testing.T) {
	r := newRig(t, 2, func(int) Options { return ftOpts(4, time.Millisecond) })
	src, dst := r.hosts[0], r.hosts[1]
	// Kill the destination link so nothing is ever delivered or acked.
	r.fab.KillLink(r.fab.Network().Node(dst).Ports[0])
	r.k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			r.nics[src].Send(p, dataFrame(dst, uint64(i), make([]byte, 64)))
		}
	})
	r.k.RunFor(10 * time.Millisecond)
	if r.nics[src].FreeBuffers() != 0 {
		t.Fatalf("free buffers = %d before unreachable, want 0", r.nics[src].FreeBuffers())
	}
	r.nics[src].MarkUnreachable(dst)
	r.k.RunFor(time.Millisecond)
	if r.nics[src].FreeBuffers() != 4 {
		t.Fatalf("free buffers = %d after unreachable, want 4", r.nics[src].FreeBuffers())
	}
	r.k.Stop()
}

func TestPathStaleDetectionFires(t *testing.T) {
	var stale []topology.NodeID
	r := newRig(t, 2, func(i int) Options {
		o := ftOpts(4, time.Millisecond)
		o.Retrans.PermFailThreshold = 20 * time.Millisecond
		o.OnPathStale = func(d topology.NodeID) { stale = append(stale, d) }
		return o
	})
	src, dst := r.hosts[0], r.hosts[1]
	r.fab.KillLink(r.fab.Network().Node(dst).Ports[0])
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.nics[src].Send(p, dataFrame(dst, 0, make([]byte, 64)))
	})
	r.k.RunFor(100 * time.Millisecond)
	if len(stale) != 1 || stale[0] != dst {
		t.Fatalf("stale notifications = %v, want [%d] exactly once", stale, dst)
	}
	r.k.Stop()
}

func TestHostProbeAnsweredInFirmware(t *testing.T) {
	var replies []*proto.Frame
	r := newRig(t, 2, func(i int) Options {
		o := ftOpts(8, time.Millisecond)
		o.OnProbe = func(f *proto.Frame) { replies = append(replies, f) }
		return o
	})
	src, dst := r.hosts[0], r.hosts[1]
	nw := r.fab.Network()
	fwd, _ := routing.Shortest(nw, src, dst)
	ret, _ := routing.Shortest(nw, dst, src)
	probe := &proto.Frame{
		Type:  proto.FrameHostProbe,
		Probe: &proto.ProbePayload{ProbeID: 42, Mapper: src, ReturnRoute: ret},
	}
	r.nics[src].SendControl(probe, fwd)
	r.runFor(time.Millisecond)
	if len(replies) != 1 {
		t.Fatalf("got %d probe replies, want 1", len(replies))
	}
	rep := replies[0]
	if rep.Probe.ProbeID != 42 || rep.Probe.ReplierID != dst {
		t.Fatalf("reply = %+v", rep.Probe)
	}
}

func TestNoRouteTriggersCallback(t *testing.T) {
	var noRoute []topology.NodeID
	r := newRig(t, 2, func(i int) Options {
		o := ftOpts(8, time.Millisecond)
		o.OnNoRoute = func(d topology.NodeID) { noRoute = append(noRoute, d) }
		return o
	})
	src, dst := r.hosts[0], r.hosts[1]
	r.nics[src].RemoveRoute(dst)
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.nics[src].Send(p, dataFrame(dst, 0, make([]byte, 64)))
	})
	r.k.RunFor(5 * time.Millisecond)
	if len(noRoute) != 1 || noRoute[0] != dst {
		t.Fatalf("no-route callbacks = %v, want [%d] once", noRoute, dst)
	}
	// Installing a route lets the queued packet through via the timer.
	rt, _ := routing.Shortest(r.fab.Network(), src, dst)
	r.nics[src].SetRoute(dst, rt)
	r.k.RunFor(20 * time.Millisecond)
	if len(r.rx[dst]) != 1 {
		t.Fatalf("delivered %d after route install, want 1", len(r.rx[dst]))
	}
	r.k.Stop()
}

func TestMultiDestinationIndependence(t *testing.T) {
	// Failure of one destination must not block traffic to another
	// (per-node retransmission queues, shared buffer pool).
	r := newRig(t, 3, func(i int) Options { return ftOpts(16, time.Millisecond) })
	src, d1, d2 := r.hosts[0], r.hosts[1], r.hosts[2]
	r.fab.KillLink(r.fab.Network().Node(d1).Ports[0]) // d1 dead
	r.k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			r.nics[src].Send(p, dataFrame(d1, uint64(i), make([]byte, 64)))
		}
		for i := 0; i < 20; i++ {
			r.nics[src].Send(p, dataFrame(d2, uint64(i), make([]byte, 64)))
		}
	})
	r.runFor(200 * time.Millisecond)
	if len(r.rx[d2]) != 20 {
		t.Fatalf("live destination got %d of 20 messages", len(r.rx[d2]))
	}
	if len(r.rx[d1]) != 0 {
		t.Fatal("dead destination received data")
	}
}

func TestSegmentPayloadIntegrity(t *testing.T) {
	// Multi-kilobyte payloads survive drops intact (the simulator moves
	// real bytes).
	drop := fault.NewRate(1.0 / 7)
	r := newRig(t, 2, func(i int) Options {
		o := ftOpts(16, time.Millisecond)
		if i == 0 {
			o.Dropper = drop
		}
		return o
	})
	src, dst := r.hosts[0], r.hosts[1]
	const n = 30
	r.k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			buf := make([]byte, 2048)
			for j := range buf {
				buf[j] = byte(i + j)
			}
			r.nics[src].Send(p, dataFrame(dst, uint64(i), buf))
		}
	})
	r.runFor(time.Second)
	if len(r.rx[dst]) != n {
		t.Fatalf("delivered %d, want %d", len(r.rx[dst]), n)
	}
	for i, f := range r.rx[dst] {
		for j, b := range f.Data.Data {
			if b != byte(i+j) {
				t.Fatalf("msg %d corrupted at byte %d", i, j)
			}
		}
	}
}

func TestReliableReceptionRecoversFromDrops(t *testing.T) {
	// Reliable-reception semantics (ack only after host deposit) must be
	// just as loss-tolerant as reliable delivery.
	drop := fault.NewRate(0.1)
	r := newRig(t, 2, func(i int) Options {
		o := Options{FT: true, Retrans: retrans.Config{
			QueueSize: 16, Interval: time.Millisecond, ReliableReception: true,
		}}
		if i == 0 {
			o.Dropper = drop
		}
		return o
	})
	src, dst := r.hosts[0], r.hosts[1]
	const n = 60
	r.k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.nics[src].Send(p, dataFrame(dst, uint64(i), make([]byte, 1024)))
		}
	})
	r.runFor(time.Second)
	if len(r.rx[dst]) != n {
		t.Fatalf("delivered %d of %d (drops=%d)", len(r.rx[dst]), n, drop.Dropped())
	}
	for i, f := range r.rx[dst] {
		if f.Data.MsgID != uint64(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
	if drop.Dropped() == 0 {
		t.Fatal("no drops; test proves nothing")
	}
	if r.nics[src].ProtoSender().TotalUnacked() != 0 {
		t.Fatal("buffers leaked under reliable reception")
	}
}

func TestReliableReceptionAckAfterDeposit(t *testing.T) {
	// Under reliable reception the sender's buffer must not be freed
	// before the receiver's host DMA completed. Compare buffer-free time
	// against reliable delivery for a single large packet.
	freeTime := func(rr bool) sim.Time {
		r := newRig(t, 2, func(int) Options {
			return Options{FT: true, Retrans: retrans.Config{
				QueueSize: 4, Interval: 50 * time.Millisecond, ReliableReception: rr,
			}}
		})
		src, dst := r.hosts[0], r.hosts[1]
		var freed sim.Time
		r.k.Spawn("sender", func(p *sim.Proc) {
			// Fill the queue so the ack request becomes immediate, then
			// watch when buffers return.
			for i := 0; i < 4; i++ {
				r.nics[src].Send(p, dataFrame(dst, uint64(i), make([]byte, 4096)))
			}
			for r.nics[src].FreeBuffers() < 4 {
				p.Sleep(time.Microsecond)
			}
			freed = p.Now()
		})
		r.runFor(200 * time.Millisecond)
		if freed == 0 {
			t.Fatal("buffers never freed")
		}
		return freed
	}
	rd := freeTime(false)
	rr := freeTime(true)
	if rr <= rd {
		t.Fatalf("reliable reception freed buffers at %v, not later than reliable delivery's %v", rr, rd)
	}
}

func TestTracerRecordsProtocolStory(t *testing.T) {
	// Wire a ring tracer on both NICs; inject a drop; the trace must
	// contain the full story: send, inject, err-drop, retransmit,
	// ooo-drop (receiver discarding successors), accepts and acks.
	drop := fault.NewRate(0.2)
	ring := trace.NewRing(4096)
	r := newRig(t, 2, func(i int) Options {
		o := ftOpts(16, time.Millisecond)
		o.Tracer = ring
		if i == 0 {
			o.Dropper = drop
		}
		return o
	})
	src, dst := r.hosts[0], r.hosts[1]
	const n = 30
	r.k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.nics[src].Send(p, dataFrame(dst, uint64(i), make([]byte, 512)))
		}
	})
	r.runFor(time.Second)
	if len(r.rx[dst]) != n {
		t.Fatalf("delivered %d/%d", len(r.rx[dst]), n)
	}
	counts := ring.Counts()
	for _, k := range []trace.Kind{trace.EvSend, trace.EvInject, trace.EvErrDrop,
		trace.EvRetransmit, trace.EvAccept, trace.EvAckTx, trace.EvAckRx} {
		if counts[k] == 0 {
			t.Fatalf("trace missing %v events; counts=%v", k, counts)
		}
	}
	if counts[trace.EvAccept] != n {
		t.Fatalf("accepts = %d, want %d", counts[trace.EvAccept], n)
	}
	if !strings.Contains(ring.Dump(), "retransmit") {
		t.Fatal("dump missing retransmit line")
	}
}

// TestCountersViewReadsRegistry: every NIC event is recorded once, as
// nic.<name>{host=h} in the metrics registry, and Counters() is a read
// view over it that never creates a counter.
func TestCountersViewReadsRegistry(t *testing.T) {
	obs := metrics.NewObserver(metrics.Config{})
	r := newRig(t, 2, func(i int) Options {
		o := ftOpts(8, time.Millisecond)
		o.Metrics = obs.Registry()
		o.Dropper = fault.NewRateSeeded(0.1, int64(i)+3)
		return o
	})
	a, b := r.hosts[0], r.hosts[1]
	for _, pair := range [][2]topology.NodeID{{a, b}, {b, a}} {
		src, dst := pair[0], pair[1]
		r.k.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				r.nics[src].Send(p, dataFrame(dst, uint64(i), make([]byte, 512)))
			}
		})
	}
	r.runFor(time.Second)
	if r.nics[a].Counters().Get("pkts-retransmitted") == 0 {
		t.Fatal("no retransmissions in a lossy run; test proves nothing")
	}

	prom := func() string {
		var buf strings.Builder
		if err := obs.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	before := prom()
	for _, name := range []string{"probes-answered", "no-such-event"} {
		if got := r.nics[a].Counters().Get(name); got != 0 {
			t.Fatalf("Get(%q) = %d for an event that never fired", name, got)
		}
	}
	if after := prom(); after != before {
		t.Fatal("reading a counter that never fired changed the Prometheus dump")
	}

	obs.SampleNow(r.k.Now())
	recorded := obs.Samples()[0].Counters
	for _, h := range r.hosts {
		view := r.nics[h].Counters()
		shown := make(map[string]bool)
		for _, kv := range strings.Fields(view.String()) {
			name, val, _ := strings.Cut(kv, "=")
			shown[name] = true
			want := recorded[fmt.Sprintf("nic.%s{host=%d}", name, h)]
			if got := view.Get(name); got != want || val != fmt.Sprint(want) {
				t.Errorf("host %d %s: Get %d, String %s, registry %d", h, name, got, val, want)
			}
		}
		suffix := fmt.Sprintf("{host=%d}", h)
		for id := range recorded {
			name, ok := strings.CutPrefix(id, "nic.")
			if name, ok2 := strings.CutSuffix(name, suffix); ok && ok2 && !shown[name] {
				t.Errorf("host %d records %s but Counters().String() omits it", h, id)
			}
		}
	}
}
