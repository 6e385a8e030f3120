package fabric

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"sanft/internal/metrics"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// testNet builds a star network with an attached fabric and per-host
// delivery recording.
func testNet(t *testing.T, nHosts int) (*sim.Kernel, *Fabric, []topology.NodeID, map[topology.NodeID][]*Packet) {
	t.Helper()
	k := sim.New(1)
	nw, hosts := topology.Star(nHosts)
	f := New(k, nw, DefaultConfig())
	got := make(map[topology.NodeID][]*Packet)
	for _, h := range hosts {
		h := h
		f.AttachHost(h, func(p *Packet) { got[h] = append(got[h], p) })
	}
	return k, f, hosts, got
}

// total sums the registry counter fabric.<name> over all its label sets.
func total(w interface{ Metrics() *metrics.Registry }, name string) uint64 {
	return w.Metrics().CounterTotal("fabric." + name)
}

// dropped returns the registry's drop count for one reason.
func dropped(w interface{ Metrics() *metrics.Registry }, r DropReason) uint64 {
	return w.Metrics().Counter("fabric.pkts_dropped", metrics.L("reason", r.String())).Value()
}

// conserved reports whether every injected packet was delivered or dropped.
func conserved(w interface{ Metrics() *metrics.Registry }) bool {
	return total(w, "pkts_injected") == total(w, "pkts_delivered")+total(w, "pkts_dropped")
}

func mkPacket(nw *topology.Network, src, dst topology.NodeID, size int) *Packet {
	r, err := routing.Shortest(nw, src, dst)
	if err != nil {
		panic(err)
	}
	return &Packet{Route: r, Dst: dst, Size: size}
}

func TestDeliveryAndLatency(t *testing.T) {
	k, f, hosts, got := testNet(t, 2)
	pkt := mkPacket(f.Network(), hosts[0], hosts[1], 64)
	f.Inject(hosts[0], pkt)
	k.Run()
	if len(got[hosts[1]]) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got[hosts[1]]))
	}
	// Expected: 2 props + 1 route delay + 1 serialization.
	cfg := f.Config()
	want := 2*cfg.PropDelay + cfg.RouteDelay + f.SerializationTime(64)
	lat := pkt.Delivered.Sub(pkt.Injected)
	if lat != want {
		t.Fatalf("latency = %v, want %v", lat, want)
	}
}

func TestCutThroughPipelining(t *testing.T) {
	// Across more switches, latency grows by (prop+route) per extra hop,
	// but still pays only one serialization.
	k := sim.New(1)
	nw, hosts := topology.Chain(3, 1, 1)
	f := New(k, nw, DefaultConfig())
	var delivered *Packet
	f.AttachHost(hosts[2][0], func(p *Packet) { delivered = p })
	pkt := mkPacket(nw, hosts[0][0], hosts[2][0], 4096)
	f.Inject(hosts[0][0], pkt)
	k.Run()
	if delivered == nil {
		t.Fatal("not delivered")
	}
	cfg := f.Config()
	// 3 switches: 4 links → 4 props, 3 route delays, 1 serialization.
	want := 4*cfg.PropDelay + 3*cfg.RouteDelay + f.SerializationTime(4096)
	if lat := pkt.Delivered.Sub(pkt.Injected); lat != want {
		t.Fatalf("latency = %v, want %v (cut-through should pay one serialization)", lat, want)
	}
}

func TestLinkSerializationBandwidth(t *testing.T) {
	// Back-to-back packets through one shared link are spaced by one
	// serialization each: bandwidth = link rate.
	k, f, hosts, got := testNet(t, 2)
	const n = 50
	const size = 4096
	var injected int
	var inject func()
	inject = func() {
		if injected == n {
			return
		}
		injected++
		pkt := mkPacket(f.Network(), hosts[0], hosts[1], size)
		pkt.OnInjectDone = inject
		f.Inject(hosts[0], pkt)
	}
	inject()
	k.Run()
	pkts := got[hosts[1]]
	if len(pkts) != n {
		t.Fatalf("delivered %d, want %d", len(pkts), n)
	}
	span := pkts[n-1].Delivered.Sub(pkts[0].Delivered)
	perPkt := span / (n - 1)
	ser := f.SerializationTime(size)
	if perPkt < ser || perPkt > ser+2*time.Microsecond {
		t.Fatalf("inter-delivery gap %v, want ≈ serialization %v", perPkt, ser)
	}
}

func TestContentionSharesLink(t *testing.T) {
	// Two senders to one receiver: the receiver's link serializes, so
	// deliveries alternate and total time doubles vs one sender.
	k, f, hosts, got := testNet(t, 3)
	const n = 20
	for _, src := range []topology.NodeID{hosts[0], hosts[1]} {
		src := src
		var injected int
		var inject func()
		inject = func() {
			if injected == n {
				return
			}
			injected++
			pkt := mkPacket(f.Network(), src, hosts[2], 4096)
			pkt.OnInjectDone = inject
			f.Inject(src, pkt)
		}
		inject()
	}
	k.Run()
	if len(got[hosts[2]]) != 2*n {
		t.Fatalf("delivered %d, want %d", len(got[hosts[2]]), 2*n)
	}
	if d := total(f, "pkts_dropped"); d != 0 {
		t.Fatalf("%d drops under simple contention", d)
	}
}

func TestBadRouteDropsSilently(t *testing.T) {
	k, f, hosts, got := testNet(t, 2)
	var reason DropReason
	for _, route := range []routing.Route{{}, {7}, {1, 0}} {
		pkt := &Packet{Route: route, Size: 64, OnDropped: func(r DropReason) { reason = r }}
		f.Inject(hosts[0], pkt)
		k.Run()
		if reason != DropBadRoute {
			t.Fatalf("route %v: reason = %v, want bad-route", route, reason)
		}
	}
	if len(got[hosts[1]]) != 0 {
		t.Fatal("bad-route packet was delivered")
	}
}

func TestDeadLinkDrop(t *testing.T) {
	k, f, hosts, _ := testNet(t, 2)
	pkt := mkPacket(f.Network(), hosts[0], hosts[1], 64)
	// Kill the receiver's link; the already-computed route crosses it.
	f.Network().KillLink(f.Network().Node(hosts[1]).Ports[0])
	var reason DropReason
	pkt.OnDropped = func(r DropReason) { reason = r }
	f.Inject(hosts[0], pkt)
	k.Run()
	if reason != DropDeadLink {
		t.Fatalf("reason = %v, want dead-link", reason)
	}
}

func TestDeadSourceLinkDrop(t *testing.T) {
	k, f, hosts, _ := testNet(t, 2)
	f.Network().KillLink(f.Network().Node(hosts[0]).Ports[0])
	var reason DropReason
	pkt := &Packet{Route: routing.Route{1}, Size: 64, OnDropped: func(r DropReason) { reason = r }}
	f.Inject(hosts[0], pkt)
	k.Run()
	if reason != DropNoRoute {
		t.Fatalf("reason = %v, want no-route", reason)
	}
}

func TestDeadSourceLinkFiresInjectDone(t *testing.T) {
	// Regression: the no-route drop path creates no worm, so nothing else
	// can ever signal injection completion. Without the explicit callback
	// the source NIC's transmit DMA waits forever and the host falls
	// permanently silent — unable to send data, acks, or probe replies.
	k, f, hosts, _ := testNet(t, 2)
	f.Network().KillLink(f.Network().Node(hosts[0]).Ports[0])
	done := false
	pkt := &Packet{Route: routing.Route{1}, Size: 64, OnInjectDone: func() { done = true }}
	f.Inject(hosts[0], pkt)
	k.Run()
	if !done {
		t.Fatal("OnInjectDone did not fire for a no-route drop")
	}
}

func TestDeadSwitchDrop(t *testing.T) {
	k := sim.New(1)
	nw, hosts := topology.Chain(2, 1, 1)
	f := New(k, nw, DefaultConfig())
	pkt := mkPacket(nw, hosts[0][0], hosts[1][0], 64)
	nw.KillSwitch(nw.Switches()[1])
	var reason DropReason
	pkt.OnDropped = func(r DropReason) { reason = r }
	f.Inject(hosts[0][0], pkt)
	k.Run()
	// The first link still works; the packet dies at the dead link/switch.
	if reason != DropDeadLink && reason != DropDeadSwitch {
		t.Fatalf("reason = %v, want dead-link or dead-switch", reason)
	}
}

func TestTransitHookCorruptionAndDrop(t *testing.T) {
	k, f, hosts, got := testNet(t, 2)
	i := 0
	f.SetTransitHook(func(p *Packet) bool {
		i++
		switch i {
		case 1:
			p.Corrupted = true
			return true
		case 2:
			return false // drop
		}
		return true
	})
	for j := 0; j < 3; j++ {
		f.Inject(hosts[0], mkPacket(f.Network(), hosts[0], hosts[1], 64))
	}
	k.Run()
	pkts := got[hosts[1]]
	if len(pkts) != 2 {
		t.Fatalf("delivered %d, want 2 (one dropped)", len(pkts))
	}
	if !pkts[0].Corrupted || pkts[1].Corrupted {
		t.Fatal("corruption flags wrong")
	}
	if d := dropped(f, DropInjected); d != 1 {
		t.Fatalf("injected drops = %d, want 1", d)
	}
}

func TestOnInjectDoneFires(t *testing.T) {
	k, f, hosts, _ := testNet(t, 2)
	var doneAt sim.Time
	pkt := mkPacket(f.Network(), hosts[0], hosts[1], 4096)
	pkt.OnInjectDone = func() { doneAt = k.Now() }
	f.Inject(hosts[0], pkt)
	k.Run()
	if doneAt == 0 {
		t.Fatal("OnInjectDone never fired")
	}
	// The tail leaves the NIC one serialization after injection (roughly).
	ser := f.SerializationTime(4096)
	if doneAt.Duration() < ser {
		t.Fatalf("inject done at %v, before serialization %v completed", doneAt, ser)
	}
}

func TestDeadlockAndWatchdogRecovery(t *testing.T) {
	// Construct a genuine wormhole deadlock on a 4-switch ring: four
	// simultaneous 3-hop clockwise packets create a cyclic channel wait.
	// The watchdog must reset at least one worm so the others drain.
	k := sim.New(1)
	nw, hosts := topology.Ring(4, 1)
	cfg := DefaultConfig()
	cfg.Watchdog = 1 * time.Millisecond // short for the test
	f := New(k, nw, cfg)
	delivered := 0
	for i := 0; i < 4; i++ {
		f.AttachHost(hosts[i][0], func(*Packet) { delivered++ })
	}
	// Big packets so each worm spans multiple links while streaming.
	// Route: 3 clockwise switch-to-switch hops, then exit to the host.
	for i := 0; i < 4; i++ {
		src := hosts[i][0]
		dst := hosts[(i+3)%4][0]
		route := clockwise(t, nw, src, dst, 3)
		f.Inject(src, &Packet{Route: route, Dst: dst, Size: 1 << 20})
	}
	k.Run()
	if total(f, "watchdog_resets") == 0 {
		t.Fatal("expected watchdog resets in a deadlocked ring")
	}
	if d := total(f, "pkts_dropped"); delivered+int(d) != 4 {
		t.Fatalf("accounting: delivered %d + dropped %d != 4", delivered, d)
	}
	if delivered == 0 {
		t.Fatal("watchdog reset should let at least one packet drain")
	}
	if f.InFlight() != 0 {
		t.Fatalf("%d worms still in flight after run", f.InFlight())
	}
}

// clockwise builds a route crossing `hops` ring switches in ascending-ID
// order, then exiting to dst.
func clockwise(t *testing.T, nw *topology.Network, src, dst topology.NodeID, hops int) routing.Route {
	t.Helper()
	r, ok := buildClockwise(nw, src, dst, hops)
	if !ok {
		t.Fatalf("cannot build clockwise route %d -> %d", src, dst)
	}
	return r
}

// buildClockwise is clockwise without the testing dependency.
func buildClockwise(nw *topology.Network, src, dst topology.NodeID, hops int) (routing.Route, bool) {
	var r routing.Route
	cur, _ := nw.Neighbor(src, 0)
	for i := 0; i < hops; i++ {
		n := nw.Node(cur)
		advanced := false
		for p := 0; p < n.Radix(); p++ {
			nb, _ := nw.Neighbor(cur, p)
			if nb == topology.None || nw.Node(nb).Kind != topology.Switch {
				continue
			}
			if nb == cur+1 || (int(cur) == 3 && nb == 0) {
				r = append(r, p)
				cur = nb
				advanced = true
				break
			}
		}
		if !advanced {
			return nil, false
		}
	}
	n := nw.Node(cur)
	for p := 0; p < n.Radix(); p++ {
		if nb, _ := nw.Neighbor(cur, p); nb == dst {
			return append(r, p), true
		}
	}
	return nil, false
}

func TestKillLinkFlushesInFlight(t *testing.T) {
	k, f, hosts, got := testNet(t, 2)
	pkt := mkPacket(f.Network(), hosts[0], hosts[1], 1<<20) // long-lived worm
	f.Inject(hosts[0], pkt)
	var reason DropReason
	pkt.OnDropped = func(r DropReason) { reason = r }
	// Kill the receiver's link mid-flight.
	k.After(time.Microsecond, func() {
		f.KillLink(f.Network().Node(hosts[1]).Ports[0])
	})
	k.Run()
	if len(got[hosts[1]]) != 0 {
		t.Fatal("packet delivered across a killed link")
	}
	if reason != DropFlushed {
		t.Fatalf("reason = %v, want flushed", reason)
	}
	if f.InFlight() != 0 {
		t.Fatal("worm leaked after flush")
	}
}

func TestKillSwitchFlushesInFlight(t *testing.T) {
	k, f, hosts, got := testNet(t, 2)
	pkt := mkPacket(f.Network(), hosts[0], hosts[1], 1<<20)
	f.Inject(hosts[0], pkt)
	k.After(time.Microsecond, func() { f.KillSwitch(f.Network().Switches()[0]) })
	k.Run()
	if len(got[hosts[1]]) != 0 {
		t.Fatal("packet delivered through a killed switch")
	}
	if f.InFlight() != 0 {
		t.Fatal("worm leaked after switch kill")
	}
}

func TestStatsAccounting(t *testing.T) {
	k, f, hosts, _ := testNet(t, 2)
	for i := 0; i < 5; i++ {
		f.Inject(hosts[0], mkPacket(f.Network(), hosts[0], hosts[1], 128))
	}
	f.Inject(hosts[0], &Packet{Route: routing.Route{}, Size: 64}) // bad
	k.Run()
	inj, del, drop := total(f, "pkts_injected"), total(f, "pkts_delivered"), total(f, "pkts_dropped")
	if inj != 6 || del != 5 || drop != 1 {
		t.Fatalf("injected %d delivered %d dropped %d, want 6/5/1", inj, del, drop)
	}
	if b := total(f, "bytes_delivered"); b != 5*128 {
		t.Fatalf("bytes = %d, want 640", b)
	}
}

// TestFabricAndPipeAccountIdentically scripts the same packets through a
// wormhole Fabric and a Pipe on one star — a delivery, a bad route, a dead
// link, a gray link at rate 1 and a transit-hook drop — and requires the
// same registry counts from both.
func TestFabricAndPipeAccountIdentically(t *testing.T) {
	type wireUnderTest interface {
		Metrics() *metrics.Registry
		Network() *topology.Network
		AttachHost(topology.NodeID, func(*Packet))
		SetTransitHook(func(*Packet) bool)
		SetLinkLoss(link int, rate float64, seed int64)
		Inject(topology.NodeID, *Packet)
	}
	const hookDropSize = 99
	script := func(k *sim.Kernel, w wireUnderTest, hosts []topology.NodeID) {
		for _, h := range hosts {
			w.AttachHost(h, func(*Packet) {})
		}
		w.SetTransitHook(func(p *Packet) bool { return p.Size != hookDropSize })
		nw := w.Network()
		toDead := mkPacket(nw, hosts[0], hosts[2], 64)
		nw.KillLink(nw.Node(hosts[2]).Ports[0])
		w.Inject(hosts[0], mkPacket(nw, hosts[0], hosts[1], 128))
		w.Inject(hosts[0], &Packet{Route: routing.Route{7}, Size: 64})
		w.Inject(hosts[0], toDead)
		w.SetLinkLoss(nw.Node(hosts[3]).Ports[0].ID, 1, 1)
		w.Inject(hosts[0], mkPacket(nw, hosts[0], hosts[3], 64))
		w.Inject(hosts[0], mkPacket(nw, hosts[0], hosts[1], hookDropSize))
		k.Run()
	}
	kf := sim.New(1)
	nwf, hf := topology.Star(4)
	f := New(kf, nwf, DefaultConfig())
	script(kf, f, hf)
	kp := sim.New(1)
	nwp, hp := topology.Star(4)
	p := NewPipe(kp, nwp, DefaultConfig())
	script(kp, p, hp)

	for _, c := range []struct {
		name string
		want uint64
	}{{"pkts_injected", 5}, {"pkts_delivered", 1}, {"bytes_delivered", 128}} {
		if got, pg := total(f, c.name), total(p, c.name); got != c.want || pg != c.want {
			t.Errorf("fabric.%s: fabric %d, pipe %d, want %d", c.name, got, pg, c.want)
		}
	}
	for r := DropNoRoute; r <= DropGray; r++ {
		want := uint64(0)
		switch r {
		case DropBadRoute, DropDeadLink, DropGray, DropInjected:
			want = 1
		}
		if got, pg := dropped(f, r), dropped(p, r); got != want || pg != want {
			t.Errorf("fabric.pkts_dropped{reason=%s}: fabric %d, pipe %d, want %d", r, got, pg, want)
		}
	}
}

// TestPipeNoRouteCompletesSendDMAOnce: with no egress hook, a packet to a
// host not attached to the Pipe is dropped at injection as no-route. Its
// send DMA completes once, at the drop, and the drop is counted once.
func TestPipeNoRouteCompletesSendDMAOnce(t *testing.T) {
	k := sim.New(1)
	nw, hosts := topology.Star(2)
	p := NewPipe(k, nw, DefaultConfig())
	p.AttachHost(hosts[0], func(*Packet) { t.Fatal("a packet was delivered") })
	injectDone := 0
	pkt := mkPacket(nw, hosts[0], hosts[1], 64)
	pkt.OnInjectDone = func() { injectDone++ }
	p.Inject(hosts[0], pkt)
	k.Run()
	if injectDone != 1 {
		t.Fatalf("OnInjectDone fired %d times, want 1", injectDone)
	}
	if d, all := dropped(p, DropNoRoute), total(p, "pkts_dropped"); d != 1 || all != 1 {
		t.Fatalf("%d no-route drops of %d, want 1 of 1", d, all)
	}
}

func TestChannelBusyTime(t *testing.T) {
	k, f, hosts, _ := testNet(t, 2)
	f.Inject(hosts[0], mkPacket(f.Network(), hosts[0], hosts[1], 4096))
	k.Run()
	l := f.Network().Node(hosts[0]).Ports[0]
	busy := f.ChannelBusyTime(l, hosts[0])
	ser := f.SerializationTime(4096)
	if busy < ser {
		t.Fatalf("injection channel busy %v, want ≥ %v", busy, ser)
	}
}

func TestPropertyConservation(t *testing.T) {
	// On random topologies with random (valid) traffic, every injected
	// packet is either delivered or counted dropped, and no worm leaks.
	f := func(seed int64, nPkts uint8) bool {
		k := sim.New(seed)
		nw, hosts := topology.Random(6, 3, 8, 3.0, seed)
		if len(hosts) < 2 {
			return true
		}
		fb := New(k, nw, DefaultConfig())
		for _, h := range hosts {
			fb.AttachHost(h, func(*Packet) {})
		}
		rng := k.Rand()
		n := int(nPkts%40) + 1
		for i := 0; i < n; i++ {
			a := hosts[rng.Intn(len(hosts))]
			b := hosts[rng.Intn(len(hosts))]
			if a == b {
				continue
			}
			r, err := routing.Shortest(nw, a, b)
			if err != nil {
				continue
			}
			size := 64 + rng.Intn(4096)
			fb.Inject(a, &Packet{Route: r, Dst: b, Size: size})
		}
		k.Run()
		return conserved(fb) && fb.InFlight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDeadlockAlwaysDrains(t *testing.T) {
	// Even with adversarial cyclic routes, the watchdog guarantees the
	// network eventually drains (no worm in flight forever).
	f := func(seed int64) bool {
		k := sim.New(seed)
		nw, hostRows := topology.Ring(4, 1)
		cfg := DefaultConfig()
		cfg.Watchdog = time.Millisecond
		fb := New(k, nw, cfg)
		for i := 0; i < 4; i++ {
			fb.AttachHost(hostRows[i][0], func(*Packet) {})
		}
		rng := k.Rand()
		for i := 0; i < 4; i++ {
			src := hostRows[i][0]
			dst := hostRows[(i+3)%4][0]
			route, ok := buildClockwise(nw, src, dst, 3)
			if !ok {
				return false
			}
			// Random stagger within one serialization time.
			delay := time.Duration(rng.Intn(30)) * time.Microsecond
			k.After(delay, func() {
				fb.Inject(src, &Packet{Route: route, Dst: dst, Size: 1 << 18})
			})
		}
		k.Run()
		return fb.InFlight() == 0 && conserved(fb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestLinkGaugesMatchPerLinkGaugeFuncs: the fabric's one link-gauge
// collector exports exactly what a GaugeFunc per directed channel would,
// for the links present at bind time and none added later.
func TestLinkGaugesMatchPerLinkGaugeFuncs(t *testing.T) {
	k := sim.New(1)
	nw, hosts := topology.DoubleStar(4)
	f := New(k, nw, DefaultConfig())
	for _, h := range hosts {
		f.AttachHost(h, func(*Packet) {})
	}
	reg := metrics.NewRegistry()
	f.BindMetrics(reg)
	ref := metrics.NewRegistry()
	for _, l := range nw.Links {
		for dir := 0; dir < 2; dir++ {
			key := chanKey(2*l.ID + dir)
			ls := metrics.L("link", fmt.Sprint(l.ID), "dir", fmt.Sprint(dir))
			ref.GaugeFunc("fabric.link.busy_ns", ls, func() float64 {
				if cs := f.chans[key]; cs != nil {
					return float64(cs.busy)
				}
				return 0
			})
			ref.GaugeFunc("fabric.link.utilization", ls, func() float64 {
				if cs := f.chans[key]; cs != nil && k.Now() > 0 {
					return float64(cs.busy) / float64(k.Now())
				}
				return 0
			})
		}
	}
	gauges := func(r *metrics.Registry) string {
		obs := metrics.NewObserver(metrics.Config{})
		obs.Registry().MergeFrom(r)
		obs.SampleNow(k.Now())
		return fmt.Sprint(obs.Samples()[0].Gauges)
	}
	if got, want := gauges(reg), gauges(ref); got != want {
		t.Fatalf("before traffic:\n%s\nwant:\n%s", got, want)
	}
	for i, a := range hosts {
		b := hosts[(i+1)%len(hosts)]
		f.Inject(a, mkPacket(nw, a, b, 512+64*i))
	}
	k.RunFor(50 * time.Microsecond)
	nw.MoveHost(hosts[0], nw.Switches()[1], nw.Node(nw.Switches()[1]).FreePort())
	if got, want := gauges(reg), gauges(ref); got != want {
		t.Fatalf("after traffic:\n%s\nwant:\n%s", got, want)
	}
}

// releaseRecorder keeps the wormhole fabric's channel releases in order.
type releaseRecorder struct {
	keys []chanKey
	at   []sim.Time
}

func (r *releaseRecorder) Trace(e trace.Event) {
	if e.Kind == trace.EvLinkRelease {
		r.keys = append(r.keys, chanKey(2*(int(e.Link)-1)+int(e.Dir)))
		r.at = append(r.at, e.At)
	}
}

// TestTailReleasesInPathOrder sends one packet whose serialization
// outlasts every hop of its path, so all of its tail releases are pending
// at once. Each must free its own channel, in path order, one
// serialization after that channel's grant: every channel but the last is
// busy exactly one serialization (the last is freed at delivery, one
// propagation delay later), and OnInjectDone fires at the first channel's
// release.
func TestTailReleasesInPathOrder(t *testing.T) {
	const switches, size = 6, 4096
	nw, rows := topology.Chain(switches, 2, 1)
	a, b := rows[0][0], rows[switches-1][1]
	k := sim.New(1)
	f := New(k, nw, DefaultConfig())
	rec := &releaseRecorder{}
	f.SetTracer(rec)
	f.AttachHost(b, func(*Packet) {})
	pkt := mkPacket(nw, a, b, size)
	injectDone := sim.Time(-1)
	pkt.OnInjectDone = func() { injectDone = k.Now() }
	f.Inject(a, pkt)
	k.Run()

	cfg := f.Config()
	ser := f.SerializationTime(size)
	hop := cfg.PropDelay + cfg.RouteDelay
	if time.Duration(switches)*hop >= ser {
		t.Fatalf("serialization %v does not outlast %d hops of %v", ser, switches, hop)
	}
	// The path's channels, in order, with the link each leaves from.
	type channel struct {
		l    *topology.Link
		from topology.NodeID
	}
	from := a
	l := nw.Node(a).Ports[0]
	path := []channel{{l, from}}
	for _, port := range pkt.Route {
		from = l.Other(from).Node
		l = nw.Node(from).Ports[port]
		path = append(path, channel{l, from})
	}
	if len(rec.keys) != len(path) {
		t.Fatalf("%d releases, want one per channel (%d)", len(rec.keys), len(path))
	}
	last := len(path) - 1
	for i, c := range path {
		grant := sim.Time(0).Add(time.Duration(i) * hop)
		wantAt, wantBusy := grant.Add(ser), ser
		if i == last {
			wantAt, wantBusy = grant.Add(cfg.PropDelay+ser), cfg.PropDelay+ser
		}
		if rec.keys[i] != keyFor(c.l, c.from) || rec.at[i] != wantAt {
			t.Fatalf("release %d freed channel %d at %v, want channel %d at %v",
				i, rec.keys[i], rec.at[i], keyFor(c.l, c.from), wantAt)
		}
		if busy := f.ChannelBusyTime(c.l, c.from); busy != wantBusy {
			t.Fatalf("channel %d of the path was busy %v, want %v", i, busy, wantBusy)
		}
	}
	if injectDone != rec.at[0] {
		t.Fatalf("OnInjectDone fired at %v, want the first channel's release at %v", injectDone, rec.at[0])
	}
}
