package fabric

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sanft/internal/metrics"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// lineFabric builds a line of the given number of switches, two hosts on
// each, and returns the fabric, a host of the first switch, the other
// host of the last one and the route between them.
func lineFabric(t testing.TB, switches int, lazy bool) (*sim.Kernel, *Fabric, topology.NodeID, topology.NodeID, routing.Route) {
	t.Helper()
	nw, rows := topology.Chain(switches, 2, 1)
	a, b := rows[0][0], rows[switches-1][1]
	route, err := routing.Shortest(nw, a, b)
	if err != nil || len(route) != switches {
		t.Fatalf("route %v over %d switches: %v", route, switches, err)
	}
	k := sim.New(1)
	f := New(k, nw, DefaultConfig())
	f.SetLazyWorms(lazy)
	return k, f, a, b, route
}

// TestLazyWormEventBound: a packet on a free line costs its first-hop
// event, the injection channel's release and its delivery, however many
// switches it crosses; the eager worm takes two events per link but the
// last. A one-switch path has nothing to spare and costs three either way.
// Delivery, OnInjectDone and channel busy times are the same on both.
func TestLazyWormEventBound(t *testing.T) {
	for _, switches := range []int{1, 2, 4, 8} {
		type result struct {
			events             uint64
			delivered, injDone sim.Time
			busy               []time.Duration
		}
		run := func(lazy bool) result {
			k, f, a, b, route := lineFabric(t, switches, lazy)
			var r result
			f.AttachHost(b, func(p *Packet) { r.delivered = p.Delivered })
			pkt := &Packet{Route: route, Dst: b, Size: 1500, OnInjectDone: func() { r.injDone = k.Now() }}
			f.Inject(a, pkt)
			k.Run()
			r.events = k.Executed()
			for _, l := range f.Network().Links {
				r.busy = append(r.busy, f.ChannelBusyTime(l, l.A.Node), f.ChannelBusyTime(l, l.B.Node))
			}
			return r
		}
		lazy, eager := run(true), run(false)
		if lazy.events != 3 {
			t.Errorf("%d switches: lazy packet executed %d events, want 3", switches, lazy.events)
		}
		if want := uint64(2*(switches+1) - 1); eager.events != want {
			t.Errorf("%d switches: eager packet executed %d events, want %d", switches, eager.events, want)
		}
		if fmt.Sprint(lazy.delivered, lazy.injDone, lazy.busy) != fmt.Sprint(eager.delivered, eager.injDone, eager.busy) {
			t.Errorf("%d switches: lazy delivered %v, inject done %v, busy %v; eager %v, %v, %v",
				switches, lazy.delivered, lazy.injDone, lazy.busy, eager.delivered, eager.injDone, eager.busy)
		}
	}
}

// TestWormFreePathAllocs: a lazy packet allocates no more than an eager
// one does, which is nothing once the fabric's free list holds a worm.
func TestWormFreePathAllocs(t *testing.T) {
	k, f, a, b, route := lineFabric(t, 8, true)
	delivered := 0
	f.AttachHost(b, func(*Packet) { delivered++ })
	pkt := &Packet{Route: route, Dst: b, Size: 64}
	for i := 0; i < 16; i++ {
		f.Inject(a, pkt)
		k.Run()
	}
	before := k.Executed()
	avg := testing.AllocsPerRun(2000, func() {
		f.Inject(a, pkt)
		k.Run()
	})
	if delivered != 16+2001 || k.Executed()-before != 3*2001 {
		t.Fatalf("delivered %d packets in %d events, want %d lazy ones", delivered, k.Executed()-before, 16+2001)
	}
	if eager := wormAllocs(t, 8); avg > eager {
		t.Fatalf("a lazy packet allocates %.2f times, an eager one %.2f", avg, eager)
	}
}

// BenchmarkWormFreePath sends one packet at a time across a free line of
// eight switches, the next injected when the last is delivered: the shape
// of the ledger's fabric.worm_hop, per packet.
func BenchmarkWormFreePath(b *testing.B) {
	for _, mode := range []struct {
		name string
		lazy bool
	}{{"lazy", true}, {"eager", false}} {
		b.Run(mode.name, func(b *testing.B) {
			k, f, src, dst, route := lineFabric(b, 8, mode.lazy)
			sent := 0
			inject := func() {
				if sent < b.N {
					sent++
					f.Inject(src, &Packet{Route: route, Dst: dst, Size: 64})
				}
			}
			f.AttachHost(dst, func(*Packet) { inject() })
			b.ReportAllocs()
			b.ResetTimer()
			inject()
			k.Run()
		})
	}
}

// TestKillSwitchSparesWormsPastIt: killing a switch flushes the worms that
// hold or wait on its channels, not one whose tail has already left it.
// A 64 KB packet across two switches has released both of sw0's channels
// by 409.95 µs; a kill of sw0 1 ns later must let it be delivered at
// 410.35 µs (it used to be dropped as flushed).
func TestKillSwitchSparesWormsPastIt(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		k, f, a, b, route := lineFabric(t, 2, lazy)
		var delivered sim.Time
		var dropped DropReason
		f.AttachHost(b, func(p *Packet) { delivered = p.Delivered })
		pkt := &Packet{Route: route, Dst: b, Size: 64 << 10, OnDropped: func(r DropReason) { dropped = r }}
		f.Inject(a, pkt)
		sw0 := f.Network().Node(a).Ports[0].Other(a).Node
		k.At(sim.Time(409951), func() { f.KillSwitch(sw0) })
		k.Run()
		if dropped != DropNone || delivered != sim.Time(410350) {
			t.Fatalf("lazy=%v: dropped %v, delivered at %v, want delivery at 410.35µs", lazy, dropped, delivered)
		}
	}
}

// TestLazyWormTies: a second worm requests a channel a lazy worm reserved
// exactly when the lazy worm is granted it, and exactly when it releases
// it, from events ordered before and after the elided step. The lazy run
// must match the eager one; the pinned outcome (who blocks) shows the tie
// was decided each way.
func TestLazyWormTies(t *testing.T) {
	// The lazy worm is injected at 0 and granted the shared channel at
	// 2·hop (700 ns). A 64 B packet holds it for max(400 ns, hop), a
	// 112 B one for 700 ns, two hops: its release then ties with the
	// next grant in time and scheduling instant.
	hop := sim.Time(DefaultConfig().PropDelay + DefaultConfig().RouteDelay)
	for _, tc := range []struct {
		name string
		size int
		// at is when the second worm is injected: its request for the
		// shared channel comes one hop later.
		at sim.Time
		// late schedules the injection from an event just before it, so
		// it runs after every event of its instant scheduled earlier.
		late bool
		// blocked says which worm waits for the shared channel.
		blocked string
	}{
		{"at the grant, before the step", 64, hop, false, "lazy"},
		{"at the grant, after the step", 64, hop, true, "second"},
		{"at the release, before the step", 112, 3 * hop, false, "second"},
		{"at the release, after the step", 112, 3 * hop, true, "none"},
		{"at the release, scheduled before the step", 64, 2*hop + 400 - hop, false, "second"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(lazy bool) string {
				// Three switches; the lazy worm runs from sw0 to sw2, the
				// second from sw1 to another host of sw2, so they share
				// only the channel sw1→sw2.
				nw, rows := topology.Chain(3, 2, 1)
				k := sim.New(1)
				f := New(k, nw, DefaultConfig())
				f.SetLazyWorms(lazy)
				var log []string
				note := func(format string, args ...any) {
					log = append(log, fmt.Sprintf("%v ", k.Now())+fmt.Sprintf(format, args...))
				}
				for _, h := range []topology.NodeID{rows[2][0], rows[2][1]} {
					f.AttachHost(h, func(p *Packet) {
						who := "second"
						if p.Src == rows[0][0] {
							who = "lazy"
						}
						note("deliver %s", who)
					})
				}
				send := func(src, dst topology.NodeID) {
					f.Inject(src, &Packet{Route: mustRoute(t, nw, src, dst), Dst: dst, Size: tc.size,
						OnInjectDone: func() { note("inject done %d", src) }})
				}
				second := func() { send(rows[1][0], rows[2][1]) }
				if !tc.late {
					k.At(tc.at, second)
				}
				send(rows[0][0], rows[2][0])
				if tc.late {
					k.At(tc.at-1, func() { k.At(tc.at, second) })
				}
				k.Run()
				h := f.Metrics().Histogram("fabric.worm.block_ns", nil)
				note("blocks %d for %v", h.Count(), h.Sum())
				for _, l := range nw.Links {
					note("link %d busy %v %v", l.ID, f.ChannelBusyTime(l, l.A.Node), f.ChannelBusyTime(l, l.B.Node))
				}
				return strings.Join(log, "\n")
			}
			lazy, eager := run(true), run(false)
			if lazy != eager {
				t.Fatalf("lazy run:\n%s\neager run:\n%s", lazy, eager)
			}
			// The lazy worm is delivered second only if it waited for the
			// shared channel.
			blocks := strings.Contains(eager, "blocks 1 ")
			lazySecond := strings.Index(eager, "deliver lazy") > strings.Index(eager, "deliver second")
			if (tc.blocked == "none") == blocks || (blocks && lazySecond != (tc.blocked == "lazy")) {
				t.Fatalf("want %s to block:\n%s", tc.blocked, eager)
			}
		})
	}
}

func mustRoute(t testing.TB, nw *topology.Network, src, dst topology.NodeID) routing.Route {
	t.Helper()
	r, err := routing.Shortest(nw, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// eventLog is a tracer that keeps every event as a line.
type eventLog struct{ lines *[]string }

func (l eventLog) Trace(e trace.Event) {
	*l.lines = append(*l.lines, fmt.Sprintf("%v trace %v src=%d seq=%d link=%d.%d %s", e.At, e.Kind, e.Node, e.Seq, e.Link, e.Dir, e.Note))
}

// lazyScenario scripts one random contention scenario onto f: packets of
// random sizes (112 B among them: its serialization is two hop delays, so
// the injection channel's release meets the second hop) between random
// hosts at instants on a 50 ns grid, so that many events tie, injected
// from events ordered before and after the others of their instant;
// mid-flight link and switch kills, link restores, gray links and a
// tracer; channel busy times and link gauges sampled, and InFlightDetail
// taken, at random instants. Every observable is appended to the
// returned log. All randomness is drawn before the run, so the script is
// the same whatever the fabric does. Every delivery also checks that the
// worm is idle, as going back to the free list requires.
func lazyScenario(t testing.TB, seed int64, lazy bool) (log []string, events uint64) {
	rng := rand.New(rand.NewSource(seed))
	var nw *topology.Network
	var hosts []topology.NodeID
	switch rng.Intn(3) {
	case 0:
		var rows [][]topology.NodeID
		nw, rows = topology.Chain(2+rng.Intn(4), 2, 1+rng.Intn(2))
		for _, r := range rows {
			hosts = append(hosts, r...)
		}
	case 1:
		var rows [][]topology.NodeID
		nw, rows = topology.Ring(3+rng.Intn(4), 1+rng.Intn(2))
		for _, r := range rows {
			hosts = append(hosts, r...)
		}
	default:
		ft := topology.FatTree(4)
		nw, hosts = ft.Net, ft.Hosts
	}
	k := sim.New(seed)
	cfg := DefaultConfig()
	cfg.Watchdog = time.Duration(20+rng.Intn(60)) * time.Microsecond
	f := New(k, nw, cfg)
	f.SetLazyWorms(lazy)
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", k.Now())+fmt.Sprintf(format, args...))
	}
	for _, h := range hosts {
		f.AttachHost(h, func(p *Packet) {
			if err := idleAtDelivery(f, f.firing); err != nil {
				t.Fatalf("seed %d, lazy %v: %v", seed, lazy, err)
			}
			note("deliver %d->%d size %d", p.Src, p.Dst, p.Size)
		})
	}
	grid := func(span int) sim.Time { return sim.Time(50 * rng.Intn(span)) }
	// at runs fn at t, from an event scheduled now or, late, from one
	// just before t, so it runs after the events of t scheduled earlier.
	at := func(t sim.Time, late bool, fn func()) {
		if late && t > 0 {
			k.At(t-1, func() { k.At(t, fn) })
			return
		}
		k.At(t, fn)
	}
	sizes := []int{1, 64, 112, 112, 113, 200, 700, 1500, 4096}
	npkts := 5 + rng.Intn(30)
	for i := 0; i < npkts; i++ {
		src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		route, err := routing.Shortest(nw, src, dst)
		if err != nil {
			continue
		}
		size := sizes[rng.Intn(len(sizes))]
		if rng.Intn(4) == 0 {
			size = 1 + rng.Intn(3000)
		}
		if rng.Intn(40) == 0 {
			size = 64 << 10
		}
		id := i
		pkt := &Packet{Route: route, Dst: dst, Size: size,
			OnInjectDone: func() { note("inject done #%d", id) },
			OnDropped:    func(r DropReason) { note("drop #%d %v", id, r) }}
		at(grid(400), rng.Intn(2) == 0, func() { f.Inject(src, pkt) })
	}
	for n := rng.Intn(3); n > 0; n-- {
		l := nw.Links[rng.Intn(len(nw.Links))]
		down := grid(400)
		at(down, rng.Intn(2) == 0, func() { note("kill link %d", l.ID); f.KillLink(l) })
		if rng.Intn(2) == 0 {
			at(down+grid(100), false, func() {
				if nw.Node(l.A.Node).Up && nw.Node(l.B.Node).Up {
					nw.RestoreLink(l)
				}
			})
		}
	}
	if rng.Intn(5) == 0 {
		sws := nw.Switches()
		sw := sws[rng.Intn(len(sws))]
		at(grid(400), rng.Intn(2) == 0, func() { note("kill switch %d", sw); f.KillSwitch(sw) })
	}
	for n := rng.Intn(3); n > 0; n-- {
		l, rate := nw.Links[rng.Intn(len(nw.Links))], []float64{0.3, 1, 0}[rng.Intn(3)]
		at(grid(400), rng.Intn(2) == 0, func() { f.SetLinkLoss(l.ID, rate, seed) })
	}
	if rng.Intn(4) == 0 {
		at(grid(400), rng.Intn(2) == 0, func() { f.SetTracer(eventLog{&log}) })
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		at(grid(600), rng.Intn(2) == 0, func() {
			var b strings.Builder
			for _, l := range nw.Links {
				fmt.Fprintf(&b, " %v/%v", f.ChannelBusyTime(l, l.A.Node), f.ChannelBusyTime(l, l.B.Node))
			}
			obs := metrics.NewObserver(metrics.Config{})
			obs.Registry().MergeFrom(f.Metrics())
			obs.SampleNow(k.Now())
			note("busy%s gauges %v", b.String(), obs.Samples()[0].Gauges)
		})
	}
	if rng.Intn(3) == 0 {
		at(grid(400), rng.Intn(2) == 0, func() { note("in flight %q", f.InFlightDetail()) })
	}
	k.Run()
	h := f.Metrics().Histogram("fabric.worm.block_ns", nil)
	note("end: in flight %d, injected %d delivered %d dropped %d, watchdog resets %d, blocks %d for %v",
		f.InFlight(), total(f, "pkts_injected"), total(f, "pkts_delivered"), total(f, "pkts_dropped"),
		total(f, "watchdog_resets"), h.Count(), h.Sum())
	for _, l := range nw.Links {
		note("link %d busy %v %v", l.ID, f.ChannelBusyTime(l, l.A.Node), f.ChannelBusyTime(l, l.B.Node))
	}
	return log, k.Executed()
}

// TestLazyWormDifferential runs 600 random contention scenarios on
// chains, rings and fattree:4, each with lazy worms and with every hop
// taken, and requires the two runs to show the same thing, line by line.
func TestLazyWormDifferential(t *testing.T) {
	var lazyEvents, eagerEvents uint64
	for seed := int64(1); seed <= 600; seed++ {
		a, ea := lazyScenario(t, seed, false)
		b, eb := lazyScenario(t, seed, true)
		eagerEvents += ea
		lazyEvents += eb
		for i := 0; i < len(a) || i < len(b); i++ {
			var la, lb string
			if i < len(a) {
				la = a[i]
			}
			if i < len(b) {
				lb = b[i]
			}
			if la != lb {
				t.Fatalf("seed %d, line %d:\n  eager: %.400s\n  lazy:  %.400s", seed, i+1, la, lb)
			}
		}
	}
	// The scenarios must exercise lazy worms, not only eager ones.
	if lazyEvents*10 > eagerEvents*9 {
		t.Fatalf("lazy runs executed %d events, eager %d: too few worms went lazy", lazyEvents, eagerEvents)
	}
	t.Logf("events: eager %d, lazy %d", eagerEvents, lazyEvents)
}
