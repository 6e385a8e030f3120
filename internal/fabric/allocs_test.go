package fabric

import (
	"strings"
	"testing"

	"sanft/internal/metrics"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// TestPacketClonePooledAllocs pins the fabric side of the shard-boundary
// clone: after pool warmup, ClonePooled+Release of a packet shell must
// not allocate (the payload is cloned separately by the protocol layer),
// on the list of code with no cell and on a cell's own list alike.
func TestPacketClonePooledAllocs(t *testing.T) {
	pkt := &Packet{
		Route: routing.Route{1, 2}, Src: 1, Dst: 2, Size: 1048,
		Gen: 1, Seq: 5, Msg: 3,
	}
	pkt.ClonePooled().Release()
	avg := testing.AllocsPerRun(10000, func() {
		pkt.ClonePooled().Release()
	})
	if avg != 0 {
		t.Fatalf("packet boundary clone allocates %.2f allocs/op in steady state, want 0", avg)
	}
	ps := PacketsOf(sim.New(1))
	ps.Release(ps.Clone(pkt))
	if avg := testing.AllocsPerRun(10000, func() { ps.Release(ps.Clone(pkt)) }); avg != 0 {
		t.Fatalf("packet clone on a cell's list allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestPacketReleaseOwnershipGuard: value copies and ordinary packets
// must never free pooled storage.
func TestPacketReleaseOwnershipGuard(t *testing.T) {
	orig := &Packet{Route: routing.Route{1}, Size: 64}
	c := orig.ClonePooled()
	cp := *c
	cp.Release() // value copy: no-op
	if len(c.Route) != 1 || c.Route[0] != 1 {
		t.Fatal("releasing a value copy freed the owner's route storage")
	}
	c.Release()
	orig.Release() // blk nil: no-op
	if len(orig.Route) != 1 {
		t.Fatal("releasing an ordinary packet corrupted it")
	}
}

// TestPipeInjectAllocs pins the pipe-mode inject hot path: the send-DMA
// completion and the local arrival are events of the Pipe's two bound
// handlers with the packet as argument, so once the kernel arena is warm
// an inject and its delivery allocate nothing. (Before bound handlers it
// was 2 allocs/op, a closure for each event, under a budget of 4.)
func TestPipeInjectAllocs(t *testing.T) {
	nw, hosts := topology.Star(2)
	k := sim.New(1)
	p := NewPipe(k, nw, DefaultConfig())
	for _, h := range hosts {
		p.AttachHost(h, func(*Packet) {})
	}
	route, err := routing.Shortest(nw, hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	pkt := &Packet{Route: route, Dst: hosts[1], Size: 256}
	// Warm the kernel arena and pipe state.
	for i := 0; i < 16; i++ {
		p.Inject(hosts[0], pkt)
		k.Run()
	}
	avg := testing.AllocsPerRun(2000, func() {
		p.Inject(hosts[0], pkt)
		k.Run()
	})
	if avg != 0 {
		t.Fatalf("pipe inject+deliver allocates %.2f allocs/op, want 0", avg)
	}
}

// wormAllocs returns the allocations of one packet crossing a chain of
// the given number of switches on the wormhole fabric, after warm-up.
// The packet and its route are reused, so what is counted is the worm
// and everything its hops schedule.
func wormAllocs(t *testing.T, switches int) float64 {
	t.Helper()
	nw, rows := topology.Chain(switches, 2, 1)
	a, b := rows[0][0], rows[switches-1][1]
	k := sim.New(1)
	f := New(k, nw, DefaultConfig())
	delivered := 0
	f.AttachHost(b, func(*Packet) { delivered++ })
	pkt := mkPacket(nw, a, b, 64)
	if len(pkt.Route) != switches {
		t.Fatalf("route %v crosses %d switches, want %d", pkt.Route, len(pkt.Route), switches)
	}
	for i := 0; i < 16; i++ {
		f.Inject(a, pkt)
		k.Run()
	}
	avg := testing.AllocsPerRun(2000, func() {
		f.Inject(a, pkt)
		k.Run()
	})
	if delivered != 16+2001 {
		t.Fatalf("delivered %d packets, want %d", delivered, 16+2001)
	}
	return avg
}

// TestWormHopAllocs: a worm's hops schedule its own bound events, its
// held channels live in an inline array, channels are found by index, and
// a delivered worm goes back to the fabric's free list, so once warm a
// packet allocates nothing over one switch or eight. (Before the free
// list: 1, the worm; before bound handlers: 3.75 allocations per hop, from
// per-hop closures, growing held/grant slices and map-keyed channels.)
func TestWormHopAllocs(t *testing.T) {
	one, eight := wormAllocs(t, 1), wormAllocs(t, 8)
	if one != 0 || eight != 0 {
		t.Fatalf("a packet allocates %.2f times over 1 switch and %.2f over 8, want 0 and 0", one, eight)
	}
}

// TestDropCountAllocs: a drop resolves its reason's counter once, so
// repeated drops of one reason allocate nothing (before: a label slice and
// an ident string per drop). The counters stay lazy — a reason that never
// fired never appears in an export — and re-binding the registry moves
// them with it.
func TestDropCountAllocs(t *testing.T) {
	k := sim.New(1)
	nw, hosts := topology.Star(2)
	f := New(k, nw, DefaultConfig())
	exported := func() string {
		var b strings.Builder
		obs := metrics.NewObserver(metrics.Config{})
		obs.Registry().MergeFrom(f.Metrics())
		obs.SampleNow(k.Now())
		if err := obs.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if out := exported(); strings.Contains(out, "pkts_dropped") {
		t.Fatalf("export before any drop mentions drops:\n%s", out)
	}
	pkt := mkPacket(nw, hosts[0], hosts[1], 64)
	f.drop(pkt, DropGray)
	avg := testing.AllocsPerRun(1000, func() { f.drop(pkt, DropGray) })
	if avg != 0 {
		t.Fatalf("a drop allocates %.2f allocs/op once its counter exists, want 0", avg)
	}
	if got := dropped(f, DropGray); got != 1002 {
		t.Fatalf("gray drops = %d, want 1002", got)
	}
	out := exported()
	if !strings.Contains(out, `reason="gray"`) || strings.Contains(out, `reason="watchdog"`) {
		t.Fatalf("export should list the gray drops only:\n%s", out)
	}
	f.BindMetrics(metrics.NewRegistry())
	f.drop(pkt, DropGray)
	if got := dropped(f, DropGray); got != 1 {
		t.Fatalf("gray drops after re-binding = %d, want 1", got)
	}
}
