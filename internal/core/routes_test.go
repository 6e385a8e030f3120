package core

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/nic"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

func mustSpec(t *testing.T, spec string) *topology.Built {
	t.Helper()
	b, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLookaheadPinned pins the sharded engine's epoch window, derived from
// the shortest cross-shard route in the cluster's route table, on seven
// plans. The window is part of every sharded result (it sets the epoch
// count and the barrier schedule), so these values must never move.
func TestLookaheadPinned(t *testing.T) {
	for _, tc := range []struct {
		spec          string
		hostsPerShard int
		want          time.Duration
	}{
		{"fattree:4", 1, 400 * time.Nanosecond},
		{"fattree:4", 2, 1100 * time.Nanosecond},
		{"fattree:8", 4, 1100 * time.Nanosecond},
		{"fattree:16", 64, 1800 * time.Nanosecond},
		{"dragonfly:4,2,2", 1, 400 * time.Nanosecond},
		{"dragonfly:4,2,2", 8, 750 * time.Nanosecond},
		{"torus:4,4,4", 4, 750 * time.Nanosecond},
	} {
		b := mustSpec(t, tc.spec)
		c := New(Config{Net: b.Net, Hosts: b.Hosts, FT: true,
			Plan: ShardPlan{HostsPerShard: tc.hostsPerShard}, Workers: 1})
		if c.Lookahead != tc.want {
			t.Errorf("%s, %d hosts per shard: lookahead %v, want %v", tc.spec, tc.hostsPerShard, c.Lookahead, tc.want)
		}
		c.Stop()
	}
}

// heldRoute is a route a NIC was built with, and a copy of its ports.
type heldRoute struct {
	src, dst topology.NodeID
	r        routing.Route
	ports    []int
}

// holdRoutes records every route the cluster's NICs start with.
func holdRoutes(c *Cluster) []heldRoute {
	var out []heldRoute
	for _, h := range c.Hosts {
		n := c.NIC(h)
		for _, d := range n.Destinations() {
			r, _ := n.Route(d)
			out = append(out, heldRoute{h, d, r, append([]int(nil), r...)})
		}
	}
	return out
}

// checkHeld fails if any route a NIC was built with has had its ports
// rewritten: table routes are shared by reference with every packet sent
// on them, so a write anywhere on the packet path would land here.
func checkHeld(t *testing.T, held []heldRoute) {
	t.Helper()
	for _, h := range held {
		if !h.r.Equal(h.ports) {
			t.Fatalf("route %d->%d was rewritten in place: now %v, built as %v", h.src, h.dst, h.r, h.ports)
		}
	}
}

// sameRoute reports whether a and b are one route: the same slice
// header, not merely equal ports.
func sameRoute(a, b routing.Route) bool {
	return len(a) == len(b) && (a == nil) == (b == nil) && (len(a) == 0 || &a[0] == &b[0])
}

// checkShareRow fails unless the NICs of members (hosts of one switch)
// route to every destination but themselves by the very same routes:
// they read one table row. No member reports a route to itself.
func checkShareRow(t *testing.T, c *Cluster, members []topology.NodeID) {
	t.Helper()
	for _, a := range members {
		if r, ok := c.NIC(a).Route(a); ok {
			t.Fatalf("host %d routes to itself by %v", a, r)
		}
		for _, b := range members {
			for _, d := range c.Hosts {
				if d == a || d == b {
					continue
				}
				ra, _ := c.NIC(a).Route(d)
				rb, _ := c.NIC(b).Route(d)
				if ra == nil || !sameRoute(ra, rb) {
					t.Fatalf("hosts %d and %d of one switch hold different routes to %d: %v, %v", a, b, d, ra, rb)
				}
			}
		}
	}
}

// checkUnchanged fails unless host h still routes to every destination
// by the very route, and ports, it was built with.
func checkUnchanged(t *testing.T, c *Cluster, held []heldRoute, h topology.NodeID) {
	t.Helper()
	n := 0
	for _, hr := range held {
		if hr.src != h {
			continue
		}
		n++
		if r, _ := c.NIC(h).Route(hr.dst); !sameRoute(r, hr.r) || !r.Equal(hr.ports) {
			t.Fatalf("host %d's route to %d is %v, not the table's %v", h, hr.dst, r, hr.ports)
		}
	}
	if got := len(c.NIC(h).Destinations()); got != n {
		t.Fatalf("host %d has %d destinations, was built with %d", h, got, n)
	}
}

// TestTableRoutesIntactAfterRemaps runs a sequential link-kill campaign
// with on-demand remapping — a trunk the installed routes use dies
// permanently under all-pairs traffic — then checks every route the NICs
// were built with still holds its original ports. The two hosts of each
// switch share a table row; only the first of each sends, so the second
// must still read that row, unmodified, after the first remapped.
func TestTableRoutesIntactAfterRemaps(t *testing.T) {
	nw, rows := topology.Chain(3, 2, 2)
	var hosts []topology.NodeID
	for _, row := range rows {
		hosts = append(hosts, row...)
	}
	c := New(Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 8 * time.Millisecond,
		},
		Mapper: true,
		Seed:   5,
	})
	held := holdRoutes(c)
	for _, row := range rows {
		checkShareRow(t, c, row)
	}
	sparse := []topology.NodeID{rows[0][0], rows[1][0], rows[2][0]}
	for _, dst := range sparse {
		exp := c.Endpoint(dst).Export("in", 4096)
		c.K.Spawn("recv", func(p *sim.Proc) {
			for {
				exp.WaitNotification(p)
			}
		})
	}
	for _, src := range sparse {
		for _, dst := range sparse {
			if src == dst {
				continue
			}
			imp, err := c.Endpoint(src).Import(dst, "in")
			if err != nil {
				t.Fatal(err)
			}
			c.K.Spawn("send", func(p *sim.Proc) {
				for j := 0; j < 25; j++ {
					imp.Send(p, 0, make([]byte, 256), true)
					p.Sleep(time.Millisecond)
				}
			})
		}
	}
	r, _ := c.NIC(sparse[0]).Route(sparse[2])
	walk, err := routing.Walk(nw, sparse[0], r)
	if err != nil {
		t.Fatal(err)
	}
	trunk := nw.Node(walk.Switches[0]).Ports[r[0]]
	c.K.After(2*time.Millisecond, func() { nw.KillLink(trunk) })
	c.RunFor(200 * time.Millisecond)
	c.Stop()
	if remapTotal(c, "successes") == 0 {
		t.Fatal("no remap completed: the campaign never replaced a route")
	}
	checkHeld(t, held)
	for _, row := range rows {
		checkUnchanged(t, c, held, row[1])
	}
	if mine, _ := c.NIC(sparse[0]).Route(sparse[2]); sameRoute(mine, r) {
		t.Fatalf("host %d still routes to %d over the dead trunk", sparse[0], sparse[2])
	}
}

// TestTableRoutesIntactAfterShardedFlapStorm runs a flap storm on a
// sharded fattree:8 — intra-cell packets carry table routes straight
// through the shard's pipe — and checks every route the NICs were built
// with still holds its original ports.
func TestTableRoutesIntactAfterShardedFlapStorm(t *testing.T) {
	b := mustSpec(t, "fattree:8")
	c := New(Config{
		Net: b.Net, Hosts: b.Hosts, FT: true,
		Retrans: retrans.Config{QueueSize: 16, Interval: time.Millisecond},
		Plan:    ShardPlan{HostsPerShard: 16},
		Workers: 2,
		Seed:    3,
	})
	held := holdRoutes(c)
	var flaps []LinkFlapEvent
	for i, l := range b.Trunks {
		if i%3 == 0 {
			flaps = append(flaps, LinkFlapEvent{Link: l.ID, At: time.Duration(1+i%7) * time.Millisecond, Dur: 2 * time.Millisecond})
		}
	}
	c.ScheduleLinkFlaps(flaps)
	var flows []Flow
	for i, h := range b.Hosts {
		flows = append(flows, Flow{Src: h, Dst: b.Hosts[(i+1)%len(b.Hosts)]}, Flow{Src: h, Dst: b.Hosts[(i+37)%len(b.Hosts)]})
	}
	c.StartFlows(flows, 6, 256, 300*time.Microsecond)
	c.RunFor(15 * time.Millisecond)
	c.Stop()
	if c.DeliveredCount() == 0 {
		t.Fatal("the storm delivered nothing")
	}
	checkHeld(t, held)
}

// TestRouteInstallAllocs: a NIC adopts its table row in place, and the
// lookahead reads the same table, so neither allocates.
func TestRouteInstallAllocs(t *testing.T) {
	b := mustSpec(t, "fattree:8")
	tab := routing.NewTable(b.Net, b.Hosts)
	k := sim.New(1)
	n := nic.New(k, fabric.New(k, b.Net, fabric.DefaultConfig()), b.Hosts[0], nic.Options{})
	row := tab.Row(b.Hosts[0])
	if got := testing.AllocsPerRun(10, func() { n.InstallRoutes(tab.Row(n.Node()), b.Hosts) }); got != 0 {
		t.Errorf("InstallRoutes: %v allocs, want 0", got)
	}
	if got, _ := n.Route(b.Hosts[1]); &got[0] != &row[b.Hosts[1]][0] {
		t.Error("the NIC copied its row instead of adopting it")
	}
	groups := planGroups(ShardPlan{HostsPerShard: 4}, b.Hosts)
	if got := testing.AllocsPerRun(10, func() { minCrossHops(tab, groups) }); got != 0 {
		t.Errorf("minCrossHops: %v allocs, want 0", got)
	}
}

// TestSharedRowsAcrossCells splits edge switches' hosts over cells (3
// hosts per cell on fattree:8, 4 hosts per edge switch), so NICs of
// several cells read one table row. One host of a split switch changes
// its routes before the run: it removes one and replaces another with a
// route over a different uplink. The run must be byte-identical at 1, 2
// and 4 workers, the other hosts of that switch must still read the
// table's row unmodified — the replaced destination too — and every flow
// must deliver every message.
func TestSharedRowsAcrossCells(t *testing.T) {
	var dumps [][]byte
	for _, workers := range []int{1, 2, 4} {
		b := mustSpec(t, "fattree:8")
		h := b.Hosts
		c := New(Config{
			Net: b.Net, Hosts: h, FT: true,
			Retrans: retrans.Config{QueueSize: 16, Interval: time.Millisecond},
			Plan:    ShardPlan{HostsPerShard: 3},
			Workers: workers,
			Seed:    7,
		})
		mates := h[:4] // one edge switch: cells 0 (h[0..2]) and 1 (h[3])
		checkShareRow(t, c, mates)
		held := holdRoutes(c)

		changer, dst, gone := h[2], h[100], h[70]
		old, _ := c.NIC(changer).Route(dst)
		walk, err := routing.Walk(b.Net, changer, old)
		if err != nil {
			t.Fatal(err)
		}
		up := b.Net.Node(walk.Switches[0]).Ports[old[0]]
		b.Net.KillLink(up)
		alt, err := routing.Shortest(b.Net, changer, dst)
		b.Net.RestoreLink(up)
		if err != nil || alt[0] == old[0] {
			t.Fatalf("no route from %d to %d over another uplink: %v, %v", changer, dst, alt, err)
		}
		c.NIC(changer).RemoveRoute(gone)
		c.NIC(changer).RemoveRoute(dst)
		c.NIC(changer).SetRoute(dst, alt)

		flows := []Flow{{changer, dst}, {h[0], dst}, {h[3], dst}, {dst, changer}, {h[1], h[3]}, {h[3], h[1]}}
		c.StartFlows(flows, 5, 256, 200*time.Microsecond)
		c.RunFor(10 * time.Millisecond)
		c.Stop()
		dumps = append(dumps, c.DumpObservables())

		for _, m := range []topology.NodeID{h[0], h[1], h[3]} {
			checkUnchanged(t, c, held, m)
		}
		if r, ok := c.NIC(changer).Route(gone); ok {
			t.Fatalf("host %d still routes to removed destination %d by %v", changer, gone, r)
		}
		if r, _ := c.NIC(changer).Route(dst); !sameRoute(r, alt) {
			t.Fatalf("host %d routes to %d by %v, want its own %v", changer, dst, r, alt)
		}
		if got, want := c.DeliveredCount(), len(flows)*5; got != want {
			t.Fatalf("workers %d: delivered %d of %d messages", workers, got, want)
		}
	}
	for i := 1; i < len(dumps); i++ {
		if !bytes.Equal(dumps[0], dumps[i]) {
			t.Fatalf("observables differ between 1 and %d workers", []int{1, 2, 4}[i])
		}
	}
}

// TestMergeDeliveriesMatchesStableSort merges 1,000 seeded random sets of
// per-cell logs, each in time order, with times drawn from a narrow range
// so records of different cells often tie, and compares the result with
// the rule it implements: a stable sort by time of the logs' concatenation
// in cell order.
func TestMergeDeliveriesMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		logs := make([][]Delivery, rng.Intn(12))
		var cat []Delivery
		msg := uint64(0)
		for i := range logs {
			at := sim.Time(rng.Intn(4))
			for j := rng.Intn(20); j > 0; j-- {
				at += sim.Time(rng.Intn(3)) // ties within a log, too
				msg++
				logs[i] = append(logs[i], Delivery{At: at, Src: topology.NodeID(i), Msg: msg})
			}
			cat = append(cat, logs[i]...)
		}
		sort.SliceStable(cat, func(i, j int) bool { return cat[i].At < cat[j].At })
		got := mergeDeliveries(logs)
		if len(got) != len(cat) || cap(got) != len(cat) {
			t.Fatalf("trial %d: merged %d records (cap %d), want %d", trial, len(got), cap(got), len(cat))
		}
		for i := range cat {
			if got[i] != cat[i] {
				t.Fatalf("trial %d: record %d is %v, stable sort has %v", trial, i, got[i], cat[i])
			}
		}
	}
}
