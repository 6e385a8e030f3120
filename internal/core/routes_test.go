package core

import (
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

// TestTableRoutesIntactAfterRemaps runs a sequential link-kill campaign
// with on-demand remapping — a trunk the installed routes use dies
// permanently under all-pairs traffic — then checks every route the NICs
// were built with still holds its original ports.
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
	if c.Remaps == 0 {
		t.Fatal("no remap completed: the campaign never replaced a route")
	}
	checkHeld(t, held)
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
