package core

import (
	"fmt"
	"testing"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// TestDeadlockRecoveryEndToEnd exercises the paper's §4.2 claim at full
// protocol depth: the on-demand mapper installs routes with NO
// deadlock-freedom guarantee, so concurrent traffic can genuinely
// deadlock in the wormhole fabric; the Myrinet watchdog resets blocked
// paths (dropping packets) and the retransmission protocol redelivers —
// "instead of computing deadlock-free routes to avoid deadlocks, we rely
// on deadlock detection and recovery."
func TestDeadlockRecoveryEndToEnd(t *testing.T) {
	nw, hostRows := topology.Ring(4, 1)
	hosts := make([]topology.NodeID, 4)
	for i := range hosts {
		hosts[i] = hostRows[i][0]
	}
	fcfg := fabric.DefaultConfig()
	fcfg.Watchdog = time.Millisecond // fast recovery for the test
	c := New(Config{
		Net:    nw,
		Hosts:  hosts,
		FT:     true,
		Fabric: fcfg,
		Retrans: retrans.Config{
			QueueSize: 8,
			Interval:  2 * time.Millisecond,
		},
		Seed: 5,
	})
	// Replace the (deadlock-free-ish) shortest routes with deliberately
	// cyclic ones: every host routes to its 3-hop neighbour all the way
	// around the ring in the same direction.
	for i, src := range hosts {
		dst := hosts[(i+3)%4]
		route := clockwiseRoute(t, nw, src, dst, 3)
		c.NIC(src).SetRoute(dst, route)
		// The reverse direction (for acks) is the 1-hop route.
		back, err := routing.Shortest(nw, dst, src)
		if err != nil {
			t.Fatal(err)
		}
		c.NIC(dst).SetRoute(src, back)
	}

	const msgs = 6
	const msgSize = 12 * 1024 // 3 chunks each: long worms, heavy contention
	got := make(map[topology.NodeID]int)
	for i, src := range hosts {
		dst := hosts[(i+3)%4]
		src, dst := src, dst
		exp := c.Endpoint(dst).Export(fmt.Sprintf("in-%d", src), msgSize)
		c.K.Spawn(fmt.Sprintf("recv-%d", dst), func(p *sim.Proc) {
			for j := 0; j < msgs; j++ {
				exp.WaitNotification(p)
				got[dst]++
			}
		})
		c.K.Spawn(fmt.Sprintf("send-%d", src), func(p *sim.Proc) {
			imp, err := c.Endpoint(src).Import(dst, fmt.Sprintf("in-%d", src))
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < msgs; j++ {
				imp.Send(p, 0, make([]byte, msgSize), true)
			}
		})
	}
	c.RunFor(5 * time.Second)
	c.Stop()

	resets := c.Metrics().CounterTotal("fabric.watchdog_resets")
	if resets == 0 {
		t.Fatal("no watchdog resets: the route set did not deadlock, test proves nothing")
	}
	for _, h := range hosts {
		if got[h] != msgs && got[h] != 0 { // senders target 3-hop neighbours; every host is a receiver
			t.Fatalf("host %d received %d of %d messages", h, got[h], msgs)
		}
	}
	total := 0
	for _, v := range got {
		total += v
	}
	if total != 4*msgs {
		t.Fatalf("delivered %d of %d messages across deadlock recovery (resets=%d)",
			total, 4*msgs, resets)
	}
}

// clockwiseRoute builds a route crossing `hops` ring switches in
// ascending-ID order, then exiting to dst.
func clockwiseRoute(t *testing.T, nw *topology.Network, src, dst topology.NodeID, hops int) routing.Route {
	t.Helper()
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
			t.Fatalf("no clockwise hop from switch %d", cur)
		}
	}
	n := nw.Node(cur)
	for p := 0; p < n.Radix(); p++ {
		if nb, _ := nw.Neighbor(cur, p); nb == dst {
			return append(r, p)
		}
	}
	t.Fatalf("dst not on final switch")
	return nil
}

// TestDynamicReconfigurationMovedHost reproduces the paper's dynamic
// reconfiguration scenario (§4.2, and the trigger for Table 3): "a node
// is re-connected to a different location of the system and the first
// packet exchange triggers the mapping process." Traffic must resume at
// the host's new location without any application involvement.
func TestDynamicReconfigurationMovedHost(t *testing.T) {
	nw, hostRows := topology.Chain(3, 2, 2)
	var hosts []topology.NodeID
	for _, row := range hostRows {
		hosts = append(hosts, row...)
	}
	c := New(Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 10 * time.Millisecond,
		},
		Mapper: true,
		Seed:   2,
	})
	src := hostRows[0][0] // on switch 0
	dst := hostRows[0][1] // starts on switch 0, will move to switch 2
	exp := c.Endpoint(dst).Export("inbox", 4096)

	delivered := map[uint64]bool{}
	c.K.Spawn("recv", func(p *sim.Proc) {
		for len(delivered) < 12 {
			n := exp.WaitNotification(p)
			delivered[n.MsgID] = true
		}
	})
	c.K.Spawn("send", func(p *sim.Proc) {
		imp, _ := c.Endpoint(src).Import(dst, "inbox")
		for i := 0; i < 12; i++ {
			imp.Send(p, 0, make([]byte, 256), true)
			p.Sleep(400 * time.Microsecond)
		}
	})

	// Mid-run: unplug dst and re-plug it into the far switch.
	c.K.After(1*time.Millisecond, func() {
		oldLink := nw.Node(dst).Ports[0]
		c.Fab.KillLink(oldLink) // flush in-flight traffic on the cable
		sw2 := nw.Switches()[2]
		port := nw.Node(sw2).FreePort()
		nw.MoveHost(dst, sw2, port)
	})

	c.RunFor(5 * time.Second)
	c.Stop()

	if len(delivered) != 12 {
		t.Fatalf("delivered %d/12 distinct messages across the move (remaps=%d, unreachable=%d)",
			len(delivered), c.Remaps, c.Unreachables)
	}
	if c.Remaps == 0 {
		t.Fatal("no remap recorded despite the move")
	}
	// The new route must lead to switch 2.
	route, ok := c.NIC(src).Route(dst)
	if !ok {
		t.Fatal("no route after move")
	}
	res, err := routing.Walk(nw, src, route)
	if err != nil || res.Dst != dst {
		t.Fatalf("post-move route invalid: %v", err)
	}
	if len(res.Switches) != 3 {
		t.Fatalf("post-move route crosses %d switches, want 3 (src sw0 → dst sw2)", len(res.Switches))
	}
}

// TestConcurrentBidirectionalRemap kills the trunk both directions of a
// conversation depend on; both endpoints' mappers recover independently
// (no central map manager — any node can map).
func TestConcurrentBidirectionalRemap(t *testing.T) {
	nw, hosts := topology.DoubleStar(4)
	c := New(Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 8 * time.Millisecond,
		},
		Mapper: true,
		Seed:   4,
	})
	a, b := c.Host(0), c.Host(3) // opposite switches
	expA := c.Endpoint(a).Export("in", 4096)
	expB := c.Endpoint(b).Export("in", 4096)

	gotA, gotB := map[uint64]bool{}, map[uint64]bool{}
	const n = 15
	c.K.Spawn("a", func(p *sim.Proc) {
		imp, _ := c.Endpoint(a).Import(b, "in")
		for i := 0; i < n; i++ {
			imp.Send(p, 0, make([]byte, 256), true)
			p.Sleep(300 * time.Microsecond)
		}
	})
	c.K.Spawn("b", func(p *sim.Proc) {
		imp, _ := c.Endpoint(b).Import(a, "in")
		for i := 0; i < n; i++ {
			imp.Send(p, 0, make([]byte, 256), true)
			p.Sleep(300 * time.Microsecond)
		}
	})
	c.K.Spawn("ra", func(p *sim.Proc) {
		for len(gotA) < n {
			nt := expA.WaitNotification(p)
			gotA[nt.MsgID] = true
		}
	})
	c.K.Spawn("rb", func(p *sim.Proc) {
		for len(gotB) < n {
			nt := expB.WaitNotification(p)
			gotB[nt.MsgID] = true
		}
	})

	// Kill the trunk both initial routes use (shortest ties resolve the
	// same way for both directions: the first trunk).
	routeAB, _ := c.NIC(a).Route(b)
	c.K.After(800*time.Microsecond, func() {
		sw := nw.Switches()[0]
		c.Fab.KillLink(nw.Node(sw).Ports[routeAB[0]])
	})

	c.RunFor(5 * time.Second)
	c.Stop()

	if len(gotA) != n || len(gotB) != n {
		t.Fatalf("delivered a=%d b=%d of %d each (remaps=%d)", len(gotA), len(gotB), n, c.Remaps)
	}
	if c.Remaps == 0 {
		t.Fatal("no remaps despite trunk failure")
	}
}
