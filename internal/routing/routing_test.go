package routing

import (
	"errors"
	"testing"
	"testing/quick"

	"sanft/internal/topology"
)

func TestWalkStar(t *testing.T) {
	nw, hosts := topology.Star(3)
	// host0 -> switch port 1 -> host1.
	res, err := Walk(nw, hosts[0], Route{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dst != hosts[1] {
		t.Fatalf("walk ended at %d, want host1 %d", res.Dst, hosts[1])
	}
	if len(res.Switches) != 1 {
		t.Fatalf("crossed %d switches, want 1", len(res.Switches))
	}
}

func TestWalkErrors(t *testing.T) {
	nw, hosts := topology.Star(3)
	if _, err := Walk(nw, hosts[0], Route{}); err == nil {
		t.Fatal("route exhausted at switch should fail")
	}
	if _, err := Walk(nw, hosts[0], Route{1, 0}); err == nil {
		t.Fatal("leftover hops at a host should fail")
	}
	if _, err := Walk(nw, hosts[0], Route{7}); err == nil {
		t.Fatal("unwired port should fail")
	}
	// Down link en route.
	nw.KillLink(nw.Node(hosts[1]).Ports[0])
	if _, err := Walk(nw, hosts[0], Route{1}); !errors.Is(err, ErrNoPath) {
		t.Fatalf("walk over dead link: err = %v, want ErrNoPath", err)
	}
}

func TestShortestLengths(t *testing.T) {
	nw, hosts := topology.Chain(4, 1, 1)
	for i := 1; i < 4; i++ {
		r, err := Shortest(nw, hosts[0][0], hosts[i][0])
		if err != nil {
			t.Fatal(err)
		}
		if len(r) != i+1 {
			t.Fatalf("route to switch-%d host has %d hops, want %d", i, len(r), i+1)
		}
		res, err := Walk(nw, hosts[0][0], r)
		if err != nil || res.Dst != hosts[i][0] {
			t.Fatalf("shortest route does not reach target: %v (dst %d)", err, res.Dst)
		}
	}
}

func TestShortestAvoidsDeadLink(t *testing.T) {
	nw, hosts := topology.DoubleStar(4)
	a, b := hosts[0], hosts[3] // opposite switches
	r1, err := Shortest(nw, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the trunk link the route uses.
	res, _ := Walk(nw, a, r1)
	link := nw.Node(res.Switches[0]).Ports[r1[0]]
	nw.KillLink(link)
	r2, err := Shortest(nw, a, b)
	if err != nil {
		t.Fatalf("no alternate route found: %v", err)
	}
	if r2.Equal(r1) {
		t.Fatal("route unchanged after killing its trunk link")
	}
	if res2, err := Walk(nw, a, r2); err != nil || res2.Dst != b {
		t.Fatalf("alternate route invalid: %v", err)
	}
}

func TestShortestUnreachable(t *testing.T) {
	nw, hosts := topology.Star(2)
	nw.KillLink(nw.Node(hosts[1]).Ports[0])
	if _, err := Shortest(nw, hosts[0], hosts[1]); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestShortestHops(t *testing.T) {
	f := topology.NewFig2()
	for i, want := range []int{1, 2, 3, 4} {
		if r, err := Shortest(f.Net, f.Mapper, f.Targets[i]); err != nil || len(r) != want {
			t.Fatalf("Shortest(mapper, target%d) = %v, %v; want %d hops", i, r, err, want)
		}
	}
	nw, hosts := topology.Star(2)
	nw.KillSwitch(nw.Switches()[0])
	if _, err := Shortest(nw, hosts[0], hosts[1]); !errors.Is(err, ErrNoPath) {
		t.Fatalf("Shortest through dead switch: err = %v, want ErrNoPath", err)
	}
}

func TestUpDownRoutesWalk(t *testing.T) {
	f := topology.NewFig2()
	ud, err := NewUpDown(f.Net, topology.None)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ud.AllRoutes()
	if err != nil {
		t.Fatal(err)
	}
	hosts := f.Net.Hosts()
	wantPairs := len(hosts) * (len(hosts) - 1)
	if len(all) != wantPairs {
		t.Fatalf("got %d routes, want %d", len(all), wantPairs)
	}
	for pair, r := range all {
		res, err := Walk(f.Net, pair[0], r)
		if err != nil {
			t.Fatalf("route %v for %v does not walk: %v", r, pair, err)
		}
		if res.Dst != pair[1] {
			t.Fatalf("route for %v ends at %d", pair, res.Dst)
		}
	}
}

func TestUpDownDeadlockFree(t *testing.T) {
	// On a ring (cyclic topology) UP*/DOWN* routes must be deadlock-free
	// while naive shortest routes need not be.
	nw, hosts := topology.Ring(4, 1)
	ud, err := NewUpDown(nw, topology.None)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ud.AllRoutes()
	if err != nil {
		t.Fatal(err)
	}
	var routes []SourcedRoute
	for pair, r := range all {
		routes = append(routes, SourcedRoute{pair[0], r})
	}
	ok, err := DeadlockFree(nw, routes)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("UP*/DOWN* route set has a cyclic channel dependency")
	}
	_ = hosts
}

func TestManualCycleIsDetected(t *testing.T) {
	// Construct routes that go all the way around the ring in one
	// direction from each switch's host: a textbook channel-dependency
	// cycle.
	nw, hosts := topology.Ring(4, 1)
	var routes []SourcedRoute
	for i := 0; i < 4; i++ {
		src := hosts[i][0]
		dst := hosts[(i+3)%4][0] // 3 hops clockwise
		r := clockwiseRoute(t, nw, src, dst, 3)
		routes = append(routes, SourcedRoute{src, r})
	}
	ok, err := DeadlockFree(nw, routes)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("cyclic route set reported deadlock-free")
	}
}

// clockwiseRoute builds a route from src that crosses `hops` switches
// always moving to the next ring switch in ascending order, then exits to
// the host.
func clockwiseRoute(t *testing.T, nw *topology.Network, src, dst topology.NodeID, hops int) Route {
	t.Helper()
	var r Route
	cur, _ := nw.Neighbor(src, 0) // the switch src hangs off
	for i := 0; i < hops; i++ {
		n := nw.Node(cur)
		// Find the port leading to the next switch (ascending ID, wrap).
		next := topology.None
		port := -1
		for p := 0; p < n.Radix(); p++ {
			nb, _ := nw.Neighbor(cur, p)
			if nb == topology.None || nw.Node(nb).Kind != topology.Switch {
				continue
			}
			// next ring switch: ID = cur+1 mod: switches have IDs 0..3.
			if (nb == cur+1) || (cur == 3 && nb == 0) {
				next, port = nb, p
				break
			}
		}
		if next == topology.None {
			t.Fatalf("no clockwise neighbor from switch %d", cur)
		}
		r = append(r, port)
		cur = next
	}
	// Exit to dst.
	n := nw.Node(cur)
	for p := 0; p < n.Radix(); p++ {
		if nb, _ := nw.Neighbor(cur, p); nb == dst {
			return append(r, p)
		}
	}
	t.Fatalf("dst %d not on switch %d", dst, cur)
	return nil
}

func TestUpDownAvoidsDownSwitch(t *testing.T) {
	f := topology.NewFig2()
	// Killing S1 disconnects S2/S3 from S0 (chain backbone), so routes
	// from mapper to targets 2 and 3 must fail, but target 0 (same
	// switch) must still work. Rebuild UP*/DOWN* after the failure, as a
	// full-remap scheme would.
	f.Net.KillSwitch(f.Switches[1])
	ud, err := NewUpDown(f.Net, topology.None)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ud.Route(f.Mapper, f.Targets[0]); err != nil {
		t.Fatalf("same-switch route should survive: %v", err)
	}
	if _, err := ud.Route(f.Mapper, f.Targets[2]); err == nil {
		t.Fatal("route across dead backbone switch should fail")
	}
}

func TestRouteCloneEqual(t *testing.T) {
	r := Route{1, 2, 3}
	c := r.Clone()
	if !r.Equal(c) {
		t.Fatal("clone not equal")
	}
	c[0] = 9
	if r[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if r.Equal(Route{1, 2}) || r.Equal(Route{1, 2, 4}) {
		t.Fatal("Equal false positives")
	}
}

func TestPropertyShortestWalksEverywhere(t *testing.T) {
	// On random connected topologies, Shortest between any two hosts
	// must produce a route that walks to the destination.
	f := func(seed int64, ai, bi uint8) bool {
		nw, hosts := topology.Random(8, 4, 8, 3.0, seed)
		if len(hosts) < 2 {
			return true
		}
		a := hosts[int(ai)%len(hosts)]
		b := hosts[int(bi)%len(hosts)]
		if a == b {
			return true
		}
		r, err := Shortest(nw, a, b)
		if err != nil {
			return false
		}
		res, err := Walk(nw, a, r)
		return err == nil && res.Dst == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUpDownAlwaysDeadlockFree(t *testing.T) {
	f := func(seed int64) bool {
		nw, hosts := topology.Random(6, 4, 8, 3.2, seed)
		if len(hosts) < 2 {
			return true
		}
		ud, err := NewUpDown(nw, topology.None)
		if err != nil {
			return false
		}
		all, err := ud.AllRoutes()
		if err != nil {
			return false
		}
		var routes []SourcedRoute
		for pair, r := range all {
			routes = append(routes, SourcedRoute{pair[0], r})
		}
		ok, err := DeadlockFree(nw, routes)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
