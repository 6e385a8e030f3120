package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"sanft/internal/topology"
)

// referenceShortest is an independent statement of the shortest-route
// rule, kept apart from the package's one search so the tests can check
// it: a map-based BFS from a that stops when it reaches b, tries ports in
// ascending order, never lets a route transit a host, and crosses only
// usable links into up nodes.
func referenceShortest(nw *topology.Network, a, b topology.NodeID) (Route, error) {
	if a == b {
		return nil, fmt.Errorf("routing: route to self")
	}
	preds := make(map[topology.NodeID]pred)
	visited := map[topology.NodeID]bool{a: true}
	queue := []topology.NodeID{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		n := nw.Node(cur)
		if n.Kind == topology.Host && cur != a {
			continue // routes do not pass through hosts
		}
		for p := 0; p < n.Radix(); p++ {
			next, _ := nw.Neighbor(cur, p)
			if next == topology.None || visited[next] {
				continue
			}
			if !nw.Node(next).Up {
				continue
			}
			visited[next] = true
			preds[next] = pred{cur, p}
			if next == b {
				return reconstruct(nw, a, b, preds), nil
			}
			queue = append(queue, next)
		}
	}
	return nil, fmt.Errorf("%w: %s -> %s", ErrNoPath, nw.Node(a).Name, nw.Node(b).Name)
}

func reconstruct(nw *topology.Network, a, b topology.NodeID, preds map[topology.NodeID]pred) Route {
	// Collect output ports from b back to a; the port at host a (its only
	// port) is implicit and excluded.
	var ports []int
	cur := b
	for cur != a {
		pr := preds[cur]
		if nw.Node(pr.node).Kind == topology.Switch {
			ports = append(ports, pr.port)
		}
		cur = pr.node
	}
	// ports are reversed (b-side first).
	r := make(Route, len(ports))
	for i := range ports {
		r[i] = ports[len(ports)-1-i]
	}
	return r
}

type pred struct {
	node topology.NodeID
	port int
}

// referenceLevels is an independent UP*/DOWN* level assignment: each
// node's link distance from root over usable links, hosts other than the
// root never expanded. Unreached nodes are absent.
func referenceLevels(nw *topology.Network, root topology.NodeID) map[topology.NodeID]int {
	level := map[topology.NodeID]int{root: 0}
	queue := []topology.NodeID{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		n := nw.Node(cur)
		if n.Kind == topology.Host && cur != root {
			continue
		}
		for p := 0; p < n.Radix(); p++ {
			next, _ := nw.Neighbor(cur, p)
			if next == topology.None {
				continue
			}
			if _, seen := level[next]; seen {
				continue
			}
			level[next] = level[cur] + 1
			queue = append(queue, next)
		}
	}
	return level
}

// checkLevels compares NewUpDown's levels against referenceLevels on
// every switch, from every switch root and from host root h: the same
// switches reached, at the same link distance from a switch root and one
// less from a host root.
func checkLevels(t *testing.T, name string, nw *topology.Network, h topology.NodeID) {
	t.Helper()
	for _, root := range append(nw.Switches(), h) {
		ud, err := NewUpDown(nw, root)
		if err != nil {
			t.Fatal(err)
		}
		shift := 0
		if root == h {
			shift = 1
		}
		want := referenceLevels(nw, root)
		for _, sw := range nw.Switches() {
			got := ud.level[sw]
			w, ok := want[sw]
			if got.seen != ok || ok && got.hops+shift != w {
				t.Fatalf("%s: root %d: switch %d has level %+v, reference %d (reached %v)", name, root, sw, got, w, ok)
			}
		}
	}
}

// randomFabric builds a topology.Random fabric from the first bytes of b
// and kills the links and switches the rest of b names. Every switch has
// a port for each other switch, so the spanning tree always fits, and the
// average switch degree stays below 3, so a host always finds a port.
func randomFabric(b []byte) (*topology.Network, []topology.NodeID) {
	at := func(i int) int {
		if i < len(b) {
			return int(b[i])
		}
		return 0
	}
	switches := 1 + at(0)%8
	nw, hosts := topology.Random(2+at(1)%16, switches, switches+1+at(2)%4, 1+float64(at(3)%20)/10, int64(at(4)))
	sws := nw.Switches()
	for _, c := range b[min(5, len(b)):] {
		if c&1 == 0 {
			nw.KillLink(nw.Links[int(c>>1)%len(nw.Links)])
		} else {
			nw.KillSwitch(sws[int(c>>1)%len(sws)])
		}
	}
	return nw, hosts
}

// checkFabric checks every reader of the route search on one fabric
// against the references: Shortest and the table rows for every pair of
// hosts, and the UP*/DOWN* levels from every switch and the first host.
func checkFabric(t *testing.T, name string, nw *topology.Network, hosts []topology.NodeID) {
	t.Helper()
	checkTable(t, name, nw, hosts)
	checkLevels(t, name, nw, hosts[0])
}

// TestRouteSearchRandomFabrics checks the search against the references
// on 300 random fabrics, each with up to three random link or switch
// kills.
func TestRouteSearchRandomFabrics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		b := make([]byte, 5+rng.Intn(4))
		rng.Read(b)
		nw, hosts := randomFabric(b)
		checkFabric(t, fmt.Sprintf("random %x", b), nw, hosts)
	}
}

// TestUpDownRouteLevelsMatchReference checks the levels from every
// switch root and a host root on every table case, intact and degraded.
func TestUpDownRouteLevelsMatchReference(t *testing.T) {
	for _, c := range tableCases(t) {
		for _, degraded := range []bool{false, true} {
			name := c.name
			if degraded {
				name += " degraded"
				if c.trunk != nil {
					c.nw.KillLink(c.trunk)
				}
				c.nw.KillSwitch(c.sw)
			}
			checkLevels(t, name, c.nw, c.hosts[0])
		}
	}
}

// FuzzRouteSearch: on any fabric the fuzzer's bytes build and degrade,
// Shortest, the table rows and the UP*/DOWN* levels agree with the
// references.
func FuzzRouteSearch(f *testing.F) {
	for _, s := range [][]byte{
		{}, {0, 4, 0, 0, 0, 1}, {3, 9, 2, 14, 7}, {7, 15, 3, 19, 1, 4, 9},
		{5, 12, 1, 10, 3, 8, 8}, {6, 15, 0, 18, 2, 5}, {2, 3, 3, 0, 9, 2, 2, 2},
		{7, 15, 3, 19, 4}, {4, 9, 2, 15, 6, 7, 10, 13},
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		nw, hosts := randomFabric(b)
		checkFabric(t, "fuzz", nw, hosts)
	})
}
