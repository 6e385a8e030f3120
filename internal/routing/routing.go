// Package routing implements source routing for system area networks.
//
// A route is the list of output ports a packet names at each switch it
// crosses (Myrinet-style: the entire route travels in the packet header and
// each switch consumes one byte). The package provides:
//
//   - Walk/Reverse: deterministic traversal of a route over a topology,
//     and computation of the return route from the entry ports observed —
//     exactly what mapping probes rely on.
//   - Shortest: plain BFS shortest-path routes, used by the on-demand
//     mapper (which does NOT need deadlock-free routes, because the
//     retransmission protocol recovers from deadlock).
//   - Table: the same shortest routes between every pair of a cluster's
//     hosts, built once with one search per source, which is what the
//     NICs of a freshly mapped cluster start with.
//   - UpDown: the UP*/DOWN* deadlock-free routing baseline used by
//     conventional full-map schemes (Autonet, Myrinet mapper).
//   - DeadlockFree: a channel-dependency-graph cycle check, used to verify
//     that UP*/DOWN* route sets are deadlock-free and that unconstrained
//     shortest-path route sets on cyclic topologies are not.
package routing

import (
	"errors"
	"fmt"
	"sort"

	"sanft/internal/topology"
)

// Route is a source route: the output port taken at each successive switch.
// The sending host's own injection (its single NIC port) is implicit, as is
// final delivery into the destination host.
type Route []int

// Clone returns a copy of the route.
func (r Route) Clone() Route {
	c := make(Route, len(r))
	copy(c, r)
	return c
}

// Equal reports whether two routes are identical.
func (r Route) Equal(o Route) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i] != o[i] {
			return false
		}
	}
	return true
}

func (r Route) String() string {
	return fmt.Sprint([]int(r))
}

// ErrNoPath reports that a walk or search failed.
var ErrNoPath = errors.New("routing: no path")

// WalkResult describes the outcome of tracing a route across a topology.
type WalkResult struct {
	// Dst is the node where the packet ends up.
	Dst topology.NodeID
	// EntryPorts[i] is the port by which the packet entered the i-th
	// switch on the path; the final element is the port by which it
	// entered Dst. Reversing a route uses these.
	EntryPorts []int
	// Switches lists the switches crossed, in order.
	Switches []topology.NodeID
}

// Walk traces route r from host src. It fails if the route runs off an
// unwired/down link, dead-ends inside a switch (route exhausted before
// reaching a host), or has leftover hops after reaching a host.
func Walk(nw *topology.Network, src topology.NodeID, r Route) (WalkResult, error) {
	var res WalkResult
	n := nw.Node(src)
	if n.Kind != topology.Host {
		return res, fmt.Errorf("routing: walk source %s is not a host", n.Name)
	}
	cur, entry := nw.Neighbor(src, 0)
	if cur == topology.None {
		return res, fmt.Errorf("%w: %s NIC link down", ErrNoPath, n.Name)
	}
	for i := 0; ; i++ {
		node := nw.Node(cur)
		if !node.Up {
			return res, fmt.Errorf("%w: %s is down", ErrNoPath, node.Name)
		}
		res.EntryPorts = append(res.EntryPorts, entry)
		if node.Kind == topology.Host {
			if i < len(r) {
				return res, fmt.Errorf("%w: route has %d leftover hops at host %s", ErrNoPath, len(r)-i, node.Name)
			}
			res.Dst = cur
			return res, nil
		}
		res.Switches = append(res.Switches, cur)
		if i >= len(r) {
			return res, fmt.Errorf("%w: route exhausted at switch %s", ErrNoPath, node.Name)
		}
		next, nextEntry := nw.Neighbor(cur, r[i])
		if next == topology.None {
			return res, fmt.Errorf("%w: %s port %d unusable", ErrNoPath, node.Name, r[i])
		}
		cur, entry = next, nextEntry
	}
}

// Reverse computes the route from the destination of (src, r) back to src,
// using the entry ports recorded by a successful walk. Probe replies travel
// on reversed routes.
func Reverse(nw *topology.Network, src topology.NodeID, r Route) (Route, error) {
	res, err := Walk(nw, src, r)
	if err != nil {
		return nil, err
	}
	// Entry ports at switches, reversed, form the return route.
	nSw := len(res.Switches)
	rev := make(Route, nSw)
	for i := 0; i < nSw; i++ {
		rev[i] = res.EntryPorts[nSw-1-i]
	}
	return rev, nil
}

// Shortest returns a BFS shortest route from host a to host b over usable
// links, or ErrNoPath. Ties break toward lower port numbers, so the result
// is deterministic. The returned route is not necessarily deadlock-free in
// combination with other routes.
func Shortest(nw *topology.Network, a, b topology.NodeID) (Route, error) {
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

// HopCount returns the number of switches on the shortest path between two
// hosts, or -1 if unreachable.
func HopCount(nw *topology.Network, a, b topology.NodeID) int {
	r, err := Shortest(nw, a, b)
	if err != nil {
		return -1
	}
	return len(r)
}

// hostsOf returns sorted host IDs for deterministic iteration.
func hostsOf(nw *topology.Network) []topology.NodeID {
	hs := nw.Hosts()
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}
