// Package routing implements source routing for system area networks.
//
// A route is the list of output ports a packet names at each switch it
// crosses (Myrinet-style: the entire route travels in the packet header and
// each switch consumes one byte). The package provides:
//
//   - Walk: deterministic traversal of a route over a topology, recording
//     the port by which the packet enters each node.
//   - Shortest: the BFS shortest route between two hosts over usable
//     links, a view of the one search the Table runs. These routes need
//     not be deadlock-free: the retransmission protocol recovers from
//     deadlock.
//   - Table/ShortestFrom: the same shortest routes between every pair of a
//     cluster's hosts, built once with one search per source, which is
//     what the NICs of a freshly mapped cluster start with; ShortestFrom
//     is the map view of one row.
//   - UpDown: the UP*/DOWN* deadlock-free routing baseline used by
//     conventional full-map schemes (Autonet, Myrinet mapper), oriented
//     by the levels of the same search.
//   - DeadlockFree: a channel-dependency-graph cycle check, the oracle for
//     the claim that UP*/DOWN* route sets are deadlock-free and that
//     unconstrained shortest-route sets on cyclic topologies are not.
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
	// entered Dst. DeadlockFree finds the links crossed from these.
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

// Shortest returns a BFS shortest route from host a to host b over usable
// links, or ErrNoPath: the route the Table holds for the pair. Ties break
// toward lower port numbers, so the result is deterministic. The returned
// route is not necessarily deadlock-free in combination with other routes.
func Shortest(nw *topology.Network, a, b topology.NodeID) (Route, error) {
	if a == b {
		return nil, fmt.Errorf("routing: route to self")
	}
	s := newSearch(nw)
	s.from(a)
	if !s.steps[b].seen {
		return nil, fmt.Errorf("%w: %s -> %s", ErrNoPath, nw.Node(a).Name, nw.Node(b).Name)
	}
	return s.routeTo(b, make(Route, s.steps[b].hops)), nil
}

// step is one node's BFS record: how the search first reached it.
type step struct {
	from topology.NodeID // predecessor node
	port int             // output port taken at from
	hops int             // switches crossed from the source: the route length
	seen bool
}

// search is the package's one shortest-route search, which Shortest, the
// Table, ShortestFrom and UpDown's levels all read: a single-source BFS
// that tries ports in ascending order, never lets a route transit a host,
// and crosses only the links Neighbor finds usable (a down link, or one
// with a down endpoint, is not). Its per-node records are indexed by node
// ID and reused across sources.
type search struct {
	nw    *topology.Network
	steps []step
	queue []topology.NodeID
}

func newSearch(nw *topology.Network) *search {
	n := len(nw.Nodes)
	return &search{nw: nw, steps: make([]step, n), queue: make([]topology.NodeID, 0, n)}
}

// from runs the search from a.
func (s *search) from(a topology.NodeID) {
	clear(s.steps)
	s.steps[a].seen = true
	q := append(s.queue[:0], a)
	for i := 0; i < len(q); i++ {
		cur := q[i]
		n := s.nw.Node(cur)
		if n.Kind == topology.Host && cur != a {
			continue // routes do not pass through hosts
		}
		hops := s.steps[cur].hops
		if n.Kind == topology.Switch {
			hops++
		}
		for p := 0; p < n.Radix(); p++ {
			next, _ := s.nw.Neighbor(cur, p)
			if next == topology.None || s.steps[next].seen {
				continue
			}
			s.steps[next] = step{from: cur, port: p, hops: hops, seen: true}
			q = append(q, next)
		}
	}
	s.queue = q
}

// routeTo fills r, which holds exactly the hops of b's step, with the
// route the last search found to b, and returns it: one port per switch
// crossed, walking back from b (a host source's own port is implicit).
func (s *search) routeTo(b topology.NodeID, r Route) Route {
	cur := b
	for i := len(r) - 1; i >= 0; i-- {
		st := s.steps[cur]
		r[i] = st.port
		cur = st.from
	}
	return r
}

// hostsOf returns sorted host IDs for deterministic iteration.
func hostsOf(nw *topology.Network) []topology.NodeID {
	hs := nw.Hosts()
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}
