package routing

import (
	"sanft/internal/topology"
)

// This file provides multi-path route computation for ECMP-style route
// sets: greedy link-disjoint route enumeration and an exact max-flow
// bound, which the topology builders' structural tests assert against.

// DisjointRoutes returns up to k routes from host a to host b whose
// switch-to-switch links are pairwise disjoint (the two NIC links are
// necessarily shared), shortest first. Routes are found greedily: each
// successive BFS excludes every fabric link used by earlier routes, so the
// result is
// deterministic (same tie-breaks as Shortest) and each route is a shortest
// path in the residual topology. Greedy search can find fewer than the
// true maximum on adversarial graphs; callers that need the exact bound
// use MaxEdgeDisjoint.
func DisjointRoutes(nw *topology.Network, a, b topology.NodeID, k int) []Route {
	var routes []Route
	used := make(map[int]bool) // link IDs consumed by earlier routes
	for len(routes) < k {
		r, ok := shortestExcluding(nw, a, b, used)
		if !ok {
			break
		}
		res, err := Walk(nw, a, r)
		if err != nil || res.Dst != b {
			break
		}
		// Mark the switch-to-switch links the route crosses. The two NIC
		// links are shared by every a→b route by construction (hosts have
		// one port), so they never count against disjointness.
		for i, sw := range res.Switches {
			l := nw.Node(sw).Ports[r[i]]
			if l.Other(sw).Node != b {
				used[l.ID] = true
			}
		}
		routes = append(routes, r)
	}
	return routes
}

// shortestExcluding is Shortest with a link exclusion set (switch-to-switch
// links only; NIC links are never excluded).
func shortestExcluding(nw *topology.Network, a, b topology.NodeID, used map[int]bool) (Route, bool) {
	if a == b {
		return nil, false
	}
	preds := make(map[topology.NodeID]pred)
	visited := map[topology.NodeID]bool{a: true}
	queue := []topology.NodeID{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		n := nw.Node(cur)
		if n.Kind == topology.Host && cur != a {
			continue
		}
		for p := 0; p < n.Radix(); p++ {
			l := n.Ports[p]
			if l == nil || !nw.LinkUsable(l) {
				continue
			}
			if used[l.ID] {
				continue
			}
			e := l.Other(cur)
			next := e.Node
			if visited[next] || !nw.Node(next).Up {
				continue
			}
			visited[next] = true
			preds[next] = pred{cur, p}
			if next == b {
				return reconstruct(nw, a, b, preds), true
			}
			queue = append(queue, next)
		}
	}
	return nil, false
}

// MaxEdgeDisjoint returns the exact maximum number of link-disjoint paths
// between hosts a and b (Menger's theorem), computed as a unit-capacity
// max flow with BFS augmentation (Edmonds-Karp). Each undirected link is a
// capacity-1 edge; intermediate hosts cannot relay. Since both endpoints
// are single-port hosts the answer is capped at 1 by their NIC links
// unless counted on the switch fabric alone — so the flow is computed
// between the switches the two hosts attach to, which is the quantity the
// fat-tree/dragonfly/torus structural tests assert (fabric path
// diversity, not NIC fan-out).
func MaxEdgeDisjoint(nw *topology.Network, a, b topology.NodeID) int {
	sa, _ := nw.Neighbor(a, 0)
	sb, _ := nw.Neighbor(b, 0)
	if sa == topology.None || sb == topology.None {
		return 0
	}
	if sa == sb {
		// Same edge switch: fabric diversity is not in play; the only
		// path constraint is the crossbar itself.
		return 1
	}
	// Residual capacity per (link, direction): flow[l.ID] is +1 when a
	// unit flows A→B on the link, -1 for B→A, 0 when unused.
	flow := make(map[int]int)
	total := 0
	for {
		// BFS for an augmenting path sa → sb over switches only.
		type hop struct {
			node topology.NodeID
			port int
		}
		preds := make(map[topology.NodeID]hop)
		visited := map[topology.NodeID]bool{sa: true}
		queue := []topology.NodeID{sa}
		found := false
		for len(queue) > 0 && !found {
			cur := queue[0]
			queue = queue[1:]
			n := nw.Node(cur)
			for p := 0; p < n.Radix(); p++ {
				l := n.Ports[p]
				if l == nil || !nw.LinkUsable(l) {
					continue
				}
				// Direction of this traversal on the link.
				dir := 1
				if l.B.Node == cur {
					dir = -1
				}
				// Residual: capacity 1 each way, net flow cancels.
				if flow[l.ID]*dir >= 1 {
					continue
				}
				e := l.Other(cur)
				next := e.Node
				if visited[next] || nw.Node(next).Kind != topology.Switch || !nw.Node(next).Up {
					continue
				}
				visited[next] = true
				preds[next] = hop{cur, p}
				if next == sb {
					found = true
					break
				}
				queue = append(queue, next)
			}
		}
		if !found {
			return total
		}
		// Augment one unit along the path.
		cur := sb
		for cur != sa {
			h := preds[cur]
			l := nw.Node(h.node).Ports[h.port]
			if l.A.Node == h.node {
				flow[l.ID]++
			} else {
				flow[l.ID]--
			}
			cur = h.node
		}
		total++
	}
}
