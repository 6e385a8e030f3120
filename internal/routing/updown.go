package routing

import (
	"fmt"
	"sort"

	"sanft/internal/topology"
)

// UpDown implements the UP*/DOWN* deadlock-free routing algorithm
// (Autonet; used by the stock Myrinet mapper). A breadth-first spanning
// tree is built from a root switch; every link is oriented so that its
// "up" end is the endpoint closer to the root (ties break toward the lower
// node ID). A legal route consists of zero or more up-direction hops
// followed by zero or more down-direction hops; such route sets cannot
// create cyclic channel dependencies, so they are deadlock-free — at the
// cost of generally not being shortest paths and concentrating traffic
// near the root.
type UpDown struct {
	nw *topology.Network
	// level is a search from the root: a node's level is its hops, and
	// one the search never reached has none. From a switch root the hops
	// are every node's link distance; from a host root every switch's is
	// one less. isUp compares levels only between switches, so the shift
	// orients no link differently.
	level []step
}

// NewUpDown builds UP*/DOWN* orientation over the usable part of the
// network. If root is topology.None, the lowest-ID up switch is used (or
// the lowest-ID host in a switchless network).
func NewUpDown(nw *topology.Network, root topology.NodeID) (*UpDown, error) {
	if root == topology.None {
		for _, n := range nw.Nodes {
			if n.Kind == topology.Switch && n.Up {
				root = n.ID
				break
			}
		}
		if root == topology.None && len(nw.Nodes) > 0 {
			root = nw.Nodes[0].ID
		}
	}
	if root == topology.None {
		return nil, fmt.Errorf("routing: empty network")
	}
	s := newSearch(nw)
	s.from(root)
	return &UpDown{nw: nw, level: s.steps}, nil
}

// isUp reports whether traversing from node a to node b is an up-direction
// hop: b is strictly closer to the root, or equally close with a lower ID.
func (ud *UpDown) isUp(a, b topology.NodeID) bool {
	la, lb := ud.level[a], ud.level[b]
	if !la.seen || !lb.seen {
		return false
	}
	if la.hops != lb.hops {
		return lb.hops < la.hops
	}
	return b < a
}

// Route returns an UP*/DOWN*-legal route from host a to host b: a shortest
// route among legal ones (BFS over the (node, descended) state space), or
// ErrNoPath. Host→switch hops count as up; switch→host hops as down.
func (ud *UpDown) Route(a, b topology.NodeID) (Route, error) {
	if a == b {
		return nil, fmt.Errorf("routing: route to self")
	}
	type state struct {
		node      topology.NodeID
		descended bool
	}
	type stPred struct {
		st   state
		port int
	}
	start := state{a, false}
	preds := make(map[state]stPred)
	visited := map[state]bool{start: true}
	queue := []state{start}
	var goal state
	found := false
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		n := ud.nw.Node(cur.node)
		if n.Kind == topology.Host && cur.node != a {
			continue
		}
		for p := 0; p < n.Radix(); p++ {
			next, _ := ud.nw.Neighbor(cur.node, p)
			if next == topology.None || !ud.nw.Node(next).Up {
				continue
			}
			up := ud.isUp(cur.node, next)
			// Hops into a host are always "down" legs (hosts are leaves).
			if ud.nw.Node(next).Kind == topology.Host {
				up = false
			}
			// Hops out of the source host are always "up" legs.
			if cur.node == a {
				up = true
			}
			if cur.descended && up {
				continue // up after down is illegal
			}
			ns := state{next, cur.descended || !up}
			if visited[ns] {
				continue
			}
			visited[ns] = true
			preds[ns] = stPred{cur, p}
			if next == b {
				goal, found = ns, true
				break
			}
			queue = append(queue, ns)
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: %s -> %s (up*/down*)", ErrNoPath, ud.nw.Node(a).Name, ud.nw.Node(b).Name)
	}
	// Reconstruct output ports at switches.
	var ports []int
	cur := goal
	for cur != (state{a, false}) {
		pr, ok := preds[cur]
		if !ok {
			break
		}
		if ud.nw.Node(pr.st.node).Kind == topology.Switch {
			ports = append(ports, pr.port)
		}
		cur = pr.st
	}
	r := make(Route, len(ports))
	for i := range ports {
		r[i] = ports[len(ports)-1-i]
	}
	return r, nil
}

// AllRoutes computes UP*/DOWN* routes between every ordered pair of hosts.
// This is what a conventional full-map scheme computes after (re)mapping
// the whole network.
func (ud *UpDown) AllRoutes() (map[[2]topology.NodeID]Route, error) {
	hosts := hostsOf(ud.nw)
	out := make(map[[2]topology.NodeID]Route, len(hosts)*(len(hosts)-1))
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			r, err := ud.Route(a, b)
			if err != nil {
				return nil, err
			}
			out[[2]topology.NodeID{a, b}] = r
		}
	}
	return out, nil
}

// SourcedRoute pairs a route with its source host, as needed for
// dependency analysis.
type SourcedRoute struct {
	Src   topology.NodeID
	Route Route
}

// channel is a directed use of a link.
type channel struct {
	link int
	from topology.NodeID
}

// DeadlockFree builds the channel dependency graph induced by the given
// route set and reports whether it is acyclic. Routes that fail to walk are
// an error: dependency analysis on broken routes is meaningless.
func DeadlockFree(nw *topology.Network, routes []SourcedRoute) (bool, error) {
	deps := make(map[channel]map[channel]bool)
	addDep := func(a, b channel) {
		if deps[a] == nil {
			deps[a] = make(map[channel]bool)
		}
		deps[a][b] = true
	}
	for _, sr := range routes {
		res, err := Walk(nw, sr.Src, sr.Route)
		if err != nil {
			return false, fmt.Errorf("routing: route %v from %s: %v", sr.Route, nw.Node(sr.Src).Name, err)
		}
		// Channels crossed: src->sw0, sw0->sw1, ..., swN->dst.
		path := append([]topology.NodeID{sr.Src}, res.Switches...)
		path = append(path, res.Dst)
		var chans []channel
		for i := 0; i+1 < len(path); i++ {
			l := linkBetweenVia(nw, path[i], res, i)
			chans = append(chans, channel{l, path[i]})
		}
		for i := 0; i+1 < len(chans); i++ {
			addDep(chans[i], chans[i+1])
		}
	}
	// Cycle detection via iterative DFS with colors.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[channel]int)
	var nodes []channel
	for c := range deps {
		nodes = append(nodes, c)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].link != nodes[j].link {
			return nodes[i].link < nodes[j].link
		}
		return nodes[i].from < nodes[j].from
	})
	var visit func(c channel) bool
	visit = func(c channel) bool {
		color[c] = gray
		for d := range deps[c] {
			switch color[d] {
			case gray:
				return false
			case white:
				if !visit(d) {
					return false
				}
			}
		}
		color[c] = black
		return true
	}
	for _, c := range nodes {
		if color[c] == white {
			if !visit(c) {
				return false, nil
			}
		}
	}
	return true, nil
}

// linkBetweenVia returns the link ID crossed leaving the i-th node of a
// walked path.
func linkBetweenVia(nw *topology.Network, from topology.NodeID, res WalkResult, i int) int {
	// The entry port of node i+1 identifies the link.
	var enteredNode topology.NodeID
	if i < len(res.Switches) {
		enteredNode = res.Switches[i]
	} else {
		enteredNode = res.Dst
	}
	entryPort := res.EntryPorts[i]
	return nw.Node(enteredNode).Ports[entryPort].ID
}
