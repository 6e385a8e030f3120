package routing

import "sanft/internal/topology"

// Table holds the BFS shortest route from every host of a cluster to
// every other, built once. Hosts attached to one switch share one row,
// built by one search from that switch; any other host (for example one
// whose link or switch is down) has a row of its own. Each row is indexed by
// destination node ID; each of its routes is a capacity-capped window
// into one port block sized exactly for that row, so appending to a
// route never writes into its neighbour.
type Table struct {
	rows [][]Route // indexed by source node ID; nil for non-sources
}

// NewTable computes the shortest route between every ordered pair of
// distinct hosts — the same routes Shortest returns pair by pair, at one
// O(nodes+links) search per switch with hosts attached (see Row) and
// one per other host. Destinations outside hosts and hosts the source
// cannot reach have no route (nil).
func NewTable(nw *topology.Network, hosts []topology.NodeID) *Table {
	width := 0
	for _, h := range hosts {
		width = max(width, int(h)+1)
	}
	t := &Table{rows: make([][]Route, len(nw.Nodes))}
	s := newSearch(nw)
	// Hosts never transit, so a search from a host's switch reaches every
	// other node exactly as a search from the host does: one row serves
	// every host attached to that switch.
	bySwitch := make([][]Route, len(nw.Nodes))
	for _, a := range hosts {
		sw := attachedTo(nw, a)
		if sw == topology.None {
			t.rows[a] = s.row(a, hosts, width)
			continue
		}
		if bySwitch[sw] == nil {
			bySwitch[sw] = s.row(sw, hosts, width)
		}
		t.rows[a] = bySwitch[sw]
	}
	return t
}

// attachedTo returns the switch host a's one link leads to over a usable
// link, or None.
func attachedTo(nw *topology.Network, a topology.NodeID) topology.NodeID {
	sw, _ := nw.Neighbor(a, 0)
	if sw == topology.None || nw.Node(sw).Kind != topology.Switch {
		return topology.None
	}
	return sw
}

// Row returns host a's routes indexed by destination node ID (nil entries
// have no route; IDs at or beyond len(row) have none either). The row is
// the table's own storage, handed out without a copy and shared by every
// host attached to a's switch: a caller must not write it. row[a] is not
// a route of a: in a shared row it is the switch's one-hop route back to
// a, the route the other members take to reach it.
func (t *Table) Row(a topology.NodeID) []Route { return t.rows[a] }

// ShortestFrom returns BFS shortest routes from host a to every other
// reachable host of the network, keyed by destination — the map view of
// one Table row.
func ShortestFrom(nw *topology.Network, a topology.NodeID) map[topology.NodeID]Route {
	hosts := nw.Hosts()
	row := newSearch(nw).row(a, hosts, len(nw.Nodes))
	routes := make(map[topology.NodeID]Route, len(hosts))
	for _, h := range hosts {
		if row[h] != nil {
			routes[h] = row[h]
		}
	}
	return routes
}

// row searches from a (a host, or a switch whose attached hosts share
// the row) and returns its routes to dsts in a row of the given width.
// All of the row's ports share one block, counted before it is
// allocated, so the block is exactly the size of what it holds.
func (s *search) row(a topology.NodeID, dsts []topology.NodeID, width int) []Route {
	s.from(a)
	total := 0
	for _, b := range dsts {
		if b != a && s.steps[b].seen {
			total += s.steps[b].hops
		}
	}
	block := make([]int, total)
	row := make([]Route, width)
	for _, b := range dsts {
		if b == a || !s.steps[b].seen {
			continue
		}
		h := s.steps[b].hops
		row[b] = s.routeTo(b, block[:h:h])
		block = block[h:]
	}
	return row
}
