// Package topology models the physical structure of a system area network:
// hosts with single-port NICs, full-crossbar switches, and full-duplex
// point-to-point links, in arbitrary topologies (SANs, unlike LANs or
// parallel-machine interconnects, support arbitrary wiring).
//
// The package also provides builders for the topologies used in the paper's
// evaluation — in particular the four-switch redundant tree of Figure 2
// (two 16-port and two 8-port full-crossbar switches) used for the dynamic
// mapping experiments of Table 3 — and mutation operations (permanent link
// and switch failures, moving a host to a different port) that drive the
// permanent-failure experiments.
package topology

import (
	"fmt"
	"strings"
)

// NodeID identifies a node (host or switch) within a Network.
type NodeID int

// None is the invalid NodeID.
const None NodeID = -1

// Kind distinguishes hosts from switches.
type Kind int

const (
	// Host is an end node: a PC with a NIC. Hosts have exactly one port.
	Host Kind = iota
	// Switch is a full-crossbar switching element. Switches have no
	// network-visible identity (as in Myrinet); mapping protocols must
	// fingerprint them by what is reachable through their ports.
	Switch
)

func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case Switch:
		return "switch"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is a host or switch. Ports are numbered 0..len(Ports)-1; a nil entry
// means the port is unwired.
type Node struct {
	ID    NodeID
	Kind  Kind
	Name  string
	Ports []*Link

	// Up is false when the node has suffered a permanent failure
	// (switches only; host failures are out of scope, per the paper).
	// Only the Network's mutators set it (KillSwitch, RestoreSwitch),
	// since they keep the usable flag of the node's links in step.
	Up bool
}

// Radix returns the number of ports on the node.
func (n *Node) Radix() int { return len(n.Ports) }

// UsedPorts returns the indices of wired ports.
func (n *Node) UsedPorts() []int {
	var ps []int
	for i, l := range n.Ports {
		if l != nil {
			ps = append(ps, i)
		}
	}
	return ps
}

// FreePort returns the lowest unwired port index, or -1 if none.
func (n *Node) FreePort() int {
	for i, l := range n.Ports {
		if l == nil {
			return i
		}
	}
	return -1
}

// Link is a full-duplex cable between two node ports.
type Link struct {
	ID   int
	A, B Endpoint
	// Up is false when the link has suffered a permanent failure or has
	// been unplugged. Only the Network's mutators set it (KillLink,
	// RestoreLink, Disconnect), since they keep usable in step.
	Up bool

	// usable caches Up && A's node up && B's node up, the one load
	// LinkUsable makes on every hop of every packet. Every mutator that
	// changes one of the three sets it (see refresh), and Clone copies it.
	usable bool
}

// Endpoint is one end of a link: a node and the port it plugs into.
type Endpoint struct {
	Node NodeID
	Port int
}

// Other returns the endpoint at the far side of the link from node id.
func (l *Link) Other(id NodeID) Endpoint {
	if l.A.Node == id {
		return l.B
	}
	return l.A
}

// Network is a SAN wiring diagram. The zero value is an empty network; use
// AddHost/AddSwitch/Connect to populate it.
type Network struct {
	Nodes []*Node
	Links []*Link
}

// New returns an empty network.
func New() *Network { return &Network{} }

// AddHost adds a host with a single NIC port and returns its ID.
func (nw *Network) AddHost(name string) NodeID {
	id := NodeID(len(nw.Nodes))
	if name == "" {
		name = fmt.Sprintf("host%d", id)
	}
	nw.Nodes = append(nw.Nodes, &Node{ID: id, Kind: Host, Name: name, Ports: make([]*Link, 1), Up: true})
	return id
}

// AddSwitch adds a full-crossbar switch with the given radix and returns
// its ID.
func (nw *Network) AddSwitch(name string, radix int) NodeID {
	if radix < 2 {
		panic(fmt.Sprintf("topology: switch radix %d < 2", radix))
	}
	id := NodeID(len(nw.Nodes))
	if name == "" {
		name = fmt.Sprintf("sw%d", id)
	}
	nw.Nodes = append(nw.Nodes, &Node{ID: id, Kind: Switch, Name: name, Ports: make([]*Link, radix), Up: true})
	return id
}

// Node returns the node with the given ID.
func (nw *Network) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(nw.Nodes) {
		panic(fmt.Sprintf("topology: no node %d", id))
	}
	return nw.Nodes[id]
}

// Hosts returns the IDs of all hosts, in ID order.
func (nw *Network) Hosts() []NodeID {
	var hs []NodeID
	for _, n := range nw.Nodes {
		if n.Kind == Host {
			hs = append(hs, n.ID)
		}
	}
	return hs
}

// Switches returns the IDs of all switches, in ID order.
func (nw *Network) Switches() []NodeID {
	var ss []NodeID
	for _, n := range nw.Nodes {
		if n.Kind == Switch {
			ss = append(ss, n.ID)
		}
	}
	return ss
}

// TrunkLinks returns the switch-to-switch links in link-ID order: the
// links fault scenarios fail by default (a host link severs its host
// outright, which the paper treats as out of scope). Link IDs are shared
// with every Clone, so an index into this list names the same link on
// any replica.
func (nw *Network) TrunkLinks() []*Link {
	var out []*Link
	for _, l := range nw.Links {
		if nw.Node(l.A.Node).Kind == Switch && nw.Node(l.B.Node).Kind == Switch {
			out = append(out, l)
		}
	}
	return out
}

// Connect wires port pa of node a to port pb of node b and returns the new
// link. It panics if either port is out of range or already wired.
func (nw *Network) Connect(a NodeID, pa int, b NodeID, pb int) *Link {
	na, nb := nw.Node(a), nw.Node(b)
	if pa < 0 || pa >= na.Radix() {
		panic(fmt.Sprintf("topology: %s has no port %d", na.Name, pa))
	}
	if pb < 0 || pb >= nb.Radix() {
		panic(fmt.Sprintf("topology: %s has no port %d", nb.Name, pb))
	}
	if na.Ports[pa] != nil {
		panic(fmt.Sprintf("topology: %s port %d already wired", na.Name, pa))
	}
	if nb.Ports[pb] != nil {
		panic(fmt.Sprintf("topology: %s port %d already wired", nb.Name, pb))
	}
	l := &Link{ID: len(nw.Links), A: Endpoint{a, pa}, B: Endpoint{b, pb}, Up: true}
	nw.Links = append(nw.Links, l)
	na.Ports[pa] = l
	nb.Ports[pb] = l
	nw.refresh(l)
	return l
}

// ConnectAny wires the lowest free ports of a and b together.
func (nw *Network) ConnectAny(a, b NodeID) *Link {
	pa, pb := nw.Node(a).FreePort(), nw.Node(b).FreePort()
	if pa < 0 || pb < 0 {
		panic(fmt.Sprintf("topology: no free ports connecting %d and %d", a, b))
	}
	return nw.Connect(a, pa, b, pb)
}

// Disconnect removes the link at node a's port pa (from both ends). The
// link object is retired (marked down and unwired) but keeps its ID.
func (nw *Network) Disconnect(a NodeID, pa int) *Link {
	na := nw.Node(a)
	l := na.Ports[pa]
	if l == nil {
		panic(fmt.Sprintf("topology: %s port %d not wired", na.Name, pa))
	}
	nw.Node(l.A.Node).Ports[l.A.Port] = nil
	nw.Node(l.B.Node).Ports[l.B.Port] = nil
	l.Up, l.usable = false, false
	return l
}

// Clone returns a deep copy of the network: fresh Node and Link objects
// with identical IDs, names, wiring, and up/down state. The parallel
// engine gives each shard its own replica, so fault mutations (KillLink,
// KillSwitch, restores) on one shard's view never race with another
// shard's route walks. Link IDs index Links on both original and clone,
// so a fault schedule expressed as link IDs applies to any replica.
func (nw *Network) Clone() *Network {
	c := &Network{
		Nodes: make([]*Node, len(nw.Nodes)),
		Links: make([]*Link, len(nw.Links)),
	}
	for i, l := range nw.Links {
		cl := *l
		c.Links[i] = &cl
	}
	for i, n := range nw.Nodes {
		cn := &Node{ID: n.ID, Kind: n.Kind, Name: n.Name, Ports: make([]*Link, len(n.Ports)), Up: n.Up}
		for p, l := range n.Ports {
			if l != nil {
				cn.Ports[p] = c.Links[l.ID]
			}
		}
		c.Nodes[i] = cn
	}
	return c
}

// KillLink marks a link permanently failed. Traffic attempting to cross it
// is dropped by the fabric.
func (nw *Network) KillLink(l *Link) { l.Up, l.usable = false, false }

// RestoreLink brings a failed (but still wired) link back up.
func (nw *Network) RestoreLink(l *Link) {
	if nw.Node(l.A.Node).Ports[l.A.Port] != l {
		panic("topology: cannot restore a disconnected link")
	}
	l.Up = true
	nw.refresh(l)
}

// KillSwitch marks a switch permanently failed; all its links are
// effectively dead while it is down.
func (nw *Network) KillSwitch(id NodeID) {
	n := nw.Node(id)
	if n.Kind != Switch {
		panic(fmt.Sprintf("topology: %s is not a switch", n.Name))
	}
	nw.setUp(n, false)
}

// RestoreSwitch brings a failed switch back up.
func (nw *Network) RestoreSwitch(id NodeID) { nw.setUp(nw.Node(id), true) }

// setUp sets node n up or down and refreshes the links wired to it.
func (nw *Network) setUp(n *Node, up bool) {
	n.Up = up
	for _, l := range n.Ports {
		if l != nil {
			nw.refresh(l)
		}
	}
}

// refresh recomputes whether l is usable: up, with both endpoint nodes up.
func (nw *Network) refresh(l *Link) {
	l.usable = l.Up && nw.Node(l.A.Node).Up && nw.Node(l.B.Node).Up
}

// LinkUsable reports whether a link can carry traffic: it must be up and
// both endpoint nodes up. It reads the flag the mutators keep, so it
// makes one load instead of two node lookups.
func (nw *Network) LinkUsable(l *Link) bool { return l != nil && l.usable }

// MoveHost unplugs host h and rewires it to port newPort of switch sw,
// modeling the paper's dynamic-reconfiguration scenario ("a node is
// re-connected to a different location of the system").
func (nw *Network) MoveHost(h NodeID, sw NodeID, newPort int) *Link {
	n := nw.Node(h)
	if n.Kind != Host {
		panic(fmt.Sprintf("topology: %s is not a host", n.Name))
	}
	if n.Ports[0] != nil {
		nw.Disconnect(h, 0)
	}
	return nw.Connect(h, 0, sw, newPort)
}

// Neighbor returns the node and entry port reached by leaving node id
// through port p, or (None, -1) if the port is unwired or unusable.
func (nw *Network) Neighbor(id NodeID, p int) (NodeID, int) {
	n := nw.Node(id)
	if p < 0 || p >= n.Radix() {
		return None, -1
	}
	l := n.Ports[p]
	if !nw.LinkUsable(l) {
		return None, -1
	}
	e := l.Other(id)
	return e.Node, e.Port
}

// Validate checks structural invariants: link endpoints reference existing
// ports, port back-references match, hosts have radix 1.
func (nw *Network) Validate() error {
	for _, n := range nw.Nodes {
		if n.Kind == Host && n.Radix() != 1 {
			return fmt.Errorf("host %s has %d ports, want 1", n.Name, n.Radix())
		}
		for p, l := range n.Ports {
			if l == nil {
				continue
			}
			if l.A != (Endpoint{n.ID, p}) && l.B != (Endpoint{n.ID, p}) {
				return fmt.Errorf("%s port %d references link %d which does not reference it back", n.Name, p, l.ID)
			}
		}
	}
	for _, l := range nw.Links {
		for _, e := range []Endpoint{l.A, l.B} {
			if e.Node < 0 || int(e.Node) >= len(nw.Nodes) {
				return fmt.Errorf("link %d references missing node %d", l.ID, e.Node)
			}
			n := nw.Nodes[e.Node]
			if e.Port < 0 || e.Port >= n.Radix() {
				return fmt.Errorf("link %d references %s port %d out of range", l.ID, n.Name, e.Port)
			}
			if n.Ports[e.Port] != l && l.Up {
				return fmt.Errorf("link %d up but unplugged from %s port %d", l.ID, n.Name, e.Port)
			}
		}
	}
	return nil
}

// String renders a compact wiring summary, one node per line.
func (nw *Network) String() string {
	var b strings.Builder
	for _, n := range nw.Nodes {
		fmt.Fprintf(&b, "%-8s %-6s", n.Name, n.Kind)
		if !n.Up {
			b.WriteString(" DOWN")
		}
		for p, l := range n.Ports {
			if l == nil {
				continue
			}
			e := l.Other(n.ID)
			status := ""
			if !l.Up {
				status = "!"
			}
			fmt.Fprintf(&b, "  p%d->%s%s", p, nw.Nodes[e.Node].Name, status)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
