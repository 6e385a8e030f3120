package topology_test

import (
	"fmt"
	"strings"
	"testing"

	"sanft/internal/topology"
)

// The scale-tier structural suite: every builder size is checked against
// closed-form host/switch/link counts, radix bounds, trunk-set purity,
// construction determinism, and — via an exact max-flow bound — the
// fabric's edge-disjoint path diversity between host pairs.

type builtCase struct {
	name     string
	build    func() *topology.Built
	hosts    int
	switches int
	links    int
	radix    int // expected switch radix (0 = skip exact check)
	// disjoint is the expected max-flow (edge-disjoint fabric paths)
	// between the first and last host, which the builders place as far
	// apart as the fabric allows.
	disjoint int
}

func viaSpec(spec string) func() *topology.Built {
	return func() *topology.Built {
		b, err := topology.ParseSpec(spec)
		if err != nil {
			panic(err)
		}
		return b
	}
}

func builderCases() []builtCase {
	var cases []builtCase
	// Fat-tree k: k³/4 hosts, 5k²/4 switches of radix k (all ports
	// wired), k³/4 NIC + k³/2 trunk links, k/2 edge-disjoint fabric paths.
	for _, k := range []int{2, 4, 8, 16} {
		cases = append(cases, builtCase{
			name:     fmt.Sprintf("fattree:%d", k),
			build:    viaSpec(fmt.Sprintf("fattree:%d", k)),
			hosts:    k * k * k / 4,
			switches: 5 * k * k / 4,
			links:    3 * k * k * k / 4,
			radix:    k,
			disjoint: k / 2,
		})
	}
	// Dragonfly a,p,h: g = a·h+1 groups, g·a routers of radix p+(a-1)+h
	// (all ports wired), g·a·p hosts, full local meshes plus one global
	// link per group pair; fabric diversity equals the router's fabric
	// degree (a-1)+h.
	for _, c := range [][3]int{{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {8, 4, 4}} {
		a, p, h := c[0], c[1], c[2]
		g := a*h + 1
		cases = append(cases, builtCase{
			name:     fmt.Sprintf("dragonfly:%d,%d,%d", a, p, h),
			build:    viaSpec(fmt.Sprintf("dragonfly:%d,%d,%d", a, p, h)),
			hosts:    g * a * p,
			switches: g * a,
			links:    g*a*p + g*a*(a-1)/2 + g*(g-1)/2,
			radix:    p + (a - 1) + h,
			disjoint: (a - 1) + h,
		})
	}
	// Torus hp,dims: ∏dims switches of radix hp+2n, one +1-direction link
	// per switch per dimension (wraparound closes each ring; size-2 dims
	// double up), 2n edge-disjoint fabric paths between distinct switches.
	for _, c := range [][]int{{1, 2, 2}, {2, 4, 3}, {1, 2, 3, 4}, {4, 16, 16}} {
		hp, dims := c[0], c[1:]
		n := 1
		spec := fmt.Sprintf("torus:%d", hp)
		for _, d := range dims {
			n *= d
			spec += fmt.Sprintf(",%d", d)
		}
		cases = append(cases, builtCase{
			name:     spec,
			build:    viaSpec(spec),
			hosts:    hp * n,
			switches: n,
			links:    hp*n + n*len(dims),
			radix:    hp + 2*len(dims),
			disjoint: 2 * len(dims),
		})
	}
	return cases
}

func TestBuilderStructure(t *testing.T) {
	for _, tc := range builderCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			b := tc.build()
			nw := b.Net
			if err := nw.Validate(); err != nil {
				t.Fatalf("invalid network: %v", err)
			}
			if got := len(b.Hosts); got != tc.hosts {
				t.Errorf("hosts = %d, want %d", got, tc.hosts)
			}
			if got := len(nw.Hosts()); got != tc.hosts {
				t.Errorf("network hosts = %d, want %d", got, tc.hosts)
			}
			if got := len(nw.Switches()); got != tc.switches {
				t.Errorf("switches = %d, want %d", got, tc.switches)
			}
			if got := len(nw.Links); got != tc.links {
				t.Errorf("links = %d, want %d", got, tc.links)
			}
			// Trunks must be exactly the switch-to-switch links, each once.
			wantTrunks := tc.links - tc.hosts
			if got := len(b.Trunks); got != wantTrunks {
				t.Errorf("trunks = %d, want %d", got, wantTrunks)
			}
			seen := make(map[int]bool)
			for _, l := range b.Trunks {
				if seen[l.ID] {
					t.Errorf("trunk link %d listed twice", l.ID)
				}
				seen[l.ID] = true
				if nw.Node(l.A.Node).Kind != topology.Switch ||
					nw.Node(l.B.Node).Kind != topology.Switch {
					t.Errorf("trunk link %d touches a host", l.ID)
				}
			}
			// Radix bounds: every switch has the advertised radix and every
			// port of these regular fabrics is wired.
			for _, sw := range nw.Switches() {
				n := nw.Node(sw)
				if tc.radix != 0 && n.Radix() != tc.radix {
					t.Fatalf("switch %s radix = %d, want %d", n.Name, n.Radix(), tc.radix)
				}
				if used := len(n.UsedPorts()); used != n.Radix() {
					t.Fatalf("switch %s wires %d of %d ports", n.Name, used, n.Radix())
				}
			}
		})
	}
}

// maxEdgeDisjoint returns the exact maximum number of link-disjoint paths
// between hosts a and b (Menger's theorem), computed as a unit-capacity
// max flow with BFS augmentation (Edmonds-Karp). Each undirected link is a
// capacity-1 edge; intermediate hosts cannot relay. Since both endpoints
// are single-port hosts the answer is capped at 1 by their NIC links
// unless counted on the switch fabric alone — so the flow is computed
// between the switches the two hosts attach to, which is the quantity the
// fat-tree/dragonfly/torus structural tests assert (fabric path
// diversity, not NIC fan-out).
func maxEdgeDisjoint(nw *topology.Network, a, b topology.NodeID) int {
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

// TestBuilderPathDiversity asserts the fabric's edge-disjoint path count
// between far-apart host pairs via an exact max-flow (Edmonds-Karp) check.
func TestBuilderPathDiversity(t *testing.T) {
	for _, tc := range builderCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			b := tc.build()
			if len(b.Hosts) < 2 {
				t.Skip("single-host fabric")
			}
			a, z := b.Hosts[0], b.Hosts[len(b.Hosts)-1]
			if got := maxEdgeDisjoint(b.Net, a, z); got != tc.disjoint {
				t.Errorf("max-flow %s..%s = %d, want %d",
					b.Net.Node(a).Name, b.Net.Node(z).Name, got, tc.disjoint)
			}
		})
	}
}

// TestBuilderDeterminism: same parameters, byte-identical wiring.
func TestBuilderDeterminism(t *testing.T) {
	for _, tc := range builderCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.build(), tc.build()
			if a.Net.String() != b.Net.String() {
				t.Fatal("two builds of the same spec differ")
			}
			if a.Desc != b.Desc {
				t.Fatalf("descriptions differ: %q vs %q", a.Desc, b.Desc)
			}
		})
	}
}

// TestBuilderRandomFullParents: the random builder's spanning tree skips
// a drawn parent that has no free port, so switches outnumbering their
// radix still build a valid, connected fabric, and a radix no tree fits
// panics saying so. Seeds 0–99 of this shape panicked at 46 seeds when
// the tree connected to the drawn parent unconditionally.
func TestBuilderRandomFullParents(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		nw, hosts := topology.Random(8, 8, 3, 2.0, seed)
		if err := nw.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sws := nw.Switches()
		seen := map[topology.NodeID]bool{sws[0]: true}
		for q := []topology.NodeID{sws[0]}; len(q) > 0; q = q[1:] {
			for p := range nw.Node(q[0]).Ports {
				if m, _ := nw.Neighbor(q[0], p); m != topology.None && !seen[m] {
					seen[m] = true
					q = append(q, m)
				}
			}
		}
		if len(seen) != len(sws)+len(hosts) {
			t.Fatalf("seed %d: %d of %d nodes reachable from switch 0", seed, len(seen), len(sws)+len(hosts))
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "connect 3 switches of radix 1") {
			t.Fatalf("radix 1, 3 switches: panic %q", msg)
		}
	}()
	topology.Random(0, 3, 1, 1.0, 1)
}

// TestFatTreeHandle spot-checks the structural handle's link classes.
func TestFatTreeHandle(t *testing.T) {
	f := topology.FatTree(4)
	if len(f.PodHosts) != 4 || len(f.PodHosts[0]) != 4 {
		t.Fatalf("pod hosts = %dx%d, want 4x4", len(f.PodHosts), len(f.PodHosts[0]))
	}
	if got := len(f.PodUplinks(3)); got != 4 {
		t.Errorf("pod 3 uplinks = %d, want 4 (k/2 aggs × k/2 cores)", got)
	}
	if got := len(f.EdgeUplinks(0)); got != 4 {
		t.Errorf("pod 0 edge uplinks = %d, want 4", got)
	}
	// Cutting all of pod 0's agg→core uplinks must disconnect pod 0's
	// hosts from pod 1's at the fabric level, and only then.
	a, z := f.PodHosts[0][0], f.PodHosts[1][0]
	if maxEdgeDisjoint(f.Net, a, z) == 0 {
		t.Fatal("pods disconnected before the cut")
	}
	for _, l := range f.PodUplinks(0) {
		f.Net.KillLink(l)
	}
	if got := maxEdgeDisjoint(f.Net, a, z); got != 0 {
		t.Errorf("pod 0 still reaches pod 1 over %d paths after losing every uplink", got)
	}
	if got := maxEdgeDisjoint(f.Net, f.PodHosts[0][0], f.PodHosts[0][3]); got == 0 {
		t.Error("intra-pod connectivity lost by cutting inter-pod uplinks")
	}
}

// TestDragonflyHandle spot-checks group indexing and the global link map.
func TestDragonflyHandle(t *testing.T) {
	d := topology.Dragonfly(4, 2, 2)
	if d.Groups != 9 {
		t.Fatalf("groups = %d, want a·h+1 = 9", d.Groups)
	}
	for i := 0; i < d.Groups; i++ {
		for j := i + 1; j < d.Groups; j++ {
			if d.GlobalLink(i, j) == nil {
				t.Fatalf("groups %d,%d share no global link", i, j)
			}
			if d.GlobalLink(i, j) != d.GlobalLink(j, i) {
				t.Fatalf("GlobalLink not symmetric for %d,%d", i, j)
			}
		}
	}
	if got := len(d.GlobalLinks(0)); got != d.Groups-1 {
		t.Errorf("group 0 global links = %d, want %d", got, d.Groups-1)
	}
	if got := len(d.LocalLinks(0)); got != 6 {
		t.Errorf("group 0 local links = %d, want a(a-1)/2 = 6", got)
	}
	// Per-router global port budget must balance at h.
	counts := make(map[topology.NodeID]int)
	for i := 0; i < d.Groups; i++ {
		for j := i + 1; j < d.Groups; j++ {
			l := d.GlobalLink(i, j)
			counts[l.A.Node]++
			counts[l.B.Node]++
		}
	}
	for r, n := range counts {
		if n != d.H {
			t.Errorf("router %s carries %d global links, want h = %d", d.Net.Node(r).Name, n, d.H)
		}
	}
}

// TestTorusHandle spot-checks coordinate indexing and dimension links.
func TestTorusHandle(t *testing.T) {
	tr := topology.Torus(2, 3, 4)
	if got := len(tr.Switches); got != 12 {
		t.Fatalf("switches = %d, want 12", got)
	}
	if tr.At(2, 3) != tr.Switches[11] {
		t.Error("At(2,3) is not the row-major last switch")
	}
	if got := len(tr.HostsAt(1, 2)); got != 2 {
		t.Errorf("hosts at (1,2) = %d, want 2", got)
	}
	for d, want := range []int{12, 12} {
		if got := len(tr.DimLinks(d)); got != want {
			t.Errorf("dim %d links = %d, want %d", d, got, want)
		}
	}
	// A size-2 dimension doubles its links: each wrap pair is joined twice.
	tr2 := topology.Torus(1, 2, 2)
	if got := len(tr2.TrunkLinks()); got != 8 {
		t.Errorf("2x2 torus trunks = %d, want 8 (doubled rings)", got)
	}
}

// TestParseSpecErrors: unusable specs must be readable errors, not panics.
func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"", "fattree", "fattree:", "fattree:3", "fattree:0", "fattree:4,4",
		"dragonfly:4", "dragonfly:0,1,1", "dragonfly:1,1,x",
		"torus:4", "torus:4,1,4", "torus:0,2,2",
		"clos:8", "mesh",
	} {
		if _, err := topology.ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad spec", spec)
		}
	}
	b, err := topology.ParseSpec("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Handle.(*topology.FatTreeNet); !ok {
		t.Errorf("fattree handle is %T", b.Handle)
	}
}
