package topology

import (
	"fmt"
	"math/rand"
	"testing"
)

// referenceUsable is the rule LinkUsable's flag caches, read from the
// fields themselves.
func referenceUsable(nw *Network, l *Link) bool {
	return l != nil && l.Up && nw.Node(l.A.Node).Up && nw.Node(l.B.Node).Up
}

// checkUsable compares LinkUsable with the reference for nil and every
// link of nw.
func checkUsable(t *testing.T, nw *Network, what string) {
	t.Helper()
	if nw.LinkUsable(nil) {
		t.Fatalf("%s: a nil link is usable", what)
	}
	for _, l := range nw.Links {
		if got, want := nw.LinkUsable(l), referenceUsable(nw, l); got != want {
			t.Fatalf("%s: link %d (%d-%d) usable %v, want %v", what, l.ID, l.A.Node, l.B.Node, got, want)
		}
	}
}

// wired reports whether l is still plugged in at both ends.
func wired(nw *Network, l *Link) bool {
	return nw.Node(l.A.Node).Ports[l.A.Port] == l && nw.Node(l.B.Node).Ports[l.B.Port] == l
}

// freePorts returns the (node, port) pairs of nodes of kind k with a free
// port.
func freePorts(nw *Network, k Kind) []Endpoint {
	var out []Endpoint
	for _, n := range nw.Nodes {
		if n.Kind == k {
			if p := n.FreePort(); p >= 0 {
				out = append(out, Endpoint{n.ID, p})
			}
		}
	}
	return out
}

// mutate applies one random mutator to nw and says which.
func mutate(rng *rand.Rand, nw *Network) string {
	switches := nw.Switches()
	for {
		switch rng.Intn(7) {
		case 0:
			l := nw.Links[rng.Intn(len(nw.Links))]
			nw.KillLink(l)
			return fmt.Sprintf("KillLink(%d)", l.ID)
		case 1:
			l := nw.Links[rng.Intn(len(nw.Links))]
			if wired(nw, l) {
				nw.RestoreLink(l)
				return fmt.Sprintf("RestoreLink(%d)", l.ID)
			}
		case 2:
			s := switches[rng.Intn(len(switches))]
			nw.KillSwitch(s)
			return fmt.Sprintf("KillSwitch(%d)", s)
		case 3:
			s := switches[rng.Intn(len(switches))]
			nw.RestoreSwitch(s)
			return fmt.Sprintf("RestoreSwitch(%d)", s)
		case 4:
			n := nw.Nodes[rng.Intn(len(nw.Nodes))]
			if ps := n.UsedPorts(); len(ps) > 0 {
				p := ps[rng.Intn(len(ps))]
				nw.Disconnect(n.ID, p)
				return fmt.Sprintf("Disconnect(%d, %d)", n.ID, p)
			}
		case 5:
			free := freePorts(nw, Switch)
			if len(free) >= 2 {
				a, b := free[rng.Intn(len(free))], free[rng.Intn(len(free))]
				if a.Node != b.Node {
					nw.Connect(a.Node, a.Port, b.Node, b.Port)
					return fmt.Sprintf("Connect(%d, %d)", a.Node, b.Node)
				}
			}
		case 6:
			hosts, free := nw.Hosts(), freePorts(nw, Switch)
			if len(hosts) > 0 && len(free) > 0 {
				h, s := hosts[rng.Intn(len(hosts))], free[rng.Intn(len(free))]
				nw.MoveHost(h, s.Node, s.Port)
				return fmt.Sprintf("MoveHost(%d, %d:%d)", h, s.Node, s.Port)
			}
		}
	}
}

// TestLinkUsableMatchesReference: on random networks and every builder,
// random steps of every mutator, and clones mutated apart from their
// originals, LinkUsable's one load agrees with the rule it caches after
// every step.
func TestLinkUsableMatchesReference(t *testing.T) {
	builders := []struct {
		name  string
		build func() *Network
	}{
		{"star", func() *Network { nw, _ := Star(5); return nw }},
		{"chain", func() *Network { nw, _ := Chain(3, 2, 2); return nw }},
		{"ring", func() *Network { nw, _ := Ring(4, 2); return nw }},
		{"fig2", func() *Network { return NewFig2().Net }},
		{"doublestar", func() *Network { nw, _ := DoubleStar(6); return nw }},
		{"fattree", func() *Network { return FatTree(4).Net }},
		{"dragonfly", func() *Network { return Dragonfly(2, 1, 1).Net }},
		{"torus", func() *Network { return Torus(1, 3, 3).Net }},
	}
	for seed := int64(1); seed <= 8; seed++ {
		builders = append(builders, struct {
			name  string
			build func() *Network
		}{fmt.Sprintf("random%d", seed), func() *Network {
			nw, _ := Random(6, 5, 6, 2.5, seed)
			return nw
		}})
	}
	for i, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			nets := []*Network{b.build()}
			checkUsable(t, nets[0], "built")
			for step := 0; step < 300; step++ {
				if rng.Intn(20) == 0 && len(nets) < 4 {
					nets = append(nets, nets[rng.Intn(len(nets))].Clone())
					checkUsable(t, nets[len(nets)-1], fmt.Sprintf("step %d: Clone", step))
					continue
				}
				j := rng.Intn(len(nets))
				what := fmt.Sprintf("step %d, network %d: %s", step, j, mutate(rng, nets[j]))
				for _, nw := range nets {
					checkUsable(t, nw, what)
				}
			}
		})
	}
}
