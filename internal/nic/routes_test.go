package nic

import (
	"math/rand"
	"testing"
	"time"

	"sanft/internal/routing"
	"sanft/internal/topology"
)

// TestRouteTableMatchesMapReference drives a NIC's routing table through
// install, SetRoute, RemoveRoute, ResetPath and MarkUnreachable alongside
// a reference map[NodeID]Route with the old map semantics (a nil route is
// a present, empty one). After every step Route, Destinations and the
// timer-scan cost must agree with the reference, and no route the NIC
// ever held may have had its ports rewritten.
func TestRouteTableMatchesMapReference(t *testing.T) {
	r := newRig(t, 6, func(int) Options { return ftOpts(8, time.Millisecond) })
	defer r.k.Stop()
	self := r.hosts[0]
	n := r.nics[self]
	nw := r.fab.Network()

	row := routing.NewTable(nw, r.hosts).Row(self)
	ref := map[topology.NodeID]routing.Route{}
	type held struct {
		r    routing.Route
		want []int
	}
	var seen []held
	remember := func(rt routing.Route) {
		seen = append(seen, held{rt, append([]int(nil), rt...)})
	}

	n.InstallRoutes(row, r.hosts)
	for d, rt := range row {
		if rt != nil {
			ref[topology.NodeID(d)] = rt
			remember(rt)
		}
	}
	beyond := topology.NodeID(len(row) + 3)
	check := func(step string) {
		t.Helper()
		for d := topology.NodeID(-1); d <= beyond+1; d++ {
			got, ok := n.Route(d)
			want, wantOK := ref[d]
			if ok != wantOK || !got.Equal(want) || (ok && got == nil) {
				t.Fatalf("%s: Route(%d) = %v, %v; reference %v, %v", step, d, got, ok, want, wantOK)
			}
		}
		var dsts []topology.NodeID
		for d := topology.NodeID(0); d <= beyond+1; d++ {
			if _, ok := ref[d]; ok {
				dsts = append(dsts, d)
			}
		}
		got := n.Destinations()
		if len(got) != len(dsts) {
			t.Fatalf("%s: Destinations() = %v, reference %v", step, got, dsts)
		}
		for i := range got {
			if got[i] != dsts[i] {
				t.Fatalf("%s: Destinations() = %v, reference %v", step, got, dsts)
			}
		}
		if want := n.cost.TimerScanCost + time.Duration(len(ref))*n.cost.TimerPerDestCost; n.scanCost() != want {
			t.Fatalf("%s: timer scan costs %v, want %v (%d destinations)", step, n.scanCost(), want, len(ref))
		}
		for _, h := range seen {
			if !h.r.Equal(h.want) {
				t.Fatalf("%s: a held route was rewritten in place: %v, built as %v", step, h.r, h.want)
			}
		}
	}
	check("install")
	if got := n.Destinations(); len(got) != len(r.hosts)-1 {
		t.Fatalf("installed %d destinations, want every other host (%d)", len(got), len(r.hosts)-1)
	}

	set := func(step string, d topology.NodeID, rt routing.Route, reset bool) {
		t.Helper()
		if reset {
			n.ResetPath(d, rt)
		} else {
			n.SetRoute(d, rt)
		}
		if rt == nil {
			rt = routing.Route{}
		}
		ref[d] = rt
		remember(rt)
		check(step)
	}
	remove := func(step string, d topology.NodeID, unreachable bool) {
		t.Helper()
		if unreachable {
			n.MarkUnreachable(d)
		} else {
			n.RemoveRoute(d)
		}
		delete(ref, d)
		check(step)
	}

	peer := r.hosts[2]
	set("nil route", peer, nil, false)
	if row[peer] == nil || len(row[peer]) != 0 {
		t.Fatalf("the adopted row holds %v for %d, want the installed empty route: the NIC copied its row", row[peer], peer)
	}
	set("zero-hop route", r.hosts[3], routing.Route{}, false)
	set("own ID", self, routing.Route{0}, false)
	set("ID beyond the row", beyond, routing.Route{4, 1}, false)
	remove("remove own ID", self, false)
	remove("remove twice", self, false)
	remove("remove beyond the row", beyond+1, false)
	set("reset path", peer, routing.Route{2}, true)
	remove("mark unreachable", peer, true)
	set("reinstall", peer, routing.Route{2}, false)

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		d := topology.NodeID(rng.Intn(int(beyond) + 2))
		switch op := rng.Intn(5); op {
		case 0, 1:
			var rt routing.Route
			if k := rng.Intn(4); k > 0 {
				rt = make(routing.Route, k-1)
				for j := range rt {
					rt[j] = rng.Intn(8)
				}
			}
			set("random set", d, rt, op == 1)
		case 2, 3:
			remove("random remove", d, op == 3)
		case 4:
			fresh := routing.NewTable(nw, r.hosts).Row(self)
			n.InstallRoutes(fresh, r.hosts)
			clear(ref)
			for d, rt := range fresh {
				if rt != nil {
					ref[topology.NodeID(d)] = rt
					remember(rt)
				}
			}
			check("random install")
		}
	}
}
