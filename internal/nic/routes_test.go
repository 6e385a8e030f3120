package nic

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"sanft/internal/routing"
	"sanft/internal/topology"
)

// sameRoute reports whether a and b are one route: the same slice
// header, not merely equal ports.
func sameRoute(a, b routing.Route) bool {
	return len(a) == len(b) && (a == nil) == (b == nil) && (len(a) == 0 || &a[0] == &b[0])
}

// TestRouteTableMatchesMapReference drives a NIC's routing table through
// install, SetRoute, RemoveRoute, ResetPath and MarkUnreachable alongside
// a reference map[NodeID]Route with the old map semantics (a nil route is
// a present, empty one). Installing a row ignores the NIC's own entry,
// which in a star's shared row is the switch's route back to the NIC.
// After every step Route, Destinations and the timer-scan cost must
// agree with the reference, no route the NIC ever held may have had its
// ports rewritten, and no row the NIC adopted may have been written.
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

	type adopted struct{ row, was []routing.Route }
	var rows []adopted
	install := func(row []routing.Route) {
		n.InstallRoutes(row, r.hosts)
		rows = append(rows, adopted{row, slices.Clone(row)})
		clear(ref)
		for d, rt := range row {
			if rt != nil && topology.NodeID(d) != self {
				ref[topology.NodeID(d)] = rt
				remember(rt)
			}
		}
	}
	install(row)
	if row[self] == nil {
		t.Fatal("the star's row holds no entry for the NIC's own host: it is not the switch's shared row")
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
		for _, a := range rows {
			for d := range a.row {
				if !sameRoute(a.row[d], a.was[d]) {
					t.Fatalf("%s: an adopted row was written: entry %d is %v, was %v", step, d, a.row[d], a.was[d])
				}
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
	if n.shared || &n.routes[0] == &row[0] {
		t.Fatal("the NIC wrote a route without copying its adopted row first")
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
			install(routing.NewTable(nw, r.hosts).Row(self))
			check("random install")
		}
	}
}
