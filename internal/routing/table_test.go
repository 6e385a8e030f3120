package routing

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"sanft/internal/topology"
)

// tableCase is one network to check the route table on.
type tableCase struct {
	name  string
	nw    *topology.Network
	hosts []topology.NodeID
	// trunk and sw are a switch-to-switch link and a switch to fail for
	// the degraded variant.
	trunk *topology.Link
	sw    topology.NodeID
}

func tableCases(t *testing.T) []tableCase {
	t.Helper()
	var cs []tableCase
	star, starHosts := topology.Star(5)
	cs = append(cs, tableCase{name: "star", nw: star, hosts: starHosts, sw: star.Switches()[0]})
	f := topology.NewFig2()
	cs = append(cs, tableCase{name: "fig2", nw: f.Net, hosts: f.Net.Hosts(),
		trunk: f.Net.Node(f.Switches[1]).Ports[0], sw: f.Switches[2]})
	// A host node with a second port bridging the ends of a chain: routes
	// must take the chain, since hosts never transit. It is no member,
	// because the members' shared rows rest on hosts having one port.
	chain, rows := topology.Chain(4, 1, 1)
	sws := chain.Switches()
	bridge := chain.AddSwitch("bridge", 2)
	chain.Node(bridge).Kind = topology.Host
	chain.ConnectAny(bridge, sws[0])
	chain.ConnectAny(bridge, sws[3])
	cs = append(cs, tableCase{name: "bridging host", nw: chain,
		hosts: []topology.NodeID{rows[0][0], rows[1][0], rows[2][0], rows[3][0]},
		trunk: chain.Node(sws[1]).Ports[1], sw: sws[2]})
	for _, spec := range []string{"fattree:4", "dragonfly:4,2,2", "torus:2,4,4", "fattree:16"} {
		b, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, tableCase{name: spec, nw: b.Net, hosts: b.Hosts,
			trunk: b.Trunks[len(b.Trunks)/2], sw: b.Net.Switches()[len(b.Net.Switches())/3]})
	}
	return cs
}

// sample returns every host of a small fabric, or n spread evenly over a
// large one (per-pair referenceShortest is the slow side of the
// comparison).
func sample(hosts []topology.NodeID, n int) []topology.NodeID {
	if len(hosts) <= 128 {
		return hosts
	}
	out := make([]topology.NodeID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, hosts[i*len(hosts)/n])
	}
	return out
}

// checkTable compares a table built over members, and Shortest, against
// per-pair referenceShortest: every pair of distinct hosts on a small
// fabric, 32 sources by 128 destinations on fattree:16. Table pairs into
// hosts outside members must have no route. A source's own entry is not
// one of its routes, so it is left to checkSharing.
func checkTable(t *testing.T, name string, nw *topology.Network, members []topology.NodeID) {
	t.Helper()
	tab := NewTable(nw, members)
	in := map[topology.NodeID]bool{}
	for _, h := range members {
		in[h] = true
	}
	dsts := sample(nw.Hosts(), 128)
	for _, a := range sample(members, 32) {
		row := tab.Row(a)
		for _, b := range dsts {
			if a == b {
				continue
			}
			var got Route
			if int(b) < len(row) {
				got = row[b]
			}
			want, err := referenceShortest(nw, a, b)
			short, serr := Shortest(nw, a, b)
			if err != nil && !errors.Is(serr, ErrNoPath) || err == nil && (serr != nil || !short.Equal(want)) {
				t.Fatalf("%s: Shortest %d->%d = %v, %v; reference %v, %v", name, a, b, short, serr, want, err)
			}
			if !in[b] || err != nil {
				if got != nil {
					t.Fatalf("%s: %d->%d has route %v, want none", name, a, b, got)
				}
				continue
			}
			if got == nil || !got.Equal(want) {
				t.Fatalf("%s: %d->%d table route %v, reference %v", name, a, b, got, want)
			}
		}
	}
	checkSharing(t, name, nw, tab, members)
}

// checkSharing checks which members share a row: those whose one link
// leads over a usable link to a switch hold that switch's row, whose
// entry for each of them is the switch's one-hop route back to it; any
// other member holds a row of its own.
func checkSharing(t *testing.T, name string, nw *topology.Network, tab *Table, members []topology.NodeID) {
	t.Helper()
	rowOf := map[topology.NodeID]*Route{} // switch (or lone host) -> its row
	keyOf := map[*Route]topology.NodeID{} // row -> its switch (or lone host)
	for _, a := range members {
		row := tab.Row(a)
		key := a
		if sw, _ := nw.Neighbor(a, 0); sw != topology.None && nw.Node(sw).Kind == topology.Switch {
			key = sw
			if r := row[a]; len(r) != 1 {
				t.Fatalf("%s: shared row of switch %d holds %v for member %d, want one hop", name, sw, r, a)
			} else if back, _ := nw.Neighbor(sw, r[0]); back != a {
				t.Fatalf("%s: switch %d port %d leads to %d, not back to member %d", name, sw, r[0], back, a)
			}
		} else if row[a] != nil {
			t.Fatalf("%s: host %d has its own row, with route %v to itself", name, a, row[a])
		}
		id := &row[0]
		if prev, ok := rowOf[key]; ok && prev != id {
			t.Fatalf("%s: host %d holds another row than the other hosts of %d", name, a, key)
		}
		if prev, ok := keyOf[id]; ok && prev != key {
			t.Fatalf("%s: host %d (of %d) shares its row with the hosts of %d", name, a, key, prev)
		}
		rowOf[key], keyOf[id] = id, key
	}
}

// TestTableMatchesShortest checks the table and Shortest against
// referenceShortest on every builder and on a chain that a host bridges,
// intact, with one trunk link and one switch failed before the build, and
// over a host subset.
func TestTableMatchesShortest(t *testing.T) {
	for _, c := range tableCases(t) {
		checkTable(t, c.name, c.nw, c.hosts)
		var subset []topology.NodeID
		for i, h := range c.hosts {
			if i%3 != 1 {
				subset = append(subset, h)
			}
		}
		checkTable(t, c.name+" subset", c.nw, subset)
		if c.trunk != nil {
			c.nw.KillLink(c.trunk)
		}
		c.nw.KillSwitch(c.sw)
		checkTable(t, c.name+" degraded", c.nw, c.hosts)
	}
}

// TestShortestFromIsTableRow: the map view returns exactly the table row's
// routes, keyed by destination.
func TestShortestFromIsTableRow(t *testing.T) {
	b, err := topology.ParseSpec("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(b.Net, b.Hosts)
	for _, a := range b.Hosts {
		m := ShortestFrom(b.Net, a)
		if len(m) != len(b.Hosts)-1 {
			t.Fatalf("ShortestFrom(%d) has %d routes, want %d", a, len(m), len(b.Hosts)-1)
		}
		for dst, r := range m {
			if !r.Equal(tab.Row(a)[dst]) {
				t.Fatalf("ShortestFrom(%d)[%d] = %v, table %v", a, dst, r, tab.Row(a)[dst])
			}
		}
	}
}

// TestTableRoutesAreCapped: every route is capacity-capped, so appending
// to one (which is what route extension does) reallocates instead of
// writing into the neighbouring route's ports in the shared block.
func TestTableRoutesAreCapped(t *testing.T) {
	b, err := topology.ParseSpec("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(b.Net, b.Hosts)
	for _, a := range b.Hosts {
		row := tab.Row(a)
		before := make([]Route, len(row))
		for d, r := range row {
			before[d] = r.Clone()
		}
		for d, r := range row {
			if r == nil {
				continue
			}
			if cap(r) != len(r) {
				t.Fatalf("%d->%d: route has cap %d > len %d", a, d, cap(r), len(r))
			}
			ext := append(r, -1)
			ext[len(ext)-1] = -2
		}
		for d, r := range row {
			if !r.Equal(before[d]) {
				t.Fatalf("%d->%d: route changed to %v after appending to its neighbours (was %v)", a, d, r, before[d])
			}
		}
	}
}

// TestTableBuildAllocs pins the table's allocation shape on fattree:8: a
// fixed setup (the table, its row index, the per-switch row index and
// the reused search state) plus exactly two allocations per row — the
// row and its one port block. The hosts of one edge switch share a row,
// so 2, 16 and 128 hosts make 1, 4 and 32 rows. The map-based search
// the table replaced made thousands per source.
func TestTableBuildAllocs(t *testing.T) {
	b, err := topology.ParseSpec("fattree:8")
	if err != nil {
		t.Fatal(err)
	}
	// A collection allocates a few runtime objects of its own, which would
	// count against whichever run it lands in, so none runs while the
	// allocations are counted.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const setup, perRow = 5, 2
	for _, c := range []struct{ hosts, rows int }{{2, 1}, {16, 4}, {len(b.Hosts), 32}} {
		hosts := b.Hosts[:c.hosts]
		got := testing.AllocsPerRun(10, func() { NewTable(b.Net, hosts) })
		if want := float64(setup + perRow*c.rows); got != want {
			t.Errorf("NewTable over %d hosts: %v allocs, want %v (%d + %d per row, %d rows)", c.hosts, got, want, setup, perRow, c.rows)
		}
	}
}

// TestTableFatTree16Allocs pins what the table keeps live on fattree:16:
// its 1,024 hosts, 8 behind each of 128 edge switches, hold 128 distinct
// rows in at most 12 MB. One row per host held about 75 MB.
func TestTableFatTree16Allocs(t *testing.T) {
	b, err := topology.ParseSpec("fattree:16")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := NewTable(b.Net, b.Hosts)
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	rows := map[*Route]bool{}
	for _, h := range b.Hosts {
		rows[&tab.Row(h)[0]] = true
	}
	if len(rows) != 128 {
		t.Errorf("NewTable over %d hosts built %d distinct rows, want 128 (one per edge switch)", len(b.Hosts), len(rows))
	}
	const limit = 12 << 20
	if live > limit {
		t.Errorf("the table keeps %.1f MB live, want at most %d MB", float64(live)/(1<<20), limit>>20)
	}
}
