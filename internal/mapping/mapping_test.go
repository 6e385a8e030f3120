package mapping

import (
	"testing"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/nic"
	"sanft/internal/proto"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// rig builds a network with NICs on every host (FT on) and a mapper on the
// first host. No routes are pre-installed unless install is true.
type rig struct {
	k     *sim.Kernel
	fab   *fabric.Fabric
	nw    *topology.Network
	hosts []topology.NodeID
	nics  map[topology.NodeID]*nic.NIC
	rx    map[topology.NodeID][]*proto.Frame
}

func newRig(t *testing.T, nw *topology.Network, hosts []topology.NodeID, install bool) *rig {
	t.Helper()
	k := sim.New(1)
	fab := fabric.New(k, nw, fabric.DefaultConfig())
	r := &rig{k: k, fab: fab, nw: nw, hosts: hosts,
		nics: make(map[topology.NodeID]*nic.NIC),
		rx:   make(map[topology.NodeID][]*proto.Frame)}
	for _, h := range hosts {
		h := h
		r.nics[h] = nic.New(k, fab, h, nic.Options{
			FT:      true,
			Retrans: retrans.Config{QueueSize: 16, Interval: time.Millisecond},
			OnDeliver: func(f *proto.Frame) {
				// A copy: a delivered frame is let go of once OnDeliver
				// returns, and a pooled one goes back to its list then.
				r.rx[h] = append(r.rx[h], f.Clone())
			},
		})
	}
	if install {
		for _, a := range hosts {
			for _, b := range hosts {
				if a == b {
					continue
				}
				rt, err := routing.Shortest(nw, a, b)
				if err != nil {
					t.Fatal(err)
				}
				r.nics[a].SetRoute(b, rt)
			}
		}
	}
	return r
}

func TestMapToSameSwitch(t *testing.T) {
	nw, hosts := topology.Star(4)
	r := newRig(t, nw, hosts, false)
	m := New(r.k, r.nics[hosts[0]], Config{MaxRadix: 8})
	var fwd routing.Route
	var st Stats
	var ok bool
	r.k.Spawn("mapper", func(p *sim.Proc) {
		fwd, _, st, ok = m.MapTo(p, hosts[2])
	})
	r.k.RunFor(5 * time.Second)
	r.k.Stop()
	if !ok {
		t.Fatalf("target not found; stats %+v", st)
	}
	res, err := routing.Walk(nw, hosts[0], fwd)
	if err != nil || res.Dst != hosts[2] {
		t.Fatalf("mapped route %v invalid: %v -> %d", fwd, err, res.Dst)
	}
	if st.SwitchProbes == 0 {
		t.Fatal("self-scan should cost switch probes")
	}
	if st.HostProbes == 0 {
		t.Fatal("no host probes recorded")
	}
	if st.SwitchesFound != 1 {
		t.Fatalf("switches found = %d, want 1", st.SwitchesFound)
	}
}

func TestMapToAcrossSwitches(t *testing.T) {
	f := topology.NewFig2()
	hosts := f.Net.Hosts()
	r := newRig(t, f.Net, hosts, false)
	m := New(r.k, r.nics[f.Mapper], Config{})
	for hop := 0; hop < 4; hop++ {
		hop := hop
		var fwd, rev routing.Route
		var ok bool
		r.k.Spawn("mapper", func(p *sim.Proc) {
			fwd, rev, _, ok = m.MapTo(p, f.Targets[hop])
		})
		r.k.RunFor(5 * time.Second)
		if !ok {
			t.Fatalf("hop %d: target not found", hop+1)
		}
		if len(fwd) != hop+1 {
			t.Fatalf("hop %d: route length %d, want %d (shortest)", hop+1, len(fwd), hop+1)
		}
		res, err := routing.Walk(f.Net, f.Mapper, fwd)
		if err != nil || res.Dst != f.Targets[hop] {
			t.Fatalf("hop %d: route invalid: %v", hop+1, err)
		}
		// The reverse route must walk from the target back to the mapper.
		rres, err := routing.Walk(f.Net, f.Targets[hop], rev)
		if err != nil || rres.Dst != f.Mapper {
			t.Fatalf("hop %d: reverse route invalid: %v -> %d", hop+1, err, rres.Dst)
		}
	}
}

func TestMappingCostGrowsWithDistance(t *testing.T) {
	f := topology.NewFig2()
	hosts := f.Net.Hosts()
	var prev Stats
	for hop := 0; hop < 4; hop++ {
		r := newRig(t, f.Net, hosts, false)
		m := New(r.k, r.nics[f.Mapper], Config{})
		var st Stats
		var ok bool
		r.k.Spawn("mapper", func(p *sim.Proc) {
			_, _, st, ok = m.MapTo(p, f.Targets[hop])
		})
		r.k.RunFor(5 * time.Second)
		if !ok {
			t.Fatalf("hop %d failed", hop+1)
		}
		if hop > 0 {
			if st.Total() <= prev.Total() {
				t.Fatalf("hop %d total probes %d not > hop %d's %d",
					hop+1, st.Total(), hop, prev.Total())
			}
			if st.Elapsed <= prev.Elapsed {
				t.Fatalf("hop %d time %v not > hop %d's %v", hop+1, st.Elapsed, hop, prev.Elapsed)
			}
		}
		if hop == 0 && st.SwitchesFound != 1 {
			t.Fatalf("1-hop mapping explored %d switches, want 1", st.SwitchesFound)
		}
		prev = st
	}
}

func TestFullMapDiscoversEverything(t *testing.T) {
	f := topology.NewFig2()
	hosts := f.Net.Hosts()
	r := newRig(t, f.Net, hosts, false)
	m := New(r.k, r.nics[f.Mapper], Config{})
	var mp *Map
	var st Stats
	r.k.Spawn("mapper", func(p *sim.Proc) {
		mp, st = m.FullMap(p)
	})
	r.k.RunFor(5 * time.Second)
	r.k.Stop()
	if st.SwitchesFound != 4 {
		t.Fatalf("found %d switches, want 4 (dedup across redundant links)", st.SwitchesFound)
	}
	// All hosts except the mapper itself are in the map (the mapper's own
	// port answers as portSelf, not a host). Every host should be found.
	for _, h := range hosts {
		if h == f.Mapper {
			continue
		}
		if _, _, ok := mp.RouteTo(h); !ok {
			t.Fatalf("host %d missing from full map", h)
		}
	}
}

func TestOnDemandCheaperThanFullMap(t *testing.T) {
	f := topology.NewFig2()
	hosts := f.Net.Hosts()

	r1 := newRig(t, f.Net, hosts, false)
	m1 := New(r1.k, r1.nics[f.Mapper], Config{})
	var onDemand Stats
	r1.k.Spawn("mapper", func(p *sim.Proc) {
		_, _, onDemand, _ = m1.MapTo(p, f.Targets[0])
	})
	r1.k.RunFor(5 * time.Second)
	r1.k.Stop()

	r2 := newRig(t, f.Net, hosts, false)
	m2 := New(r2.k, r2.nics[f.Mapper], Config{})
	var full Stats
	r2.k.Spawn("mapper", func(p *sim.Proc) {
		_, full = m2.FullMap(p)
	})
	r2.k.RunFor(5 * time.Second)
	r2.k.Stop()

	if onDemand.Total() >= full.Total() {
		t.Fatalf("on-demand (%d probes) not cheaper than full map (%d)", onDemand.Total(), full.Total())
	}
	if onDemand.Elapsed >= full.Elapsed {
		t.Fatalf("on-demand (%v) not faster than full map (%v)", onDemand.Elapsed, full.Elapsed)
	}
}

func TestMapAroundDeadLink(t *testing.T) {
	// Kill one of the two parallel S0-S1 trunks; mapping must still find
	// a route over the surviving one.
	f := topology.NewFig2()
	hosts := f.Net.Hosts()
	// Find one S0-S1 link and kill it.
	for _, l := range f.Net.Links {
		if (l.A.Node == f.Switches[0] && l.B.Node == f.Switches[1]) ||
			(l.A.Node == f.Switches[1] && l.B.Node == f.Switches[0]) {
			f.Net.KillLink(l)
			break
		}
	}
	r := newRig(t, f.Net, hosts, false)
	m := New(r.k, r.nics[f.Mapper], Config{})
	var fwd routing.Route
	var ok bool
	r.k.Spawn("mapper", func(p *sim.Proc) {
		fwd, _, _, ok = m.MapTo(p, f.Targets[1])
	})
	r.k.RunFor(5 * time.Second)
	r.k.Stop()
	if !ok {
		t.Fatal("no route found despite surviving redundant trunk")
	}
	res, err := routing.Walk(f.Net, f.Mapper, fwd)
	if err != nil || res.Dst != f.Targets[1] {
		t.Fatalf("route invalid: %v", err)
	}
}

func TestMapToUnreachable(t *testing.T) {
	nw, hosts := topology.Star(3)
	nw.KillLink(nw.Node(hosts[2]).Ports[0])
	r := newRig(t, nw, hosts, false)
	m := New(r.k, r.nics[hosts[0]], Config{MaxRadix: 8})
	var ok bool
	r.k.Spawn("mapper", func(p *sim.Proc) {
		_, _, _, ok = m.MapTo(p, hosts[2])
	})
	r.k.RunFor(5 * time.Second)
	r.k.Stop()
	if ok {
		t.Fatal("found a route to a host with a dead link")
	}
}

func TestMapperOwnLinkDead(t *testing.T) {
	nw, hosts := topology.Star(3)
	nw.KillLink(nw.Node(hosts[0]).Ports[0])
	r := newRig(t, nw, hosts, false)
	m := New(r.k, r.nics[hosts[0]], Config{MaxRadix: 8})
	var st Stats
	var ok bool
	r.k.Spawn("mapper", func(p *sim.Proc) {
		_, _, st, ok = m.MapTo(p, hosts[1])
	})
	r.k.RunFor(5 * time.Second)
	r.k.Stop()
	if ok {
		t.Fatal("mapping succeeded with a dead NIC link")
	}
	if st.SwitchesFound != 0 {
		t.Fatal("discovered switches through a dead link")
	}
}

func TestRemapEndToEndAfterPermanentFailure(t *testing.T) {
	// Full system test of §4.2: traffic flows over a trunk, the trunk
	// dies permanently, the stale-path detector fires, the mapper
	// discovers the redundant trunk, resets the generation, and delivery
	// resumes — transparently to the sending process.
	nw, hosts := topology.DoubleStar(4)
	k := sim.New(1)
	fab := fabric.New(k, nw, fabric.DefaultConfig())
	rx := make(map[topology.NodeID][]*proto.Frame)
	nics := make(map[topology.NodeID]*nic.NIC)
	for _, h := range hosts {
		h := h
		nics[h] = nic.New(k, fab, h, nic.Options{
			FT: true,
			Retrans: retrans.Config{
				QueueSize:         16,
				Interval:          time.Millisecond,
				PermFailThreshold: 10 * time.Millisecond,
			},
			OnDeliver: func(f *proto.Frame) { rx[h] = append(rx[h], f.Clone()) },
		})
	}
	for _, a := range hosts {
		for _, b := range hosts {
			if a != b {
				rt, _ := routing.Shortest(nw, a, b)
				nics[a].SetRoute(b, rt)
			}
		}
	}
	src, dst := hosts[0], hosts[3] // opposite switches
	mapper := New(k, nics[src], Config{MaxRadix: 8})
	remaps := 0
	nics[src].SetOnPathStale(func(d topology.NodeID) {
		k.Spawn("remap", func(p *sim.Proc) {
			if _, ok := mapper.Remap(p, d); ok {
				remaps++
			}
		})
	})

	// Identify the trunk the current route uses and kill it mid-stream.
	route, _ := nics[src].Route(dst)
	res, _ := routing.Walk(nw, src, route)
	trunk := nw.Node(res.Switches[0]).Ports[route[0]]

	const n = 20
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			nics[src].Send(p, &proto.Frame{
				Type: proto.FrameData,
				Dst:  dst,
				Data: &proto.DataPayload{MsgID: uint64(i), MsgLen: 64, Data: make([]byte, 64), Notify: true},
			})
			p.Sleep(100 * time.Microsecond)
		}
	})
	k.After(500*time.Microsecond, func() { fab.KillLink(trunk) })
	k.RunFor(2 * time.Second)
	k.Stop()

	if remaps != 1 {
		t.Fatalf("remaps = %d, want 1", remaps)
	}
	// Across a generation reset the protocol is at-least-once: packets
	// delivered but not yet acknowledged when the path died are renumbered
	// and redelivered (VMMC deposits are idempotent; the VMMC layer dedups
	// notifications by message ID). Assert complete coverage, bounded
	// duplication, and that first deliveries happen in order.
	if len(rx[dst]) < n || len(rx[dst]) > n+16 {
		t.Fatalf("delivered %d, want %d..%d", len(rx[dst]), n, n+16)
	}
	seen := make(map[uint64]bool)
	var firsts []uint64
	for _, f := range rx[dst] {
		if !seen[f.Data.MsgID] {
			seen[f.Data.MsgID] = true
			firsts = append(firsts, f.Data.MsgID)
		}
	}
	if len(seen) != n {
		t.Fatalf("covered %d distinct messages, want %d", len(seen), n)
	}
	for i, id := range firsts {
		if id != uint64(i) {
			t.Fatalf("first deliveries out of order at %d: msg %d", i, id)
		}
	}
	if nics[src].ProtoSender().TotalUnacked() != 0 {
		t.Fatal("buffers leaked across remap")
	}
	// The new route must avoid the dead trunk.
	newRoute, ok := nics[src].Route(dst)
	if !ok {
		t.Fatal("no route installed after remap")
	}
	if newRoute.Equal(route) {
		t.Fatal("route unchanged after remap")
	}
}

func TestRemapUnreachableDropsPending(t *testing.T) {
	nw, hosts := topology.Star(3)
	r := newRig(t, nw, hosts, true)
	src, dst := hosts[0], hosts[1]
	m := New(r.k, r.nics[src], Config{MaxRadix: 8})
	// Kill the destination's own link: no alternate route can exist.
	r.fab.KillLink(nw.Node(dst).Ports[0])
	sent := 0
	r.k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r.nics[src].Send(p, &proto.Frame{
				Type: proto.FrameData, Dst: dst,
				Data: &proto.DataPayload{MsgID: uint64(i), MsgLen: 8, Data: make([]byte, 8)},
			})
			sent++
		}
	})
	var ok bool
	done := false
	r.k.Spawn("remapper", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		_, ok = m.Remap(p, dst)
		done = true
	})
	r.k.RunFor(time.Second)
	r.k.Stop()
	if !done {
		t.Fatal("remap never completed")
	}
	if ok {
		t.Fatal("remap claimed success to an unreachable node")
	}
	if r.nics[src].ProtoSender().TotalUnacked() != 0 {
		t.Fatal("pending packets not dropped for unreachable node")
	}
	if r.nics[src].FreeBuffers() != 16 {
		t.Fatalf("free buffers = %d, want 16", r.nics[src].FreeBuffers())
	}
}
