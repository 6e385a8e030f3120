package core

import (
	"testing"
	"time"

	"sanft/internal/retrans"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// remapTotal sums the counter remap.<name> over every host of c.
func remapTotal(c *Cluster, name string) int {
	return int(c.Metrics().CounterTotal("remap." + name))
}

// TestFlappingLinkRemapsCoalesced flaps the only trunk of a two-switch
// chain a hundred times while both hosts keep demanding each other.
// Without the remap manager every stale-path upcall would start its own
// mapping run — and a peer's route-update frame clears the NIC-level
// in-remap guard mid-run, re-opening the door for duplicates. With the
// manager, concurrent upcalls coalesce and the number of mapping runs
// stays sublinear in the flap count.
func TestFlappingLinkRemapsCoalesced(t *testing.T) {
	nw, rows := topology.Chain(2, 1, 1)
	hosts := []topology.NodeID{rows[0][0], rows[1][0]}
	c := New(Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 4 * time.Millisecond,
		},
		Mapper: true,
		Seed:   7,
	})
	trunks := nw.TrunkLinks()
	if len(trunks) != 1 {
		t.Fatalf("expected a single trunk, have %d", len(trunks))
	}
	trunk := trunks[0]

	got := map[topology.NodeID]map[uint64]bool{}
	for i := range hosts {
		src, dst := hosts[i], hosts[1-i]
		name := "in-" + string(rune('a'+i))
		exp := c.Endpoint(dst).Export(name, 4096)
		got[dst] = map[uint64]bool{}
		c.K.Spawn("recv", func(p *sim.Proc) {
			for {
				n := exp.WaitNotification(p)
				got[dst][n.MsgID] = true
			}
		})
		c.K.Spawn("send", func(p *sim.Proc) {
			imp, err := c.Endpoint(src).Import(dst, name)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 300; j++ {
				imp.Send(p, 0, make([]byte, 64), true)
				p.Sleep(2 * time.Millisecond)
			}
		})
	}

	// 100 flap cycles: 4 ms down, 2 ms up. Each cycle also fires a
	// duplicate upcall per host mid-outage — modelling the reentrancy
	// hole where a peer's route-update frame clears the NIC in-remap
	// guard while a mapping run is still active, letting a second upcall
	// through. The manager must absorb these, not multiply runs.
	const flaps = 100
	cycle := 0
	var flap func()
	flap = func() {
		c.Fab.KillLink(trunk)
		c.K.After(time.Millisecond, func() {
			for i, h := range hosts {
				c.remaps[h].trigger(hosts[1-i])
			}
		})
		c.K.After(4*time.Millisecond, func() {
			nw.RestoreLink(trunk)
			cycle++
			if cycle < flaps {
				c.K.After(2*time.Millisecond, flap)
			}
		})
	}
	c.K.After(time.Millisecond, flap)

	c.RunFor(5 * time.Second)
	c.Stop()

	st := c.RemapStats
	if st.Attempts == 0 {
		t.Fatal("no mapping runs at all — flapping never triggered remaps")
	}
	// Two hosts, 100 flaps: the unhardened path starts a run per upcall.
	if st.Attempts > 2*flaps/3 {
		t.Fatalf("attempts = %d for %d flaps; want sublinear (≤ %d). stats: %+v",
			st.Attempts, flaps, 2*flaps/3, st)
	}
	if st.Coalesced == 0 {
		t.Fatalf("no upcalls coalesced during the storm: %+v", st)
	}
	// Once the link settles up, traffic must flow again.
	for dst, msgs := range got {
		if len(msgs) == 0 {
			t.Fatalf("nothing delivered to %d after the flapping stopped", dst)
		}
	}
	for _, h := range hosts {
		if u := c.NIC(h).ProtoSender().TotalUnacked(); u != 0 {
			t.Fatalf("host %d leaked %d buffers", h, u)
		}
	}
}

// TestDeadDestinationQuarantined drives persistent demand at a destination
// whose only link is dead. The manager must not retry forever: after the
// configured number of consecutive failures the destination is
// quarantined, the OnUnreachable upcall fires, and further attempts are
// paced by exponentially growing release times.
func TestDeadDestinationQuarantined(t *testing.T) {
	nw, hosts := topology.Star(2)
	type upcall struct{ src, dst topology.NodeID }
	var upcalls []upcall
	c := New(Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			// Wide queue: all demand fits without blocking the sender, so
			// every pending packet predates the last quarantine-release
			// probe and must have been reclaimed by the end of the run.
			QueueSize:         64,
			Interval:          time.Millisecond,
			PermFailThreshold: 4 * time.Millisecond,
		},
		Mapper: true,
		OnUnreachable: func(src, dst topology.NodeID) {
			upcalls = append(upcalls, upcall{src, dst})
		},
		Seed: 5,
	})
	src, dst := hosts[0], hosts[1]
	c.Endpoint(dst).Export("in", 4096)
	c.Fab.KillLink(nw.Node(dst).Ports[0])

	c.K.Spawn("send", func(p *sim.Proc) {
		imp, _ := c.Endpoint(src).Import(dst, "in")
		for i := 0; i < 20; i++ {
			imp.Send(p, 0, make([]byte, 64), false)
			p.Sleep(30 * time.Millisecond)
		}
	})
	c.RunFor(5 * time.Second)
	c.Stop()

	if len(upcalls) == 0 {
		t.Fatal("OnUnreachable never fired")
	}
	if upcalls[0] != (upcall{src, dst}) {
		t.Fatalf("upcall = %+v, want {%d %d}", upcalls[0], src, dst)
	}
	if !c.Quarantined(src, dst) {
		t.Fatal("destination not quarantined despite permanent failure")
	}
	if c.RemapStats.Quarantines == 0 {
		t.Fatal("quarantine counter not incremented")
	}
	// 5 s against a dead destination: the old behaviour was one mapping
	// run per upcall; the paced one is a handful of initial retries plus
	// quarantine releases at 250 ms, 500 ms, 1 s, 2 s.
	if c.RemapStats.Attempts > 10 {
		t.Fatalf("attempts = %d against a dead destination; want ≤ 10. stats: %+v",
			c.RemapStats.Attempts, c.RemapStats)
	}
	if c.NIC(src).ProtoSender().TotalUnacked() != 0 {
		t.Fatal("pending packets not reclaimed")
	}
}

// TestQuarantineRecoversAfterHeal checks that quarantine is not a death
// sentence: once the link is repaired, the next quarantine release probes
// again, succeeds, clears the quarantine, and delivery resumes.
func TestQuarantineRecoversAfterHeal(t *testing.T) {
	nw, hosts := topology.Star(2)
	c := New(Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize:         8,
			Interval:          time.Millisecond,
			PermFailThreshold: 4 * time.Millisecond,
		},
		Mapper: true,
		Seed:   6,
	})
	src, dst := hosts[0], hosts[1]
	exp := c.Endpoint(dst).Export("in", 4096)
	link := nw.Node(dst).Ports[0]
	c.Fab.KillLink(link)

	got := map[uint64]bool{}
	c.K.Spawn("recv", func(p *sim.Proc) {
		for {
			n := exp.WaitNotification(p)
			got[n.MsgID] = true
		}
	})
	c.K.Spawn("send", func(p *sim.Proc) {
		imp, _ := c.Endpoint(src).Import(dst, "in")
		for i := 0; i < 300; i++ {
			imp.Send(p, 0, make([]byte, 64), true)
			p.Sleep(10 * time.Millisecond)
		}
	})
	// Heal well after quarantine entry (3 failed runs plus backoffs), so
	// recovery happens via a quarantine-release probe, not an early retry.
	c.K.After(time.Second, func() { nw.RestoreLink(link) })

	c.RunFor(5 * time.Second)
	c.Stop()

	if c.RemapStats.Quarantines == 0 {
		t.Fatal("destination was never quarantined before the heal")
	}
	if remapTotal(c, "successes") == 0 {
		t.Fatal("no successful remap after the heal")
	}
	if c.Quarantined(src, dst) {
		t.Fatal("quarantine not cleared by the successful remap")
	}
	if len(got) == 0 {
		t.Fatal("no messages delivered after recovery")
	}
}

// TestDuplicateUpcallsWhileRunningCoalesce is the direct regression test
// for the remap reentrancy bug: the NIC's in-remap guard is cleared by any
// route update (including one arriving from a peer's remap), after which a
// second stale-path upcall could start a concurrent mapping run to the
// same destination. The manager must coalesce such duplicates into the
// run already in flight.
func TestDuplicateUpcallsWhileRunningCoalesce(t *testing.T) {
	nw, hosts := topology.Star(2)
	c := New(Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize:         8,
			Interval:          time.Millisecond,
			PermFailThreshold: 4 * time.Millisecond,
		},
		Mapper: true,
		Seed:   2,
	})
	src, dst := hosts[0], hosts[1]
	c.Endpoint(dst).Export("in", 4096)
	c.Fab.KillLink(nw.Node(dst).Ports[0])

	c.K.Spawn("send", func(p *sim.Proc) {
		imp, _ := c.Endpoint(src).Import(dst, "in")
		imp.Send(p, 0, make([]byte, 64), false)
	})
	checked := false
	c.K.Spawn("dup", func(p *sim.Proc) {
		// Wait for the stale-path upcall to start a mapping run, then
		// fire the duplicate upcalls the cleared NIC guard would let in.
		for {
			st := c.remaps[src].dst[dst]
			if st != nil && st.running {
				break
			}
			p.Sleep(100 * time.Microsecond)
		}
		before := c.RemapStats.Attempts
		c.remaps[src].trigger(dst)
		c.remaps[src].trigger(dst)
		if c.RemapStats.Attempts != before {
			t.Errorf("duplicate upcalls spawned concurrent runs: %d -> %d",
				before, c.RemapStats.Attempts)
		}
		if c.RemapStats.Coalesced < 2 {
			t.Errorf("coalesced = %d, want ≥ 2", c.RemapStats.Coalesced)
		}
		checked = true
	})
	c.RunFor(100 * time.Millisecond)
	c.Stop()
	if !checked {
		t.Fatal("no mapping run ever started")
	}
}
