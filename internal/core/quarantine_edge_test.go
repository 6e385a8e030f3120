package core_test

// Quarantine and backoff edge cases, driven through the proptest topology
// generators and (for the race case) the full simulator harness with its
// invariant oracle. These cover the corners the steady-state remap tests
// miss: what happens when a destination fails again while already paced,
// when the failing route is the last one the fabric has, and when a remap
// run overlaps a fabric-watchdog reset of the same path.

import (
	"fmt"
	"testing"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/core"
	"sanft/internal/proptest"
	"sanft/internal/retrans"
	"sanft/internal/sim"
	"sanft/internal/trace"
)

// edgePolicy paces fast enough that a 5 s run covers many backoff and
// quarantine-release cycles. Jitter is disabled so cycle counts are exact.
func edgePolicy() core.RemapPolicy {
	return core.RemapPolicy{
		Backoff:         time.Millisecond,
		BackoffMax:      4 * time.Millisecond,
		JitterFrac:      -1,
		QuarantineAfter: 3,
		Quarantine:      20 * time.Millisecond,
		QuarantineMax:   80 * time.Millisecond,
	}
}

func edgeRetrans() retrans.Config {
	return retrans.Config{
		QueueSize:         16,
		Interval:          time.Millisecond,
		PermFailThreshold: 4 * time.Millisecond,
	}
}

// TestRequarantineDuringBackoff kills the destination's only link through
// two full outage/heal rounds. Round one: demand arriving during backoff
// must be deferred (not spawn runs), the destination must quarantine
// exactly once no matter how many release probes fail afterwards, and the
// heal must clear it. Round two: a destination that recovered and then
// fails again must walk the whole backoff ladder again and re-enter
// quarantine — the first quarantine is not sticky state.
func TestRequarantineDuringBackoff(t *testing.T) {
	nw, hosts := proptest.TopoSpec{Kind: proptest.TopoStar, Hosts: 2}.Build()
	c := core.New(core.Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: edgeRetrans(),
		Mapper:  true,
		Remap:   edgePolicy(),
		Seed:    11,
	})
	src, dst := hosts[0], hosts[1]
	exp := c.Endpoint(dst).Export("in", 4096)
	link := nw.Node(dst).Ports[0]

	delivered := 0
	c.K.Spawn("recv", func(p *sim.Proc) {
		for {
			exp.WaitNotification(p)
			delivered++
		}
	})
	// Steady demand: every send against a dead destination eventually
	// raises an upcall, so the manager sees requests in every state —
	// running, backoff, quarantined.
	c.K.Spawn("send", func(p *sim.Proc) {
		imp, _ := c.Endpoint(src).Import(dst, "in")
		for i := 0; i < 500; i++ {
			imp.Send(p, 0, make([]byte, 64), true)
			p.Sleep(4 * time.Millisecond)
		}
	})

	type snap struct {
		quarantined bool
		stats       core.RemapStats
	}
	var midOutage, afterHeal, secondOutage snap
	take := func(s *snap) func() {
		return func() { *s = snap{c.Quarantined(src, dst), c.RemapStats} }
	}
	// Round one: dead from the start, heal at 500 ms (≈ many release
	// probes past the 3 initial failures), sample just before the heal.
	c.Fab.KillLink(link)
	c.K.After(490*time.Millisecond, take(&midOutage))
	c.K.After(500*time.Millisecond, func() { nw.RestoreLink(link) })
	// Round two: sample after recovery, kill again, sample at the end.
	c.K.After(990*time.Millisecond, take(&afterHeal))
	c.K.After(time.Second, func() { c.Fab.KillLink(link) })
	c.K.After(1900*time.Millisecond, take(&secondOutage))

	c.RunFor(2 * time.Second)
	c.Stop()

	if !midOutage.quarantined {
		t.Fatalf("not quarantined 490ms into a permanent outage: %+v", midOutage.stats)
	}
	if q := midOutage.stats.Quarantines; q != 1 {
		t.Fatalf("quarantine entered %d times during one continuous outage, want exactly 1: %+v",
			q, midOutage.stats)
	}
	if midOutage.stats.Deferred == 0 {
		t.Fatalf("no demand was deferred to a backoff/release timer: %+v", midOutage.stats)
	}
	if afterHeal.quarantined {
		t.Fatalf("quarantine survived the heal and a successful remap: %+v", afterHeal.stats)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered in the healed window between the outages")
	}
	if q := secondOutage.stats.Quarantines; q != 2 {
		t.Fatalf("second outage should re-quarantine (total 2 entries), have %d: %+v",
			q, secondOutage.stats)
	}
	if !secondOutage.quarantined {
		t.Fatalf("not quarantined again by the end of the second outage: %+v", secondOutage.stats)
	}
}

// TestQuarantineLastUsableRoute uses the double-star (the smallest
// redundant fabric, via the proptest generator): losing one trunk must be
// absorbed by a successful remap onto the surviving trunk with no
// quarantine, and only losing that last usable route may quarantine the
// destination (traced as EvQuarantine).
func TestQuarantineLastUsableRoute(t *testing.T) {
	nw, hosts := proptest.TopoSpec{Kind: proptest.TopoDoubleStar, Hosts: 2}.Build()
	ring := trace.NewRing(1 << 16)
	c := core.New(core.Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: edgeRetrans(),
		Mapper:  true,
		Remap:   edgePolicy(),
		Tracer:  ring,
		Seed:    12,
	})
	src, dst := hosts[0], hosts[1]
	exp := c.Endpoint(dst).Export("in", 4096)
	trunks := nw.TrunkLinks()
	if len(trunks) != 2 {
		t.Fatalf("double star should have 2 trunks, have %d", len(trunks))
	}

	delivered := map[uint64]bool{}
	c.K.Spawn("recv", func(p *sim.Proc) {
		for {
			n := exp.WaitNotification(p)
			delivered[n.MsgID] = true
		}
	})
	// Traffic stops at 500 ms — well before the run ends, so the final
	// quarantine-release probes have quiet time to reclaim the queue.
	c.K.Spawn("send", func(p *sim.Proc) {
		imp, _ := c.Endpoint(src).Import(dst, "in")
		for i := 0; i < 100; i++ {
			imp.Send(p, 0, make([]byte, 64), true)
			p.Sleep(5 * time.Millisecond)
		}
	})

	var afterFirst struct {
		quarantined bool
		remaps      uint64
		quarantines int
	}
	// First trunk dies at 10 ms; by 300 ms the remap onto the survivor
	// must have happened. The last trunk dies at 310 ms.
	c.K.After(10*time.Millisecond, func() { c.Fab.KillLink(trunks[0]) })
	c.K.After(300*time.Millisecond, func() {
		afterFirst.quarantined = c.Quarantined(src, dst)
		afterFirst.remaps = c.Metrics().CounterTotal("remap.successes")
		afterFirst.quarantines = c.RemapStats.Quarantines
	})
	c.K.After(310*time.Millisecond, func() { c.Fab.KillLink(trunks[1]) })

	c.RunFor(2 * time.Second)
	c.Stop()

	if afterFirst.remaps == 0 {
		t.Fatal("losing one of two trunks never produced a successful remap")
	}
	if afterFirst.quarantined || afterFirst.quarantines != 0 {
		t.Fatalf("quarantined while an alternate route existed: %+v", afterFirst)
	}
	if len(delivered) == 0 {
		t.Fatal("nothing delivered over the surviving trunk")
	}
	if !c.Quarantined(src, dst) {
		t.Fatal("losing the last usable route did not quarantine the destination")
	}
	var quarantines []trace.Event
	for _, e := range ring.Events() {
		if e.Kind == trace.EvQuarantine {
			quarantines = append(quarantines, e)
		}
	}
	if len(quarantines) == 0 || quarantines[0].Node != src || quarantines[0].Peer != dst {
		t.Fatalf("quarantines traced %v, want the first %d->%d", quarantines, src, dst)
	}
	if c.NIC(src).ProtoSender().TotalUnacked() != 0 {
		t.Fatal("pending packets to the unreachable destination not reclaimed")
	}
}

// trunkRace kills the single trunk of the scenario's fabric while traffic
// is in flight and restores it at a configurable offset around the moment
// the permanent-failure detector starts a remap — so the remap run races
// the fabric watchdog flushing the stuck worms and the link coming back.
type trunkRace struct {
	kill, restore time.Duration
}

func (trunkRace) ScenarioName() string { return "trunk-race" }

func (s trunkRace) Install(e *chaos.Engine) {
	trunks := e.C.Net.TrunkLinks()
	if len(trunks) == 0 {
		return
	}
	l := trunks[0]
	e.C.K.After(s.kill, func() {
		e.RecordFault("race kill %s", chaos.LinkName(e.C.Net, l))
		e.C.Fab.KillLink(l)
	})
	e.C.K.After(s.restore, func() {
		e.Record("race heal %s", chaos.LinkName(e.C.Net, l))
		e.C.Net.RestoreLink(l)
	})
}

// TestRemapRacesWatchdogReset sweeps the heal instant across the window
// where the fabric watchdog (3 ms in the proptest harness) flushes wedged
// worms and the permanent-failure detector (6 ms) launches a remap. Every
// interleaving — heal before the remap, mid-run, after it failed once —
// must still satisfy the full simulator oracle: complete per-pair
// delivery, no duplicates, FIFO order, buffers drained.
func TestRemapRacesWatchdogReset(t *testing.T) {
	for _, healMS := range []int64{4, 6, 7, 9, 14} {
		t.Run(fmt.Sprintf("heal@%dms", healMS), func(t *testing.T) {
			sc := proptest.SimScenario{
				Seed:  900 + healMS,
				Topo:  proptest.TopoSpec{Kind: proptest.TopoChain, Hosts: 1, Switches: 2, Width: 1},
				Pairs: 2,
				Msgs:  6,
				Bytes: 256,
				Gap:   200 * time.Microsecond,
			}
			res := proptest.RunSimWith(sc, func(e *chaos.Engine) {
				e.Install(trunkRace{
					kill:    time.Millisecond,
					restore: time.Duration(healMS) * time.Millisecond,
				})
			})
			if res.Failed() {
				min := proptest.ShrinkSim(sc)
				t.Fatalf("oracle violated with heal at %d ms:\n%s\nshrunk repro:\n%s",
					healMS, res.Summary(), proptest.FormatSim(min))
			}
		})
	}
}
