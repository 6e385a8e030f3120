package core

import (
	"fmt"
	"testing"
	"time"

	"sanft/internal/retrans"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// TestChaosLinkFailures subjects a redundant topology to a storm of
// permanent-then-repaired link failures while every host streams to every
// other host. The retransmission protocol plus on-demand remapping must
// deliver every message (at-least-once; dedup by message ID) with no
// stuck senders and no leaked buffers.
func TestChaosLinkFailures(t *testing.T) {
	nw, hostRows := topology.Chain(3, 2, 2) // doubled trunks: always an alternate path
	var hosts []topology.NodeID
	for _, row := range hostRows {
		hosts = append(hosts, row...)
	}
	c := New(Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 8 * time.Millisecond,
		},
		Mapper: true,
		Seed:   11,
	})

	const msgsPerPair = 6
	type pair struct{ a, b topology.NodeID }
	received := make(map[pair]map[uint64]bool)

	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			src, dst := src, dst
			name := fmt.Sprintf("in-%d", src)
			exp := c.Endpoint(dst).Export(name, 1024)
			pr := pair{src, dst}
			received[pr] = make(map[uint64]bool)
			c.K.Spawn(fmt.Sprintf("recv-%d-%d", src, dst), func(p *sim.Proc) {
				for len(received[pr]) < msgsPerPair {
					n := exp.WaitNotification(p)
					received[pr][n.MsgID] = true
				}
			})
			c.K.Spawn(fmt.Sprintf("send-%d-%d", src, dst), func(p *sim.Proc) {
				imp, err := c.Endpoint(src).Import(dst, name)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < msgsPerPair; i++ {
					imp.Send(p, 0, make([]byte, 512), true)
					p.Sleep(time.Duration(200+50*int(src)) * time.Microsecond)
				}
			})
		}
	}

	// The chaos agent: every 3 ms kill a random trunk link (never a host
	// link — host failures are out of scope per the paper) and restore
	// the previously killed one.
	var killed *topology.Link
	trunks := func() []*topology.Link {
		var out []*topology.Link
		for _, l := range nw.Links {
			if nw.Node(l.A.Node).Kind == topology.Switch && nw.Node(l.B.Node).Kind == topology.Switch {
				out = append(out, l)
			}
		}
		return out
	}()
	if len(trunks) != 4 {
		t.Fatalf("expected 4 trunk links, have %d", len(trunks))
	}
	rng := c.K.Rand()
	var chaos func()
	rounds := 0
	chaos = func() {
		if killed != nil {
			nw.RestoreLink(killed)
			killed = nil
		}
		if rounds < 8 {
			killed = trunks[rng.Intn(len(trunks))]
			c.Fab.KillLink(killed)
			rounds++
			c.K.After(3*time.Millisecond, chaos)
		}
	}
	c.K.After(time.Millisecond, chaos)

	c.RunFor(20 * time.Second)
	c.Stop()

	for pr, got := range received {
		if len(got) != msgsPerPair {
			t.Fatalf("pair %d->%d delivered %d of %d (remaps=%d unreachable=%d)",
				pr.a, pr.b, len(got), msgsPerPair, remapTotal(c, "successes"), remapTotal(c, "failures"))
		}
	}
	for _, h := range hosts {
		if u := c.NIC(h).ProtoSender().TotalUnacked(); u != 0 {
			t.Fatalf("host %d leaked %d buffers", h, u)
		}
	}
}

// TestChaosSwitchFailure kills a middle switch outright: pairs with
// redundant paths recover; pairs that lose all connectivity are reported
// unreachable and their buffers are reclaimed. After the switch is
// restored, traffic to previously unreachable destinations resumes once
// a new send triggers remapping.
func TestChaosSwitchFailure(t *testing.T) {
	f := topology.NewFig2()
	hosts := []topology.NodeID{f.Mapper, f.Targets[0], f.Targets[1], f.Targets[2]}
	c := New(Config{
		Net: f.Net, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 8 * time.Millisecond,
		},
		Mapper: true,
		Seed:   13,
	})
	src := f.Mapper
	farDst := f.Targets[2]  // behind S1 and S2: cut off when S1 dies
	nearDst := f.Targets[0] // same switch as the mapper: unaffected

	expFar := c.Endpoint(farDst).Export("in", 1024)
	expNear := c.Endpoint(nearDst).Export("in", 1024)
	gotFar := map[uint64]bool{}
	gotNear := map[uint64]bool{}
	c.K.Spawn("recv-far", func(p *sim.Proc) {
		for {
			n := expFar.WaitNotification(p)
			gotFar[n.MsgID] = true
		}
	})
	c.K.Spawn("recv-near", func(p *sim.Proc) {
		for {
			n := expNear.WaitNotification(p)
			gotNear[n.MsgID] = true
		}
	})

	const phase1, phase2 = 12, 8
	c.K.Spawn("send", func(p *sim.Proc) {
		impFar, _ := c.Endpoint(src).Import(farDst, "in")
		impNear, _ := c.Endpoint(src).Import(nearDst, "in")
		for i := 0; i < phase1; i++ {
			impFar.Send(p, 0, make([]byte, 256), true)
			impNear.Send(p, 0, make([]byte, 256), true)
			p.Sleep(500 * time.Microsecond)
		}
		// S1 dies here (timer below); wait out the failure, then keep
		// sending: far traffic must fail over to unreachable, near
		// traffic must be untouched.
		p.Sleep(100 * time.Millisecond)
		for i := 0; i < phase2; i++ {
			impNear.Send(p, 0, make([]byte, 256), true)
			p.Sleep(500 * time.Microsecond)
		}
		// Restore the switch, send to the far node again: the first
		// transmission finds no route (it was dropped to unreachable),
		// the no-route hook remaps, and delivery resumes.
		f.Net.RestoreSwitch(f.Switches[1])
		for i := 0; i < phase2; i++ {
			impFar.Send(p, 0, make([]byte, 256), true)
			p.Sleep(500 * time.Microsecond)
		}
	})
	// Kill S1 in the middle of phase 1, so far-bound messages are caught
	// in flight and the stale-path detector has queued packets to judge.
	c.K.After(2*time.Millisecond, func() { c.Fab.KillSwitch(f.Switches[1]) })

	c.RunFor(30 * time.Second)
	c.Stop()

	if len(gotNear) != phase1+phase2 {
		t.Fatalf("near destination got %d of %d", len(gotNear), phase1+phase2)
	}
	_ = phase1
	if remapTotal(c, "failures") == 0 {
		t.Fatal("far destination was never declared unreachable")
	}
	// All phase-3 far messages arrive after restoration; phase-1 far
	// messages may be partially lost to the unreachable drop (that is the
	// documented semantics: pending packets are dropped).
	if len(gotFar) < phase2 {
		t.Fatalf("far destination got %d messages; want ≥ %d after restoration", len(gotFar), phase2)
	}
	if u := c.NIC(src).ProtoSender().TotalUnacked(); u != 0 {
		t.Fatalf("sender leaked %d buffers", u)
	}
}
