package chaos

import (
	"fmt"
	"testing"
	"time"

	"sanft/internal/topology"
)

// TestAllCampaignsPass runs the whole built-in suite once and requires
// every invariant to hold.
func TestAllCampaignsPass(t *testing.T) {
	for _, c := range Campaigns() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			rep := c.Run(1)
			if !rep.Passed() {
				t.Fatalf("campaign failed:\n%s\nevent log:\n%s", rep, rep.EventLog)
			}
			if rep.Faults == 0 {
				t.Fatal("campaign injected no faults")
			}
			if rep.Delivered == 0 {
				t.Fatal("campaign delivered nothing")
			}
		})
	}
}

// TestCampaignsDeterministic runs campaigns twice with one seed and
// requires byte-identical event logs and identical delivery outcomes —
// the reproducibility contract of the chaos engine.
func TestCampaignsDeterministic(t *testing.T) {
	for _, name := range []string{"link-flap", "partition-heal"} {
		c, ok := Find(name)
		if !ok {
			t.Fatalf("campaign %q missing", name)
		}
		a, b := c.Run(42), c.Run(42)
		if a.EventLog != b.EventLog {
			t.Fatalf("%s: event logs diverged between same-seed runs:\n--- run 1\n%s\n--- run 2\n%s",
				name, a.EventLog, b.EventLog)
		}
		if a.Delivered != b.Delivered || a.Duplicates != b.Duplicates ||
			a.Remaps != b.Remaps || a.RemapStats != b.RemapStats {
			t.Fatalf("%s: outcomes diverged: %+v vs %+v", name, a, b)
		}
	}
}

// TestSeedChangesSchedule guards against accidentally ignoring the seed:
// different seeds must give different fault schedules for a randomized
// scenario.
func TestSeedChangesSchedule(t *testing.T) {
	c, _ := Find("link-flap")
	a, b := c.Run(1), c.Run(2)
	if a.EventLog == b.EventLog {
		t.Fatal("different seeds produced identical event logs")
	}
}

// TestMTTRObserved checks that outages show up in the recovery histogram:
// a partitioned flow's delivery gap must be recorded as a stall.
func TestMTTRObserved(t *testing.T) {
	c, _ := Find("partition-heal")
	rep := c.Run(7)
	if rep.MTTR == "no recoveries observed" {
		t.Fatalf("a 300ms partition produced no recorded delivery stalls; report:\n%s", rep)
	}
}

// TestCutLinks checks the partition cut-set helper on the chain topology.
func TestCutLinks(t *testing.T) {
	nw, _ := topology.Chain(3, 2, 2)
	sws := nw.Switches()
	cut := CutLinks(nw, sws[:2], sws[2:])
	if len(cut) != 2 {
		t.Fatalf("cut set has %d links, want the 2 sw1-sw2 trunks", len(cut))
	}
	for _, l := range cut {
		if nw.Node(l.A.Node).Kind != topology.Switch || nw.Node(l.B.Node).Kind != topology.Switch {
			t.Fatalf("cut link %s is not a trunk", LinkName(nw, l))
		}
	}
	if n := len(nw.TrunkLinks()); n != 4 {
		t.Fatalf("trunk count = %d, want 4", n)
	}
}

// TestDedupViolationsInIDOrder: duplicate notifications of the built-in
// workload are reported in ascending message ID, the same on every call,
// not in the order they were recorded.
func TestDedupViolationsInIDOrder(t *testing.T) {
	c, hosts := chainCluster(3, Baseline())
	e := NewEngine(c, 3)
	pr := Pair{hosts[0], hosts[5]}
	r := Workload{Pairs: []Pair{pr}, Msgs: 8}.Start(e)
	c.RunFor(2 * time.Second)
	c.Stop()
	for _, id := range []uint64{7, 2, 5, 3} {
		if r.Count(pr, id) != 1 {
			t.Fatalf("message %d notified %d times before the test doubled it, want 1", id, r.Count(pr, id))
		}
		r.logs[pr].noteDelivered(id)
	}
	var want []string
	for _, id := range []uint64{2, 3, 5, 7} {
		want = append(want, fmt.Sprintf("pair %d->%d message %d notified 2 times", pr.Src, pr.Dst, id))
	}
	for call := 0; call < 20; call++ {
		var got []string
		for _, v := range CheckInvariants(e, r, CheckOpts{}) {
			if v.Invariant == "dedup" {
				got = append(got, v.Detail)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("call %d reported %q, want %q", call, got, want)
		}
	}
}

// TestWorkloadDefaults checks the zero-value workload fills in sane
// parameters and counts outcomes correctly on a fault-free run.
func TestWorkloadDefaults(t *testing.T) {
	c, hosts := chainCluster(3, Baseline())
	e := NewEngine(c, 3)
	r := Workload{Pairs: []Pair{{hosts[0], hosts[5]}, {hosts[5], hosts[0]}}}.Start(e)
	c.RunFor(2 * time.Second)
	c.Stop()
	if r.Expected() != 12 {
		t.Fatalf("expected = %d, want 12 (6 defaulted msgs × 2 pairs)", r.Expected())
	}
	if r.Delivered() != 12 || r.Duplicates() != 0 {
		t.Fatalf("delivered %d (dups %d), want 12 clean", r.Delivered(), r.Duplicates())
	}
	if vs := CheckInvariants(e, r, CheckOpts{}); len(vs) != 0 {
		t.Fatalf("fault-free run violated invariants: %v", vs)
	}
}
