package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sanft/internal/retrans"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// plans are the two kinds of cluster one build path makes: the one-cell
// plan (the default engine) and a plan of one host per cell.
var plans = []struct {
	name  string
	cfg   Config
	cells int
}{
	{"one cell", Config{}, 1},
	{"one host per cell", Config{Engine: EngineSharded, Workers: 2}, 4},
}

// planCluster builds plan p over a four-host double star (two switches,
// two trunks).
func planCluster(p Config) *Cluster {
	p.Net, p.Hosts = topology.DoubleStar(4)
	p.FT = true
	p.Retrans = retrans.Config{QueueSize: 16, Interval: time.Millisecond}
	p.Seed = 5
	p.Profile = true
	p.Tracer = trace.NewRing(1 << 14) // the one-cell plan's tracer; cells of a larger plan keep their own rings
	return New(p)
}

// scheduled counts the events ever scheduled on the cluster's kernels.
func scheduled(c *Cluster) uint64 {
	var n uint64
	for i := 0; i < c.Shards(); i++ {
		n += c.CellKernel(i).Stats().Scheduled
	}
	return n
}

// panicOf runs fn and returns what it panicked with, or nil.
func panicOf(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestFrameLevelAPIOnEveryPlan: every method of the frame-level API works
// on the one-cell plan and on a plan of several cells alike.
func TestFrameLevelAPIOnEveryPlan(t *testing.T) {
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			c := planCluster(tc.cfg)
			h := c.Hosts
			if c.NIC(h[3]) == nil || c.NIC(c.Net.Switches()[0]) != nil {
				t.Fatal("NIC must return every host's NIC and nil for a switch")
			}
			trunks := c.Net.TrunkLinks()
			c.SetLinkLoss(trunks[1].ID, 0.05)
			c.FlapTrunk(0, 300*time.Microsecond, 400*time.Microsecond)
			c.ScheduleLinkFlaps([]LinkFlapEvent{{Link: trunks[1].ID, At: 500 * time.Microsecond, Dur: 300 * time.Microsecond}})
			flows := []Flow{{h[0], h[3]}, {h[3], h[0]}, {h[1], h[2]}}
			c.StartFlows(flows, 6, 256, 100*time.Microsecond)
			c.RunFor(30 * time.Millisecond)
			defer c.Stop()

			if got := c.Now(); got.Sub(0) != 30*time.Millisecond {
				t.Errorf("Now = %v, want 30ms", got)
			}
			if got := c.Shards(); got != tc.cells {
				t.Errorf("Shards = %d, want %d", got, tc.cells)
			}
			for i := 0; i < c.Shards(); i++ {
				if c.CellKernel(i) == nil {
					t.Errorf("CellKernel(%d) = nil", i)
				}
			}
			if tc.cells == 1 {
				if c.Workers() != 1 || c.Epochs() != 0 || c.Exchanged() != 0 {
					t.Errorf("one cell: Workers %d, Epochs %d, Exchanged %d; want 1, 0, 0", c.Workers(), c.Epochs(), c.Exchanged())
				}
			} else if c.Workers() != 2 || c.Epochs() == 0 || c.Exchanged() == 0 {
				t.Errorf("Workers %d, Epochs %d, Exchanged %d; want 2 and two counts > 0", c.Workers(), c.Epochs(), c.Exchanged())
			}
			if c.TotalExecuted() == 0 {
				t.Error("TotalExecuted = 0")
			}

			seen := map[string]int{}
			for _, d := range c.Deliveries() {
				seen[fmt.Sprint(d.Src, d.Dst, d.Msg)]++
			}
			for _, f := range flows {
				for m := 1; m <= 6; m++ {
					if n := seen[fmt.Sprint(f.Src, f.Dst, m)]; n != 1 {
						t.Errorf("flow %d->%d msg %d delivered %d times, want 1", f.Src, f.Dst, m, n)
					}
				}
			}
			if c.DeliveredCount() != len(flows)*6 {
				t.Errorf("DeliveredCount = %d, want %d", c.DeliveredCount(), len(flows)*6)
			}
			reg := c.MergedObserver().Registry()
			if reg.CounterTotal("fabric.pkts_dropped") == 0 || reg.CounterTotal("nic.pkts-retransmitted") == 0 {
				t.Error("the flaps and the gray trunk cost no packet and no retransmission")
			}
			if len(c.TraceEvents()) == 0 {
				t.Error("TraceEvents is empty")
			}
			if !strings.Contains(string(c.DumpObservables()), "--- deliveries ---\nt=") {
				t.Error("DumpObservables lists no delivery")
			}
			if p := c.EngineProfile(); p == nil || len(p.Kernels) != tc.cells {
				t.Errorf("EngineProfile must hold one kernel entry per cell (%d)", tc.cells)
			}
		})
	}
}

// TestOneCellGuard: Observer, InstallTracer, Endpoint and StopSoon (and
// Metrics and EndpointAt through them) need a cell spanning every host.
// They work on the one-cell plan and panic with the guard's message on a
// plan of several cells.
func TestOneCellGuard(t *testing.T) {
	for _, tc := range plans {
		c := planCluster(tc.cfg)
		for _, g := range []struct {
			guard string
			call  func()
		}{
			{"Observer", func() { c.Observer() }},
			{"Observer", func() { c.Metrics() }},
			{"InstallTracer", func() { c.InstallTracer(nil) }},
			{"Endpoint", func() { c.Endpoint(c.Hosts[0]) }},
			{"Endpoint", func() { c.EndpointAt(0) }},
			{"StopSoon", func() { c.StopSoon() }},
		} {
			r := panicOf(g.call)
			want := "core: " + g.guard + " needs the one-cell plan"
			switch msg, _ := r.(string); {
			case tc.cells == 1 && r != nil:
				t.Errorf("%s: %s panicked: %v", tc.name, g.guard, r)
			case tc.cells > 1 && !strings.HasPrefix(msg, want):
				t.Errorf("%s: %s panicked with %v, want %q...", tc.name, g.guard, r, want)
			}
		}
		c.Stop()
	}
}

// TestMapperNeedsOneCell: New rejects on-demand mapping on a plan of
// several cells and says why.
func TestMapperNeedsOneCell(t *testing.T) {
	const want = "core: on-demand mapping needs the one-cell plan: its probes and echoes would cross epoch barriers"
	nw, hosts := topology.Star(4)
	r := panicOf(func() { New(Config{Net: nw, Hosts: hosts, FT: true, Mapper: true, Engine: EngineSharded}) })
	if r != want {
		t.Fatalf("panic %v, want %q", r, want)
	}
}

// TestStartFlowsRejectsBadFlows: a flow must join two distinct cluster
// hosts. A bad flow panics inside StartFlows, naming the flow, before any
// flow of the list is scheduled — a stranger source used to crash the
// whole binary later, inside the flow's simulated process.
func TestStartFlowsRejectsBadFlows(t *testing.T) {
	for _, tc := range plans {
		c := planCluster(tc.cfg)
		h, sw := c.Hosts, c.Net.Switches()[0]
		for _, bad := range []Flow{{sw, h[1]}, {h[0], sw}, {h[2], h[2]}} {
			before := scheduled(c)
			r := panicOf(func() { c.StartFlows([]Flow{{h[0], h[3]}, bad}, 4, 256, 0) })
			want := fmt.Sprintf("core: StartFlows flow 1 (%d->%d)", bad.Src, bad.Dst)
			if msg, _ := r.(string); !strings.HasPrefix(msg, want) {
				t.Errorf("%s: flow %v: panic %v, want %q...", tc.name, bad, r, want)
			}
			if scheduled(c) != before {
				t.Errorf("%s: flow %v: StartFlows scheduled events before it panicked", tc.name, bad)
			}
		}
		c.Stop()
	}
}

// TestScheduleLinkFlapsChecksFirst: an out-of-range link anywhere in the
// schedule panics before any event of it is scheduled, on any plan.
func TestScheduleLinkFlapsChecksFirst(t *testing.T) {
	for _, tc := range plans {
		c := planCluster(tc.cfg)
		before := scheduled(c)
		r := panicOf(func() {
			c.ScheduleLinkFlaps([]LinkFlapEvent{{Link: 0, At: time.Millisecond}, {Link: len(c.Net.Links)}})
		})
		if r == nil || scheduled(c) != before {
			t.Errorf("%s: panic %v, %d events scheduled; want a panic and none", tc.name, r, scheduled(c)-before)
		}
		c.Stop()
	}
}
