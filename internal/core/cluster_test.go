package core

import (
	"testing"
	"time"

	"sanft/internal/liveness"
	"sanft/internal/proto"
	"sanft/internal/retrans"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

func TestDefaultStarBuild(t *testing.T) {
	c := New(Config{NumHosts: 4, FT: true, Seed: 1})
	if len(c.Hosts) != 4 {
		t.Fatalf("hosts = %d", len(c.Hosts))
	}
	for i := range c.Hosts {
		if c.NICAt(i) == nil || c.EndpointAt(i) == nil {
			t.Fatalf("host %d missing NIC or endpoint", i)
		}
		if !c.NICAt(i).FT() {
			t.Fatal("FT not enabled")
		}
		// Routes to every other host pre-installed.
		if got := len(c.NICAt(i).Destinations()); got != 3 {
			t.Fatalf("host %d has %d routes, want 3", i, got)
		}
	}
	if c.Mapper(c.Host(0)) != nil {
		t.Fatal("mapper should be nil when disabled")
	}
}

func TestZeroConfigDefaultsToTwoHosts(t *testing.T) {
	c := New(Config{})
	if len(c.Hosts) != 2 {
		t.Fatalf("hosts = %d, want 2", len(c.Hosts))
	}
}

func TestMapperRequiresFT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mapper without FT should panic")
		}
	}()
	New(Config{NumHosts: 2, Mapper: true})
}

func TestEndToEndTransfer(t *testing.T) {
	c := New(Config{NumHosts: 2, FT: true, Seed: 1})
	exp := c.EndpointAt(1).Export("x", 64)
	ok := false
	c.K.Spawn("send", func(p *sim.Proc) {
		imp, err := c.EndpointAt(0).Import(c.Host(1), "x")
		if err != nil {
			t.Error(err)
			return
		}
		imp.Send(p, 0, []byte{1, 2, 3}, true)
	})
	c.K.Spawn("recv", func(p *sim.Proc) {
		exp.WaitNotification(p)
		ok = true
	})
	c.RunFor(time.Millisecond)
	c.Stop()
	if !ok {
		t.Fatal("transfer failed")
	}
}

func TestErrorRateWiresDroppers(t *testing.T) {
	c := New(Config{NumHosts: 2, FT: true, ErrorRate: 0.05, Seed: 1})
	exp := c.EndpointAt(1).Export("x", 4096)
	got := 0
	c.K.Spawn("send", func(p *sim.Proc) {
		imp, _ := c.EndpointAt(0).Import(c.Host(1), "x")
		for i := 0; i < 100; i++ {
			imp.Send(p, 0, make([]byte, 512), true)
		}
	})
	c.K.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			exp.WaitNotification(p)
			got++
		}
		c.StopSoon()
	})
	c.RunFor(time.Second)
	c.Stop()
	if got != 100 {
		t.Fatalf("delivered %d/100", got)
	}
	if c.NICAt(0).Counters().Get("err-injected-drops") == 0 {
		t.Fatal("dropper never fired")
	}
}

func TestOnDemandRemapWiring(t *testing.T) {
	// Full-stack: with Mapper enabled, a permanent trunk failure is
	// detected and remapped without any manual wiring.
	nw, hosts := topology.DoubleStar(4)
	c := New(Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: retrans.Config{QueueSize: 16, Interval: time.Millisecond, PermFailThreshold: 10 * time.Millisecond},
		Mapper:  true,
		Seed:    3,
	})
	src, dst := c.Host(0), c.Host(3)
	exp := c.Endpoint(dst).Export("x", 4096)
	delivered := map[uint64]bool{}
	c.K.Spawn("recv", func(p *sim.Proc) {
		for len(delivered) < 10 {
			n := exp.WaitNotification(p)
			delivered[n.MsgID] = true
		}
	})
	c.K.Spawn("send", func(p *sim.Proc) {
		imp, _ := c.Endpoint(src).Import(dst, "x")
		for i := 0; i < 10; i++ {
			imp.Send(p, 0, make([]byte, 128), true)
			p.Sleep(300 * time.Microsecond)
		}
	})
	route, _ := c.NIC(src).Route(dst)
	c.K.After(500*time.Microsecond, func() {
		sw := nw.Switches()[0]
		c.Fab.KillLink(nw.Node(sw).Ports[route[0]])
	})
	c.RunFor(3 * time.Second)
	c.Stop()
	if remapTotal(c, "successes") != 1 {
		t.Fatalf("remaps = %d, want 1", remapTotal(c, "successes"))
	}
	if len(delivered) != 10 {
		t.Fatalf("delivered %d/10 distinct messages", len(delivered))
	}
}

func TestUnreachableCountsAndDropsPending(t *testing.T) {
	nw, hosts := topology.Star(2)
	c := New(Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: retrans.Config{QueueSize: 8, Interval: time.Millisecond, PermFailThreshold: 10 * time.Millisecond},
		Mapper:  true,
		Seed:    1,
	})
	src, dst := c.Host(0), c.Host(1)
	// Kill the destination's own link: no alternate route exists.
	c.Fab.KillLink(nw.Node(dst).Ports[0])
	c.K.Spawn("send", func(p *sim.Proc) {
		imp, _ := c.Endpoint(src).Import(dst, mustExport(c, dst))
		imp.Send(p, 0, make([]byte, 64), false)
	})
	c.RunFor(3 * time.Second)
	c.Stop()
	if remapTotal(c, "failures") != 1 {
		t.Fatalf("unreachables = %d, want 1", remapTotal(c, "failures"))
	}
	if c.NIC(src).ProtoSender().TotalUnacked() != 0 {
		t.Fatal("pending packets not dropped")
	}
}

// mustExport creates an export on dst and returns its name.
func mustExport(c *Cluster, dst topology.NodeID) string {
	c.Endpoint(dst).Export("sink", 4096)
	return "sink"
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (sim.Time, uint64) {
		c := New(Config{NumHosts: 3, FT: true, ErrorRate: 0.02, Seed: 9})
		exp := c.EndpointAt(2).Export("x", 4096)
		c.K.Spawn("send", func(p *sim.Proc) {
			imp, _ := c.EndpointAt(0).Import(c.Host(2), "x")
			for i := 0; i < 50; i++ {
				imp.Send(p, 0, make([]byte, 700), true)
			}
		})
		var last sim.Time
		c.K.Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				exp.WaitNotification(p)
				last = p.Now()
			}
			c.StopSoon()
		})
		c.RunFor(time.Second)
		c.Stop()
		return last, c.NICAt(0).Counters().Get("pkts-retransmitted")
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("runs diverged: (%v,%d) vs (%v,%d)", t1, r1, t2, r2)
	}
}

// TestLivenessRequiresFTOnBothEngines: both engines resolve their Config
// through one path, so both reject liveness sessions without the
// retransmission protocol, with the same panic.
func TestLivenessRequiresFTOnBothEngines(t *testing.T) {
	const want = "core: liveness sessions require the retransmission protocol"
	for _, eng := range []EngineKind{EngineSequential, EngineSharded} {
		func() {
			defer func() {
				if r := recover(); r != want {
					t.Errorf("%v engine: panic %v, want %q", eng, r, want)
				}
			}()
			New(Config{NumHosts: 2, Engine: eng, Liveness: &liveness.Config{}})
		}()
	}
}

func TestFrameTypesOnWireAreCounted(t *testing.T) {
	c := New(Config{NumHosts: 2, FT: true, Seed: 1})
	exp := c.EndpointAt(1).Export("x", 64)
	c.K.Spawn("send", func(p *sim.Proc) {
		imp, _ := c.EndpointAt(0).Import(c.Host(1), "x")
		imp.Send(p, 0, []byte{1}, true)
	})
	c.K.Spawn("recv", func(p *sim.Proc) {
		exp.WaitNotification(p)
	})
	c.RunFor(10 * time.Millisecond)
	c.Stop()
	reg := c.Metrics()
	injected := reg.CounterTotal("fabric.pkts_injected")
	delivered := reg.CounterTotal("fabric.pkts_delivered")
	if injected < 2 { // data + at least one ack eventually
		t.Fatalf("injected = %d", injected)
	}
	if delivered != injected {
		t.Fatalf("loss without injection: injected %d, delivered %d", injected, delivered)
	}
	_ = proto.FrameData
}
