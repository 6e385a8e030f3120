package core_test

// Wires the shared proptest determinism contract into the core layer: a
// cluster on a generated topology, running lossy bidirectional traffic
// through a trunk flap, must produce a byte-identical metrics JSONL dump
// across same-seed runs.

import (
	"bytes"
	"testing"
	"time"

	"sanft/internal/core"
	"sanft/internal/proptest"
	"sanft/internal/retrans"
	"sanft/internal/sim"
)

func clusterDump(seed int64) []byte {
	nw, hosts := proptest.TopoSpec{Kind: proptest.TopoChain, Hosts: 2, Switches: 2, Width: 1}.Build()
	c := core.New(core.Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 4 * time.Millisecond,
		},
		Mapper:    true,
		ErrorRate: 0.02,
		Seed:      seed,
	})
	c.Observer().StartSampling(c.K, time.Millisecond)

	src, dst := hosts[0], hosts[len(hosts)-1]
	exp := c.Endpoint(dst).Export("in", 4096)
	c.K.Spawn("recv", func(p *sim.Proc) {
		for {
			exp.WaitNotification(p)
		}
	})
	c.K.Spawn("send", func(p *sim.Proc) {
		imp, _ := c.Endpoint(src).Import(dst, "in")
		for i := 0; i < 40; i++ {
			imp.Send(p, 0, make([]byte, 256), true)
			p.Sleep(time.Millisecond)
		}
	})
	// One trunk flap mid-run so the dump covers the remap path too.
	if trunks := nw.TrunkLinks(); len(trunks) > 0 {
		c.K.After(10*time.Millisecond, func() { c.Fab.KillLink(trunks[0]) })
		c.K.After(25*time.Millisecond, func() { nw.RestoreLink(trunks[0]) })
	}

	c.RunFor(100 * time.Millisecond)
	c.Stop()
	c.Observer().SampleNow(c.Now())
	var b bytes.Buffer
	if err := c.Observer().WriteJSONL(&b); err != nil {
		b.WriteString("jsonl error: " + err.Error() + "\n")
	}
	return b.Bytes()
}

func TestClusterMetricsDeterministic(t *testing.T) {
	seeds := []int64{5, 17}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		proptest.RequireDeterministic(t, seed, clusterDump)
	}
}
