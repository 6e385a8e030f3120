package core

import (
	"testing"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/proto"
	"sanft/internal/retrans"
	"sanft/internal/topology"
)

// blocksMade sums the packet and frame blocks every cell's lists have
// allocated.
func blocksMade(c *Cluster) (pkts, frames int) {
	for i := 0; i < c.Shards(); i++ {
		k := c.CellKernel(i)
		pkts += fabric.PacketsOf(k).Made()
		frames += proto.FramesOf(k).Made()
	}
	return pkts, frames
}

// TestPoolOwnershipAcrossCells: on a plan of one host per cell, run on 2
// workers, every pooled packet and frame goes back to the list of the
// cell that drew it. Two hosts trade traffic both ways while two more
// send into them, so a cell's list takes blocks back from several other
// cells at once (an unlocked push from another cell is a race); one flow
// goes one way only and outlasts the rest. Once that flow is the only
// traffic left its blocks must all come back: a release onto the
// releasing cell's list instead of home leaves the sender short by a
// block per message, and so does a draw that never takes the return
// stack.
func TestPoolOwnershipAcrossCells(t *testing.T) {
	c := planCluster(Config{Engine: EngineSharded, Workers: 2})
	defer c.Stop()
	h := c.Hosts
	c.StartFlows([]Flow{{h[0], h[3]}, {h[3], h[0]}, {h[1], h[3]}, {h[2], h[0]}}, 150, 256, 10*time.Microsecond)
	c.StartFlows([]Flow{{h[1], h[2]}}, 600, 256, 20*time.Microsecond)

	c.RunFor(5 * time.Millisecond)
	warm := c.DeliveredCount()
	if warm < 4*150 {
		t.Fatalf("%d frames delivered by the end of the two-way traffic, want at least %d", warm, 4*150)
	}
	pkts, frames := blocksMade(c)
	c.RunFor(10 * time.Millisecond)
	oneWay := c.DeliveredCount() - warm
	if oneWay < 200 {
		t.Fatalf("%d frames of the one-way flow delivered after warm-up, want at least 200", oneWay)
	}
	if p, f := blocksMade(c); p != pkts || f != frames {
		t.Fatalf("%d one-way messages after warm-up allocated %d packet and %d frame blocks, want none",
			oneWay, p-pkts, f-frames)
	}
	if got, want := c.DeliveredCount(), 4*150+600; got != want {
		t.Fatalf("%d frames delivered, want %d", got, want)
	}
}

// TestDataFrameOwnershipCells runs the frame-level workload, whose data
// frames come from each sending cell's frame list, on plans of several
// cells under send-side drops and a lossy trunk, with and without the
// retransmission protocol. A data frame's block has one hold per holder,
// and a packet that crosses to another cell lets go of its hold once the
// boundary hook has copied it. Every delivery must be a message its flow
// sent, with the generation and sequence it was sent under (with FT:
// every message exactly once, in order), and once the traffic is over
// every block each cell's list made must be back on it but the frame of
// each packet the wire dropped.
func TestDataFrameOwnershipCells(t *testing.T) {
	const msgs = 200
	for _, tc := range []struct {
		name string
		ft   bool
		plan ShardPlan
	}{
		{"ft-host-per-cell", true, ShardPlan{}},
		{"ft-two-hosts-per-cell", true, ShardPlan{HostsPerShard: 2}},
		{"no-ft-two-hosts-per-cell", false, ShardPlan{HostsPerShard: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, hosts := topology.DoubleStar(4)
			c := New(Config{Net: nw, Hosts: hosts, FT: tc.ft, ErrorRate: 0.02, Seed: 9,
				Retrans: retrans.Config{QueueSize: 16, Interval: 200 * time.Microsecond},
				Engine:  EngineSharded, Plan: tc.plan, Workers: 2})
			defer c.Stop()
			for _, l := range nw.TrunkLinks() {
				c.SetLinkLoss(l.ID, 0.02)
			}
			h := hosts
			flows := []Flow{{h[0], h[2]}, {h[2], h[0]}, {h[1], h[3]}, {h[0], h[1]}, {h[3], h[2]}}
			c.StartFlows(flows, msgs, 512, 5*time.Microsecond)
			c.RunFor(50 * time.Millisecond)

			next := make(map[Flow]uint64)
			for _, d := range c.Deliveries() {
				f := Flow{d.Src, d.Dst}
				want := next[f] + 1
				if !tc.ft && d.Msg >= want {
					want = d.Msg // without FT a message may be lost, none repeated
				}
				if d.Msg != want || d.Msg > msgs || d.Gen != 0 || (tc.ft && d.Seq != d.Msg-1) || (!tc.ft && d.Seq != 0) {
					t.Fatalf("%v after message %d of its flow", d, next[f])
				}
				next[f] = d.Msg
			}
			for _, f := range flows {
				if tc.ft && next[f] != msgs {
					t.Fatalf("flow %d->%d delivered %d of %d messages", f.Src, f.Dst, next[f], msgs)
				}
			}
			reg := c.MergedObserver().Registry()
			dropped := reg.CounterTotal("fabric.pkts_dropped")
			if reg.CounterTotal("nic.err-injected-drops") == 0 || dropped == 0 || c.Exchanged() == 0 {
				t.Fatal("no send-side drops, wire drops or cell crossings: the run does not exercise what it is for")
			}
			// Count each list's free blocks by drawing until it has to
			// make one.
			out := 0
			for i := 0; i < c.Shards(); i++ {
				frames := proto.FramesOf(c.CellKernel(i))
				made, free := frames.Made(), 0
				for frames.NewAck(0, 0, 0); frames.Made() == made; frames.NewAck(0, 0, 0) {
					free++
				}
				out += made - free
			}
			if uint64(out) != dropped {
				t.Fatalf("%d frame blocks are out after the run, want %d, one per packet the wire dropped", out, dropped)
			}
		})
	}
}
