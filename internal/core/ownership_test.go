package core

import (
	"testing"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/proto"
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
