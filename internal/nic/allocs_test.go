package nic

import (
	"testing"
	"time"

	"sanft/internal/sim"
	"sanft/internal/topology"
)

// TestIdleTimerAllocs pins the retransmission timer on idle NICs: after
// every host has talked to a peer (so each sender has a destination to
// scan), a simulated millisecond of nothing but timer scans on a 16-host
// FT star must not allocate.
func TestIdleTimerAllocs(t *testing.T) {
	r := newRig(t, 16, func(int) Options {
		o := ftOpts(32, time.Millisecond)
		o.Retrans.PermFailThreshold = 5 * time.Millisecond
		o.OnPathStale = func(dst topology.NodeID) { t.Errorf("idle path to %d reported stale", dst) }
		return o
	})
	for i, src := range r.hosts {
		src, dst := src, r.hosts[(i+1)%len(r.hosts)]
		r.k.Spawn("warmup", func(p *sim.Proc) {
			r.nics[src].Send(p, dataFrame(dst, 1, make([]byte, 64)))
		})
	}
	r.k.RunFor(10 * time.Millisecond)
	defer r.k.Stop()
	for _, h := range r.hosts {
		if r.nics[h].ProtoSender().TotalUnacked() != 0 {
			t.Fatalf("host %d still has unacked packets after warm-up", h)
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		r.k.RunFor(time.Millisecond)
	})
	if avg != 0 {
		t.Fatalf("one idle millisecond on 16 FT NICs allocates %.2f allocs, want 0", avg)
	}
}
