package nic

import (
	"fmt"
	"testing"
	"time"

	"sanft/internal/liveness"
	"sanft/internal/sim"
	"sanft/internal/trace"
)

// dropNext drops the next data packet the NIC transmits, and no other.
type dropNext struct{ done bool }

func (d *dropNext) ShouldDrop() bool {
	drop := !d.done
	d.done = true
	return drop
}

// TestTimerFollowsLiveness: a NIC with liveness sessions retransmits on
// the adaptive timer, and one without on the paper's fixed timer. With
// sessions, the control round trips of a few intervals move the sender's
// timeout for its peer off the interval, and a dropped data frame is
// resent sooner than one interval after its send. Without them the
// timeout stays the interval, and the resend waits at least that long. A
// NIC that builds a fixed sender under liveness fails the first case.
func TestTimerFollowsLiveness(t *testing.T) {
	const interval = time.Millisecond
	for _, live := range []bool{true, false} {
		t.Run(fmt.Sprintf("liveness=%v", live), func(t *testing.T) {
			ring := trace.NewRing(1 << 14)
			r := newRig(t, 2, func(int) Options {
				o := ftOpts(8, interval)
				o.Tracer = ring
				if live {
					o.Liveness = &liveness.Config{}
				}
				return o
			})
			src, dst := r.hosts[0], r.hosts[1]
			var timeout time.Duration
			r.k.Spawn("sender", func(p *sim.Proc) {
				// The first frame gives the sender its state for dst,
				// which RTT samples feed; then sessions exchange control
				// packets for ten intervals. The second frame is dropped.
				r.nics[src].Send(p, dataFrame(dst, 1, make([]byte, 64)))
				p.Sleep(10 * interval)
				timeout = r.nics[src].ProtoSender().TimeoutFor(dst)
				r.nics[src].SetDropper(&dropNext{})
				r.nics[src].Send(p, dataFrame(dst, 2, make([]byte, 64)))
			})
			r.runFor(20 * interval)

			if len(r.rx[dst]) != 2 {
				t.Fatalf("delivered %d of 2 frames", len(r.rx[dst]))
			}
			var dropped, resent sim.Time
			for _, e := range ring.Events() {
				if e.Node != src || e.Msg != 2 {
					continue
				}
				switch {
				case e.Kind == trace.EvErrDrop && dropped == 0:
					dropped = e.At
				case e.Kind == trace.EvRetransmit && resent == 0:
					resent = e.At
				}
			}
			if dropped == 0 || resent == 0 {
				t.Fatalf("no drop and resend of frame 2 traced (drop at %v, resend at %v)", dropped, resent)
			}
			wait := resent.Sub(dropped)
			t.Logf("timeout %v; resent %v after the drop", timeout, wait)
			if live {
				if timeout == interval {
					t.Fatalf("timeout for the peer still %v after ten intervals of sessions", timeout)
				}
				if wait >= interval {
					t.Fatalf("dropped frame resent %v after its send, want under %v", wait, interval)
				}
				return
			}
			if timeout != interval {
				t.Fatalf("timeout for the peer %v without sessions, want %v", timeout, interval)
			}
			if wait < interval {
				t.Fatalf("dropped frame resent %v after its send, want at least %v", wait, interval)
			}
		})
	}
}
