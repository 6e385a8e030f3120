package retrans

import (
	"testing"
	"time"

	"sanft/internal/sim"
	"sanft/internal/topology"
)

// newAdaptive returns an adaptive sender at T = 1ms: RTOMin is 200µs and
// the cap 8 × T = 8ms.
func newAdaptive() *Sender {
	return NewAdaptiveSender(Config{QueueSize: 8, Interval: time.Millisecond})
}

func tAt(us int64) sim.Time { return sim.Time(0).Add(time.Duration(us) * time.Microsecond) }

// sendOne prepares and "transmits" one packet to dst at the given time.
func sendOne(s *Sender, dst int, at sim.Time) *Entry {
	e := s.Prepare(topoID(dst), at, s.Config().QueueSize, nil, 64)
	s.OnTransmitted(e, at)
	return e
}

func topoID(d int) topology.NodeID { return topology.NodeID(d) }

// TestAdaptiveRTOFromSamples: RTT samples move the timeout off the fixed
// interval, per Jacobson's estimator, clamped below by RTOMin.
func TestAdaptiveRTOFromSamples(t *testing.T) {
	s := newAdaptive()
	dst := topoID(1)
	sendOne(s, 1, tAt(0))

	// No samples yet: fixed interval in force.
	if got := s.TimeoutFor(dst); got != time.Millisecond {
		t.Fatalf("pre-sample timeout = %v, want 1ms", got)
	}
	// First sample seeds SRTT = rtt, RTTVAR = rtt/2 → RTO = 3·rtt,
	// floored at RTOMin.
	s.ObserveRTT(dst, 20*time.Microsecond)
	if got := s.TimeoutFor(dst); got != 200*time.Microsecond {
		t.Fatalf("timeout after 20µs sample = %v, want RTOMin 200µs", got)
	}
	// A large steady RTT dominates the floor: SRTT converges toward 1ms.
	for i := 0; i < 64; i++ {
		s.ObserveRTT(dst, time.Millisecond)
	}
	got := s.TimeoutFor(dst)
	if got < time.Millisecond || got > 2*time.Millisecond {
		t.Fatalf("converged timeout = %v, want ~1ms–2ms", got)
	}
}

// TestKarnAmbiguousAckIgnored: an ack that frees a retransmitted entry
// must not produce an RTT sample (the measured span would be ambiguous).
func TestKarnAmbiguousAckIgnored(t *testing.T) {
	s := newAdaptive()
	dst := topoID(1)
	e := sendOne(s, 1, tAt(0))
	e.Retransmits = 1 // pretend the timer resent it
	s.OnAck(dst, e.Gen, e.Seq, tAt(5000))
	if s.TimeoutFor(dst) != time.Millisecond {
		t.Fatalf("ambiguous ack moved the timeout: %v", s.TimeoutFor(dst))
	}
	// A clean entry does sample.
	e2 := sendOne(s, 1, tAt(6000))
	s.OnAck(dst, e2.Gen, e2.Seq, tAt(6050))
	if s.TimeoutFor(dst) == time.Millisecond {
		t.Fatal("unambiguous ack produced no sample")
	}
}

// TestKarnBackoff: each unanswered burst doubles the timeout (capped at
// 8 × Interval); a fresh sample or a generation reset clears the backoff.
func TestKarnBackoff(t *testing.T) {
	s := newAdaptive()
	dst := topoID(1)
	sendOne(s, 1, tAt(0))
	s.ObserveRTT(dst, 100*time.Microsecond) // RTO = 300µs → clamped 300µs? (100+4·50)
	base := s.TimeoutFor(dst)
	if base != 300*time.Microsecond {
		t.Fatalf("base RTO = %v, want 300µs", base)
	}
	// Fire the timer three times without progress; each burst doubles.
	now := tAt(0)
	for i, want := range []time.Duration{base * 2, base * 4, base * 8} {
		now = now.Add(s.TimeoutFor(dst) + time.Microsecond)
		bs := s.Tick(now)
		if len(bs) != 1 {
			t.Fatalf("burst %d: %d batches", i, len(bs))
		}
		if got := s.TimeoutFor(dst); got != want {
			t.Fatalf("after burst %d: timeout %v, want %v", i, got, want)
		}
	}
	// Cap at 8 × Interval.
	for i := 0; i < 6; i++ {
		now = now.Add(s.TimeoutFor(dst) + time.Microsecond)
		s.Tick(now)
	}
	if got := s.TimeoutFor(dst); got != 8*time.Millisecond {
		t.Fatalf("capped timeout = %v, want the 8ms cap", got)
	}
	// A fresh sample resets the backoff.
	s.ObserveRTT(dst, 100*time.Microsecond)
	if got := s.TimeoutFor(dst); got >= 2*base {
		t.Fatalf("sample did not clear backoff: %v", got)
	}
}

// TestFixedModeUnchanged: on a sender NewSender built, ObserveRTT is inert
// and the timeout stays the fixed interval — the paper's baseline, bit for
// bit.
func TestFixedModeUnchanged(t *testing.T) {
	s := NewSender(Config{QueueSize: 8, Interval: time.Millisecond})
	dst := topoID(1)
	sendOne(s, 1, tAt(0))
	s.ObserveRTT(dst, 10*time.Microsecond)
	if got := s.TimeoutFor(dst); got != time.Millisecond {
		t.Fatalf("fixed-mode timeout = %v, want 1ms", got)
	}
	bs := s.Tick(tAt(1500))
	if len(bs) != 1 || bs[0].Timeout != time.Millisecond {
		t.Fatalf("fixed-mode batch: %+v", bs)
	}
}

// TestDetectionBlindSpot pins the satellite fix: a packet that becomes
// eligible just AFTER a scan waits almost a full period before the next
// scan even sees it. Batch.Waited must expose that scan-quantization lag
// and Oldest must be Timeout + Waited — the honest detection latency.
func TestDetectionBlindSpot(t *testing.T) {
	s := NewSender(Config{QueueSize: 8, Interval: time.Millisecond})

	// Transmitted at t=0; eligible at t=1ms. A scan at t=990µs misses it.
	sendOne(s, 1, tAt(0))
	if bs := s.Tick(tAt(990)); len(bs) != 0 {
		t.Fatalf("premature batch: %+v", bs)
	}
	// The next scan lands at t=1990µs: the packet sat eligible for 990µs.
	bs := s.Tick(tAt(1990))
	if len(bs) != 1 {
		t.Fatalf("got %d batches, want 1", len(bs))
	}
	b := bs[0]
	if b.Oldest != 1990*time.Microsecond {
		t.Fatalf("Oldest = %v, want 1.99ms", b.Oldest)
	}
	if b.Timeout != time.Millisecond {
		t.Fatalf("Timeout = %v, want 1ms", b.Timeout)
	}
	if b.Waited != 990*time.Microsecond {
		t.Fatalf("Waited = %v, want 990µs (the blind spot)", b.Waited)
	}
	if b.Oldest != b.Timeout+b.Waited {
		t.Fatal("Oldest must decompose as Timeout + Waited")
	}
}

// TestNextDeadline: the earliest eligible head defines the deadline the
// adaptive NIC timer sleeps until; in-flight and unsent heads don't.
func TestNextDeadline(t *testing.T) {
	s := newAdaptive()
	if _, ok := s.NextDeadline(); ok {
		t.Fatal("deadline with no traffic")
	}
	e1 := sendOne(s, 1, tAt(0))
	sendOne(s, 2, tAt(100))
	s.ObserveRTT(topoID(2), 100*time.Microsecond) // dst2 RTO = 300µs

	dl, ok := s.NextDeadline()
	if !ok {
		t.Fatal("no deadline")
	}
	// dst1: 0 + 1ms (no samples); dst2: 100µs + 300µs = 400µs → min.
	if dl != tAt(400) {
		t.Fatalf("deadline = %v, want t=400µs", dl)
	}
	// An in-flight head is the NIC's business, not the timer's.
	e1.InFlight = 1
	s2 := s.dests[topoID(2)]
	s2.queue[0].InFlight = 1
	if _, ok := s.NextDeadline(); ok {
		t.Fatal("deadline while all heads in flight")
	}
}
