package retrans

import (
	"testing"
	"time"

	"sanft/internal/sim"
	"sanft/internal/topology"
)

// BenchmarkSenderPath measures the prepare→transmit→ack cycle: the
// firmware-equivalent per-packet protocol cost.
func BenchmarkSenderPath(b *testing.B) {
	s := NewSender(Config{QueueSize: 32})
	r := NewReceiver(Config{})
	dst := topology.NodeID(1)
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Microsecond)
		e := s.Prepare(dst, now, 32-s.Unacked(dst), nil, 4096)
		s.AckRequestFor(e, 32-s.Unacked(dst))
		s.OnTransmitted(e, now)
		v := r.OnData(dst, e.Gen, e.Seq, 0)
		if !v.Accept {
			b.Fatal("rejected")
		}
		gen, seq, _ := r.CumAck(dst)
		r.AckEmitted(dst)
		s.OnAck(dst, gen, seq, now)
	}
}

// BenchmarkTickIdle measures the periodic timer scan with nothing to do —
// the common-case overhead the paper's single-timer design minimizes.
func BenchmarkTickIdle(b *testing.B) {
	s := NewSender(Config{QueueSize: 32, Interval: time.Millisecond})
	now := sim.Time(0)
	for d := 0; d < 16; d++ {
		e := s.Prepare(topology.NodeID(d), now, 32, nil, 64)
		s.OnTransmitted(e, now)
		s.OnAck(topology.NodeID(d), 0, 0, now) // all acked: queues empty
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batches := s.Tick(now.Add(time.Duration(i) * time.Microsecond)); len(batches) != 0 {
			b.Fatal("unexpected retransmission")
		}
	}
}

// BenchmarkGoBackN measures a full retransmission burst of a 32-deep
// queue.
func BenchmarkGoBackN(b *testing.B) {
	dst := topology.NodeID(1)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewSender(Config{QueueSize: 32, Interval: time.Millisecond})
		for j := 0; j < 32; j++ {
			e := s.Prepare(dst, 0, 32-j, nil, 4096)
			s.OnTransmitted(e, 0)
		}
		b.StartTimer()
		batches := s.Tick(sim.Time(10 * time.Millisecond))
		if len(batches) != 1 || len(batches[0].Entries) != 32 {
			b.Fatal("bad batch")
		}
	}
}
