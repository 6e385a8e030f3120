package retrans

import (
	"math/rand"
	"testing"
	"time"

	"sanft/internal/sim"
	"sanft/internal/topology"
)

// TestTickStalePathsAllocs pins the NIC's periodic scan on an idle
// sender: with 16 known destinations and stale-path detection enabled,
// Tick and StalePaths must not allocate when there is nothing to report.
func TestTickStalePathsAllocs(t *testing.T) {
	s := NewSender(Config{QueueSize: 32, Interval: time.Millisecond, PermFailThreshold: 5 * time.Millisecond})
	now := sim.Time(0)
	for d := 0; d < 16; d++ {
		e := s.Prepare(topology.NodeID(d), now, 32, nil, 64)
		s.OnTransmitted(e, now)
		s.OnAck(topology.NodeID(d), 0, 0, now)
	}
	avg := testing.AllocsPerRun(10000, func() {
		now = now.Add(time.Millisecond)
		if s.Tick(now) != nil || s.StalePaths(now) != nil {
			t.Fatal("idle sender reported work")
		}
	})
	if avg != 0 {
		t.Fatalf("idle Tick+StalePaths allocates %.2f allocs/op, want 0", avg)
	}
}

// TestScanOrderAscending: Tick batches and StalePaths results come out in
// ascending NodeID order however the destinations were first seen.
func TestScanOrderAscending(t *testing.T) {
	const n = 16
	desc := make([]topology.NodeID, n)
	for i := range desc {
		desc[i] = topology.NodeID(n - 1 - i)
	}
	shuffled := make([]topology.NodeID, n)
	for i, p := range rand.New(rand.NewSource(7)).Perm(n) {
		shuffled[i] = topology.NodeID(3 * p) // sparse IDs
	}
	for name, dsts := range map[string][]topology.NodeID{"descending": desc, "shuffled": shuffled} {
		s := NewSender(Config{QueueSize: 64, Interval: time.Millisecond, PermFailThreshold: 2 * time.Millisecond})
		for _, d := range dsts {
			e := s.Prepare(d, 0, 64, nil, 64)
			s.OnTransmitted(e, 0)
		}
		now := sim.Time(5 * time.Millisecond)
		batches := s.Tick(now)
		stale := s.StalePaths(now)
		if len(batches) != n || len(stale) != n {
			t.Fatalf("%s: %d batches, %d stale paths, want %d each", name, len(batches), len(stale), n)
		}
		for i := 1; i < n; i++ {
			if batches[i-1].Dst >= batches[i].Dst {
				t.Fatalf("%s: batch %d dst %d not after %d", name, i, batches[i].Dst, batches[i-1].Dst)
			}
			if stale[i-1] >= stale[i] {
				t.Fatalf("%s: stale path %d dst %d not after %d", name, i, stale[i], stale[i-1])
			}
		}
	}
}

// TestSenderCycleAllocs pins the go-back-N bookkeeping of one packet:
// once warm, Prepare, OnTransmitted, a cumulative OnAck and Recycle of a
// run of eight entries allocate nothing. Entries come from the sender's
// free list, the queue is shifted in place and keeps its backing array,
// and the ack's result is the sender's scratch slice. (Before: an entry
// per packet, and the queue regrew after every ack sliced its head off.)
func TestSenderCycleAllocs(t *testing.T) {
	s := NewSender(Config{QueueSize: 32, Interval: time.Millisecond})
	const d = topology.NodeID(5)
	now := sim.Time(0)
	cycle := func() {
		var last *Entry
		for i := 0; i < 8; i++ {
			last = s.Prepare(d, now, 32, "payload", 64)
			s.OnTransmitted(last, now)
		}
		freed := s.OnAck(d, 0, last.Seq, now)
		if len(freed) != 8 {
			t.Fatalf("ack freed %d entries, want 8", len(freed))
		}
		s.Recycle(freed)
	}
	cycle()
	if avg := testing.AllocsPerRun(10000, cycle); avg != 0 {
		t.Fatalf("a cycle of 8 packets allocates %.2f times, want 0", avg)
	}
}
