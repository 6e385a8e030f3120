package microbench

import (
	"runtime"
	"testing"
	"time"
)

// TestUnidirectional4ByteFTAllocs pins the steady-state allocation cost of
// one 4-byte FT message on a 2-host star: VMMC send, NIC firmware,
// go-back-N bookkeeping, the wormhole fabric, the ack, and the receive
// notification. A message allocates nothing: its data frame comes from the
// cell's frame list and goes back once its last holder lets go, packets
// come from the cell's packet list, worms from the fabric's free list,
// retransmission entries from the sender's free list, ack frames from the
// frame list, and the delayed-ack timer is a record per peer; what is left
// is the run's own setup and the lists' warm-up. Until data frames were
// pooled it was 1.01, the data frame; before the rest of that recycling
// 7.1 — the data packet and its worm, the ack packet and its worm, one
// entry, the data frame and the ack frame. Before bound handlers a message
// allocated 40.6 times: per-hop closures in the fabric, per-stage closures
// in the NIC firmware, a closure per Proc wake-up, regrowing queues, and a
// fresh payload per message; until the typed Mailbox, the boxed
// Notification made 8.1.
func TestUnidirectional4ByteFTAllocs(t *testing.T) {
	const (
		msgs    = 20000
		ceiling = 0.05
	)
	c := cluster(true, 32, time.Millisecond, 0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := Unidirectional(c, 4, msgs)
	runtime.ReadMemStats(&m1)
	if res.Messages != msgs {
		t.Fatalf("received %d messages, want %d", res.Messages, msgs)
	}
	per := float64(m1.Mallocs-m0.Mallocs) / msgs
	t.Logf("%.3f allocs per 4-byte FT message", per)
	if per > ceiling {
		t.Fatalf("a 4-byte FT message allocates %.3f times, ceiling %.2f", per, ceiling)
	}
}

// TestUnidirectional64KFTAllocs: a 64 KB FT message is sixteen chunks, each
// a data frame from the cell's frame list, sent from the process-wide zero
// buffer and reassembled in its source's record, so a message allocates
// nothing. A run's own setup (the cluster, its export and processes, the
// lists' warm-up) does not depend on how many messages it sends, so the
// gate reads the allocations the second of two runs makes beyond the
// first, per message it sends beyond it. Until data frames were pooled a
// message allocated 16.3 times: a frame per chunk, and the payload block
// of the go-back-N copies.
func TestUnidirectional64KFTAllocs(t *testing.T) {
	const (
		base, more = 200, 1200
		ceiling    = 0.05
	)
	allocs := func(msgs int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := Unidirectional(cluster(true, 32, time.Millisecond, 0), 64<<10, msgs)
		runtime.ReadMemStats(&m1)
		if res.Messages != msgs {
			t.Fatalf("received %d messages, want %d", res.Messages, msgs)
		}
		return m1.Mallocs - m0.Mallocs
	}
	a, b := allocs(base), allocs(more)
	per := (float64(b) - float64(a)) / (more - base)
	t.Logf("%d allocs for %d messages, %d for %d: %.3f per 64 KB FT message", a, base, b, more, per)
	if per > ceiling {
		t.Fatalf("a 64 KB FT message allocates %.3f times, ceiling %.2f", per, ceiling)
	}
}
