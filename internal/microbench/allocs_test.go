package microbench

import (
	"runtime"
	"testing"
	"time"
)

// TestUnidirectional4ByteFTAllocs pins the steady-state allocation cost of
// one 4-byte FT message on a 2-host star: VMMC send, NIC firmware,
// go-back-N bookkeeping, the wormhole fabric, the ack, and the receive
// notification. A message allocates its data frame (with its payload in
// the same block) and nothing else: packets come from the fabric's pool,
// worms from the fabric's free list, retransmission entries from the
// sender's free list, ack frames from proto's pool, and the delayed-ack
// timer is a record per peer. Before that recycling it was 7.1 — the data
// packet and its worm, the ack packet and its worm, one entry, the data
// frame and the ack frame. Before bound handlers a message allocated 40.6
// times: per-hop closures in the fabric, per-stage closures in the NIC
// firmware, a closure per Proc wake-up, regrowing queues, and a fresh
// payload per message; until the typed Mailbox, the boxed Notification
// made 8.1.
func TestUnidirectional4ByteFTAllocs(t *testing.T) {
	const (
		msgs    = 20000
		ceiling = 1.1
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
	t.Logf("%.2f allocs per 4-byte FT message", per)
	if per > ceiling {
		t.Fatalf("a 4-byte FT message allocates %.2f times, ceiling %.1f", per, ceiling)
	}
}
