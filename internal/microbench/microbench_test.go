package microbench

import (
	"testing"
	"time"

	"sanft/internal/core"
	"sanft/internal/retrans"
)

func cluster(ft bool, q int, interval time.Duration, errRate float64) *core.Cluster {
	return core.New(core.Config{
		FT:        ft,
		Retrans:   retrans.Config{QueueSize: q, Interval: interval},
		ErrorRate: errRate,
		Seed:      1,
	})
}

func TestLatency4ByteNoFT(t *testing.T) {
	res := Latency(cluster(false, 32, time.Millisecond, 0), 4, 20)
	if res.OneWay < 7500*time.Nanosecond || res.OneWay > 8500*time.Nanosecond {
		t.Fatalf("no-FT 4B latency = %v, want ≈8µs (paper)", res.OneWay)
	}
	if res.Breakdown.Total() != res.OneWay {
		t.Fatalf("breakdown %v does not sum to latency %v", res.Breakdown, res.OneWay)
	}
}

func TestLatency4ByteFT(t *testing.T) {
	res := Latency(cluster(true, 32, time.Millisecond, 0), 4, 20)
	if res.OneWay < 9500*time.Nanosecond || res.OneWay > 10500*time.Nanosecond {
		t.Fatalf("FT 4B latency = %v, want ≈10µs (paper)", res.OneWay)
	}
}

func TestLatencyOverheadSmallMessages(t *testing.T) {
	// Paper: FT adds at most 2.1µs for messages up to 64 bytes.
	for _, size := range []int{4, 8, 16, 32, 64} {
		noFT := Latency(cluster(false, 32, time.Millisecond, 0), size, 20)
		ft := Latency(cluster(true, 32, time.Millisecond, 0), size, 20)
		over := ft.OneWay - noFT.OneWay
		if over <= 0 || over > 2100*time.Nanosecond {
			t.Fatalf("size %d: FT latency overhead = %v, want (0, 2.1µs]", size, over)
		}
	}
}

func TestBandwidthCeiling(t *testing.T) {
	// Large messages saturate the PCI-limited ~120 MB/s.
	res := Unidirectional(cluster(false, 32, time.Millisecond, 0), 1<<20, 30)
	if res.MBps < 110 || res.MBps > 130 {
		t.Fatalf("no-FT 1MB unidirectional = %.1f MB/s, want ≈120", res.MBps)
	}
}

func TestBandwidthFTOverheadUnder4Percent(t *testing.T) {
	// Paper: < 4% bandwidth overhead for all sizes ≥ 4 KB.
	for _, size := range []int{4096, 65536, 1 << 20} {
		noFT := Unidirectional(cluster(false, 32, time.Millisecond, 0), size, 50)
		ft := Unidirectional(cluster(true, 32, time.Millisecond, 0), size, 50)
		if ft.MBps <= 0 || noFT.MBps <= 0 {
			t.Fatalf("size %d: zero bandwidth (ft %.1f, noft %.1f)", size, ft.MBps, noFT.MBps)
		}
		lost := (noFT.MBps - ft.MBps) / noFT.MBps
		if lost > 0.04 {
			t.Fatalf("size %d: FT bandwidth overhead %.1f%% (no-FT %.1f, FT %.1f), want <4%%",
				size, lost*100, noFT.MBps, ft.MBps)
		}
	}
}

func TestPingPongBandwidth(t *testing.T) {
	res := PingPong(cluster(true, 32, time.Millisecond, 0), 1<<20, 20)
	if res.MBps < 100 {
		t.Fatalf("FT 1MB ping-pong = %.1f MB/s, want ≥100", res.MBps)
	}
	small := PingPong(cluster(true, 32, time.Millisecond, 0), 4, 20)
	if small.MBps <= 0 || small.MBps > 5 {
		t.Fatalf("4B ping-pong = %.3f MB/s, want small positive", small.MBps)
	}
}

func TestBandwidthRobustToModerateErrors(t *testing.T) {
	// Paper Fig. 6: with T=1ms and q=32, bandwidth at error rate 1e-4
	// stays within ~10% of error-free for ≥4KB messages. As in the
	// paper's methodology, run enough packets for at least ten drops
	// (64KB messages = 16 packets each; 2000 messages = 32k packets ≈ 3
	// drops... use 1e-3-scale traffic: 7000 messages ≈ 11 drops at 1e-4).
	const iters = 7000
	clean := Unidirectional(cluster(true, 32, time.Millisecond, 0), 65536, iters)
	dirty := Unidirectional(cluster(true, 32, time.Millisecond, 1e-4), 65536, iters)
	lost := (clean.MBps - dirty.MBps) / clean.MBps
	if lost > 0.10 {
		t.Fatalf("bandwidth lost %.1f%% at 1e-4 errors (%.1f → %.1f), want ≤10%%",
			lost*100, clean.MBps, dirty.MBps)
	}
}

func TestShortTimerHurtsEvenWithoutErrors(t *testing.T) {
	// Paper Fig. 5: a 10µs timer degrades bandwidth by much more than a
	// 1ms timer even with no errors (spurious go-back-N retransmission).
	good := Unidirectional(cluster(true, 32, time.Millisecond, 0), 65536, 40)
	bad := Unidirectional(cluster(true, 32, 10*time.Microsecond, 0), 65536, 40)
	if bad.MBps >= good.MBps*0.95 {
		t.Fatalf("10µs timer (%.1f MB/s) should clearly underperform 1ms (%.1f MB/s)",
			bad.MBps, good.MBps)
	}
}

func TestLongTimerHurtsUnderErrors(t *testing.T) {
	// Paper Fig. 6: a 1s timer collapses under errors (recovery takes a
	// full second per drop). 1250 messages × 16 packets ≈ 20 drops at
	// 1e-3.
	good := Unidirectional(cluster(true, 32, time.Millisecond, 1e-3), 65536, 1250)
	bad := Unidirectional(cluster(true, 32, time.Second, 1e-3), 65536, 1250)
	if bad.MBps >= good.MBps/2 {
		t.Fatalf("1s timer at 1e-3 errors (%.1f MB/s) should collapse vs 1ms (%.1f MB/s)",
			bad.MBps, good.MBps)
	}
}

func TestTinyQueueLimitsBandwidth(t *testing.T) {
	// Paper Fig. 7: q=2 clearly underperforms q≥8.
	q2 := Unidirectional(cluster(true, 2, time.Millisecond, 0), 65536, 40)
	q8 := Unidirectional(cluster(true, 8, time.Millisecond, 0), 65536, 40)
	if q2.MBps >= q8.MBps*0.95 {
		t.Fatalf("q=2 (%.1f MB/s) should clearly underperform q=8 (%.1f MB/s)", q2.MBps, q8.MBps)
	}
}

// TestPingPongSwitches: in a ping-pong each side runs the event loop
// while it waits, so a round trip costs at most two goroutine switches
// (one to each side's wake-up) plus the run's start and end, at any
// message size. Before the loop followed the waiting Proc, every wake-up
// was a two-switch round trip through a kernel goroutine: 8 per round
// trip at 4 B and 4 KB, 68 at 64 KB.
func TestPingPongSwitches(t *testing.T) {
	const iters, slack = 50, 8
	for _, size := range []int{4, 4096, 65536} {
		c := cluster(true, 32, time.Millisecond, 0)
		res := PingPong(c, size, iters)
		if res.Messages != iters {
			t.Fatalf("size %d: %d round trips, want %d", size, res.Messages, iters)
		}
		got := c.K.Stats().Switches
		t.Logf("size %d: %.2f switches per round trip", size, float64(got)/iters)
		if got > 2*iters+slack {
			t.Fatalf("size %d: %d round trips cost %d switches, want at most %d",
				size, iters, got, 2*iters+slack)
		}
	}
}

// TestUnidirectionalSwitches: a streaming sender and its receiver cost at
// most two goroutine switches per message plus the run's start and end.
func TestUnidirectionalSwitches(t *testing.T) {
	const iters, slack = 200, 8
	for _, size := range []int{4, 65536} {
		c := cluster(true, 32, time.Millisecond, 0)
		res := Unidirectional(c, size, iters)
		if res.Messages != iters {
			t.Fatalf("size %d: %d messages, want %d", size, res.Messages, iters)
		}
		got := c.K.Stats().Switches
		t.Logf("size %d: %.2f switches per message", size, float64(got)/iters)
		if got > 2*iters+slack {
			t.Fatalf("size %d: %d messages cost %d switches, want at most %d",
				size, iters, got, 2*iters+slack)
		}
	}
}

// TestUnidirectional64KHeapShare: on a 2-host FT star streaming 64 KB
// messages, almost every event is scheduled ahead of whatever the
// kernel's heap holds, so it waits in the kernel's sorted front and never
// enters the heap. The run is deterministic, so the counts are exact: 74
// of 9,662 events entered the heap when this gate was set (before the
// front, every event did), and it fails above 5 %.
func TestUnidirectional64KHeapShare(t *testing.T) {
	const msgs = 40
	c := cluster(true, 32, time.Millisecond, 0)
	res := Unidirectional(c, 65536, msgs)
	if res.Messages != msgs {
		t.Fatalf("%d messages, want %d", res.Messages, msgs)
	}
	s := c.K.Stats()
	t.Logf("%d of %d executed events entered the heap (%d scheduled)", s.Heaped, s.Executed, s.Scheduled)
	if s.Heaped*20 > s.Executed {
		t.Fatalf("%d of %d executed events entered the heap, want at most 5 %%", s.Heaped, s.Executed)
	}
}
