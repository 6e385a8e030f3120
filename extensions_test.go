package sanft

import (
	"strings"
	"testing"
)

func TestRouteQualityExtension(t *testing.T) {
	rows := RunRouteQuality(17)
	if len(rows) == 0 {
		t.Fatal("no topologies analyzed")
	}
	for _, r := range rows {
		if r.Pairs == 0 {
			t.Fatalf("%s: no pairs", r.Topology)
		}
		if r.MeanUpDown < r.MeanShortest {
			t.Fatalf("%s: UP*/DOWN* mean %v shorter than shortest %v (impossible)",
				r.Topology, r.MeanUpDown, r.MeanShortest)
		}
	}
	// On a ring, UP*/DOWN* must inflate some routes (it cannot use the
	// link that closes the cycle in both directions).
	var ring RouteQualityRow
	for _, r := range rows {
		if r.Topology == "ring6" {
			ring = r
		}
	}
	if ring.Inflated == 0 {
		t.Fatal("ring: UP*/DOWN* inflated no routes — the quality gap should exist")
	}
	if !strings.Contains(RouteQualityReport(rows).String(), "ring6") {
		t.Fatal("render missing")
	}
}

func TestBurstErrorsExtension(t *testing.T) {
	rows := RunBurstErrors(65536, []float64{1e-2}, 8, Options{MaxMessages: 1500})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Uniform <= 0 || r.Bursty <= 0 {
		t.Fatalf("zero bandwidth: %+v", r)
	}
	// The paper's assertion: uniform errors are the more stressful test.
	// At equal rate, bursty loss costs one recovery per burst instead of
	// one per packet, so bursty throughput should be at least as good.
	if r.Bursty < r.Uniform*0.95 {
		t.Fatalf("bursty (%v) markedly worse than uniform (%v); contradicts the burst-amortization argument",
			r.Bursty, r.Uniform)
	}
	if !strings.Contains(BurstErrorReport(rows).String(), "burst") {
		t.Fatal("render missing")
	}
}

func TestStateScalingExtension(t *testing.T) {
	rows := RunStateScaling(2, []int{64})
	r := rows[0]
	if r.PerNodeQueues != 63 || r.PerConnQueues != 63*4 {
		t.Fatalf("row = %+v", r)
	}
	if !strings.Contains(StateScalingReport(rows).String(), "per-node") {
		t.Fatal("render missing")
	}
}

func TestReliabilityLevelsExtension(t *testing.T) {
	rows := RunReliabilityLevels(Options{MaxMessages: 400})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	unrel, rd, rr := rows[0], rows[1], rows[2]
	// Latency strictly ordered: unreliable < reliable delivery ≤ reliable
	// reception (the stronger level defers acks past the host DMA, which
	// does not change one-way data latency but must not reduce it).
	if !(unrel.Latency4B < rd.Latency4B) {
		t.Fatalf("reliable delivery (%v) should cost more than unreliable (%v)",
			rd.Latency4B, unrel.Latency4B)
	}
	if rr.Latency4B < rd.Latency4B {
		t.Fatalf("reliable reception (%v) should not beat reliable delivery (%v)",
			rr.Latency4B, rd.Latency4B)
	}
	// Bandwidth: all three sustain the PCI-bound rate within a few
	// percent (acks are off the critical path at q=32).
	for _, r := range rows[1:] {
		if r.UniMBps < unrel.UniMBps*0.95 {
			t.Fatalf("%s bandwidth %.1f too far below unreliable %.1f",
				r.Level, r.UniMBps, unrel.UniMBps)
		}
	}
}

func TestScalabilityExtension(t *testing.T) {
	rows := RunScalability([]int{2, 4, 8}, 65536, 6, Options{})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Aggregate <= 0 {
			t.Fatalf("row %+v has no throughput", r)
		}
		// The paper predicts occasional FALSE retransmissions under high
		// contention (§5.1.2: a short timeout "may lead to false
		// retransmissions in cases of high network contention") — a
		// packet queued behind other senders at a hot receiver can
		// out-wait the 1 ms timer. Allow a small fraction, not a storm.
		totalPkts := uint64(r.Hosts*(r.Hosts-1)*6) * (65536 / 4096)
		if r.Retransmissions > totalPkts/50 {
			t.Fatalf("%d hosts: %d retransmissions of %d packets — more than contention noise",
				r.Hosts, r.Retransmissions, totalPkts)
		}
		if i > 0 && r.Aggregate <= rows[i-1].Aggregate {
			t.Fatalf("aggregate throughput not scaling: %d hosts %.1f ≤ %d hosts %.1f",
				r.Hosts, r.Aggregate, rows[i-1].Hosts, rows[i-1].Aggregate)
		}
	}
	// Per-host throughput is bounded by the per-port PCI limit.
	for _, r := range rows {
		if r.PerHost > 130 {
			t.Fatalf("%d hosts: per-host %.1f exceeds the PCI bound", r.Hosts, r.PerHost)
		}
	}
}
