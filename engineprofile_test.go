package sanft

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
)

// profiledGateRun executes the reference parallel scenario with the
// profiler on and returns the cluster's collected profile.
func profiledGateRun(t *testing.T, workers int) (*EngineProfile, time.Duration) {
	t.Helper()
	f := NewFig2()
	s := New(
		WithTopology(f.Net, nil),
		WithSeed(7),
		WithRetrans(RetransConfig{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 50 * time.Millisecond,
		}),
		WithFaultTolerance(),
		WithEngine(EngineSharded),
		WithWorkers(workers),
		WithEngineProfiling(),
	)
	s.StartFlows(gateFlows(f), 8, 512, 200*time.Microsecond)
	start := time.Now()
	s.RunFor(40 * time.Millisecond)
	span := time.Since(start)
	s.Stop()
	p := s.EngineProfile()
	if p == nil {
		t.Fatal("EngineProfile returned nil with profiling enabled")
	}
	return p, span
}

// TestEngineProfileOffByteIdentical is the differential gate of the
// profiler: with profiling off vs on, and across worker counts with
// profiling on, the complete observable output must stay byte-identical —
// the profiler reads wall clocks but feeds nothing back.
func TestEngineProfileOffByteIdentical(t *testing.T) {
	base := gateDump(t, 7, 1)
	for _, w := range []int{1, 2, 4} {
		if got := gateDump(t, 7, w, WithEngineProfiling()); !bytes.Equal(got, base) {
			t.Fatalf("profiled dump (workers=%d) diverged from unprofiled workers=1 baseline", w)
		}
	}
}

// TestEngineProfileAccountingInvariant pins the profiler's documented
// invariant: for every worker that woke at all, the explained buckets
// (busy + stall + steal + exchange) sum to its awake wall-clock exactly,
// and the engine's Run wall-clock lies within the span the test's own
// clock measures around the run (a Run that counted an epoch twice would
// pass it). Every clock read closes one bucket and opens the next, so a
// worker descheduled anywhere still has its time land in some bucket.
// GOMAXPROCS is raised to 4 so the engine actually spins up helpers even
// on small CI machines.
func TestEngineProfileAccountingInvariant(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	p, span := profiledGateRun(t, 4)
	if p.Engine.Epochs == 0 || p.Engine.RunWallNS <= 0 {
		t.Fatalf("empty engine stats: %+v", p.Engine)
	}
	if p.TotalEvents() == 0 {
		t.Fatal("no kernel events recorded")
	}

	checked := 0
	for i := range p.Workers {
		w := &p.Workers[i]
		acc := w.BusyNS + w.StallNS + w.StealNS + w.ExchangeNS
		if w.AwakeNS == 0 && acc == 0 {
			continue // helper slot that never woke (GOMAXPROCS cap)
		}
		checked++
		if w.AwakeNS <= 0 {
			t.Fatalf("worker %d: accounted %dns with zero awake time", w.Worker, acc)
		}
		if acc != w.AwakeNS {
			t.Errorf("worker %d: accounted %dns vs awake %dns (off by %dns)",
				w.Worker, acc, w.AwakeNS, acc-w.AwakeNS)
		}
	}
	if checked == 0 {
		t.Fatal("no worker recorded any activity")
	}

	// Run is timed inside the span the test measured around it.
	if wall := p.Engine.RunWallNS; wall <= 0 || wall > span.Nanoseconds() {
		t.Errorf("run wall %dns outside the measured span of %dns", wall, span.Nanoseconds())
	}
}

// TestEngineProfileSequential: the sequential engine has no epoch loop to
// account, but kernel counters still profile and render.
func TestEngineProfileSequential(t *testing.T) {
	s := New(WithStar(2), WithFaultTolerance(), WithEngineProfiling())
	Latency(s, 64, 8)
	s.Stop()
	p := s.EngineProfile()
	if p == nil {
		t.Fatal("nil profile")
	}
	if p.Engine.Workers != 1 || p.Engine.Shards != 1 {
		t.Fatalf("sequential shape: %+v", p.Engine)
	}
	if len(p.Kernels) != 1 || p.Kernels[0].Executed == 0 {
		t.Fatalf("kernel counters missing: %+v", p.Kernels)
	}
	if p.Kernels[0].Scheduled < p.Kernels[0].Executed {
		t.Fatalf("scheduled %d < executed %d", p.Kernels[0].Scheduled, p.Kernels[0].Executed)
	}
	var js bytes.Buffer
	if err := p.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"kernels": [`) {
		t.Fatalf("JSON report missing kernels:\n%s", js.String())
	}
}
