package sanft

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
)

// profiledGateRun executes the reference parallel scenario with the
// profiler on and returns the cluster's collected profile.
func profiledGateRun(t *testing.T, workers int) *EngineProfile {
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
	s.RunFor(40 * time.Millisecond)
	s.Stop()
	p := s.EngineProfile()
	if p == nil {
		t.Fatal("EngineProfile returned nil with profiling enabled")
	}
	return p
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
// and the coordinator's awake time equals the engine's Run wall-clock.
// Every clock read closes one bucket and opens the next, so a worker
// descheduled anywhere still has its time land in some bucket. GOMAXPROCS
// is raised to 4 so the engine actually spins up helpers even on small CI
// machines.
func TestEngineProfileAccountingInvariant(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	p := profiledGateRun(t, 4)
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

	// The coordinator is awake for exactly the time spent inside Run.
	if w0 := &p.Workers[0]; w0.AwakeNS != p.Engine.RunWallNS {
		t.Errorf("coordinator awake %dns vs run wall %dns", w0.AwakeNS, p.Engine.RunWallNS)
	}
}

// TestEngineProfileSpans drives Cluster.ProfileSpans end to end on the
// gate scenario: the capped per-worker span logs render a Perfetto trace
// that parses, names the track of every span, holds no worker above the
// cap and reports the spans the cap turned away, while the simulation's
// observable output stays byte-identical to an unprofiled run.
func TestEngineProfileSpans(t *testing.T) {
	const spanCap = 64
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)

	run := func(profiled bool) (*Cluster, []byte) {
		f := NewFig2()
		opts := append(gateOptions(f, 7), WithEngine(EngineSharded), WithWorkers(2))
		if profiled {
			opts = append(opts, WithEngineProfiling())
		}
		s := New(opts...)
		s.ProfileSpans(spanCap) // a no-op without profiling
		gateFlaps(s)
		s.StartFlows(gateFlows(f), 8, 512, 200*time.Microsecond)
		s.RunFor(40 * time.Millisecond)
		dump := s.DumpObservables()
		s.Stop()
		return s, dump
	}
	_, base := run(false)
	s, dump := run(true)
	if !bytes.Equal(dump, base) {
		t.Fatal("span-profiled dump diverged from the unprofiled run")
	}

	p := s.EngineProfile()
	if p.SpansDropped == 0 {
		t.Fatalf("%d spans recorded and none dropped: the cap of %d per worker never bit", len(p.Spans), spanCap)
	}
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("Perfetto trace is not JSON: %v", err)
	}
	named := map[int]bool{}
	for _, e := range trace.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			named[e.Tid] = true
		}
	}
	perWorker := map[int]int{}
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if !named[e.Tid] {
			t.Fatalf("span %q on tid %d has no thread_name record", e.Name, e.Tid)
		}
		perWorker[e.Tid]++
	}
	if len(perWorker) == 0 {
		t.Fatal("trace holds no spans")
	}
	for w, n := range perWorker {
		if n > spanCap {
			t.Errorf("worker %d holds %d spans, cap %d", w, n, spanCap)
		}
	}
	t.Logf("%d spans over %d workers, %d dropped", len(p.Spans), len(perWorker), p.SpansDropped)
}

// TestEngineProfileSequential: the sequential engine has no epoch loop to
// account, but kernel counters and pool traffic still profile.
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
	var text bytes.Buffer
	if err := p.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "kernels:") {
		t.Fatalf("text report missing kernels:\n%s", text.String())
	}
}

// TestEngineProfilePoolsMatchCounters: the free lists count their own
// traffic, and on a profiled one-cell run it agrees with the registry —
// the packet pool served one packet per packet a NIC put on the wire
// (nic.pkts-sent), and the frame pool one frame per explicit ack
// (nic.acks-sent), with and without send-side errors.
func TestEngineProfilePoolsMatchCounters(t *testing.T) {
	for _, rate := range []float64{0, 1e-2} {
		s := New(WithStar(2), WithFaultTolerance(), WithErrorRate(rate), WithEngineProfiling())
		UnidirectionalBandwidth(s, 4096, 200)
		s.Stop()
		var sent, acks uint64
		for i := range s.Hosts {
			ctr := s.NICAt(i).Counters()
			sent += ctr.Get("pkts-sent")
			acks += ctr.Get("acks-sent")
		}
		pools := s.EngineProfile().Pools
		if sent == 0 || acks == 0 || pools.PacketGets != sent || pools.FrameGets != acks {
			t.Errorf("error rate %g: %d packet gets for %d packets sent, %d frame gets for %d acks sent",
				rate, pools.PacketGets, sent, pools.FrameGets, acks)
		}
		t.Logf("error rate %g: %d packets sent, %d acks sent, pools %+v", rate, sent, acks, pools)
	}
}
