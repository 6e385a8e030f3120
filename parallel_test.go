package sanft

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/parsim"
	"sanft/internal/proptest"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// gateFlows picks cross-switch flows on the Fig. 2 testbed: every pair
// crosses at least one trunk, so the link-flap schedule actually bites.
func gateFlows(f *topology.Fig2) []Flow {
	var flows []Flow
	// S0 hosts to S1/S2/S3 hosts and back — 12 directed flows.
	flows = append(flows,
		Flow{Src: f.HostsAt[0][0], Dst: f.HostsAt[1][0]},
		Flow{Src: f.HostsAt[1][0], Dst: f.HostsAt[0][0]},
		Flow{Src: f.HostsAt[0][1], Dst: f.HostsAt[2][0]},
		Flow{Src: f.HostsAt[2][0], Dst: f.HostsAt[0][1]},
		Flow{Src: f.HostsAt[0][2], Dst: f.HostsAt[3][0]},
		Flow{Src: f.HostsAt[3][0], Dst: f.HostsAt[0][2]},
		Flow{Src: f.HostsAt[1][1], Dst: f.HostsAt[2][1]},
		Flow{Src: f.HostsAt[2][1], Dst: f.HostsAt[1][1]},
		Flow{Src: f.HostsAt[1][2], Dst: f.HostsAt[3][1]},
		Flow{Src: f.HostsAt[3][1], Dst: f.HostsAt[1][2]},
		Flow{Src: f.HostsAt[0][3], Dst: f.HostsAt[1][3]},
		Flow{Src: f.HostsAt[2][2], Dst: f.HostsAt[3][2]},
	)
	return flows
}

// gateOptions are the reference scenario's cluster options: the Fig. 2
// testbed with a retransmitting NIC on every host.
func gateOptions(f *topology.Fig2, seed int64) []Option {
	return []Option{
		WithTopology(f.Net, nil),
		WithSeed(seed),
		WithRetrans(RetransConfig{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 50 * time.Millisecond,
		}),
		WithFaultTolerance(),
	}
}

// gateFlaps flaps two distinct trunks while the gate traffic is in
// flight (8 messages per flow at a 200µs gap: the last data frame lands
// at about 1.65ms). Packets die on the dead links mid-run and the
// retransmission protocol recovers them.
func gateFlaps(s *Cluster) {
	s.FlapTrunk(0, 400*time.Microsecond, 800*time.Microsecond)
	s.FlapTrunk(2, 700*time.Microsecond, 500*time.Microsecond)
}

// gateRun runs the reference parallel scenario — Fig. 2 topology, a
// link-flap schedule on two trunks, 12 cross-switch retransmitting flows
// — with the given worker count, and renders every observable output:
// merged delivery order, metrics summary + JSONL, Perfetto export, and
// each shard's post-run RNG state. It also returns the stopped cluster.
func gateRun(t testing.TB, seed int64, workers int, extra ...Option) ([]byte, *Cluster) {
	t.Helper()
	f := NewFig2()
	opts := append(gateOptions(f, seed), WithEngine(EngineSharded), WithWorkers(workers))
	s := New(append(opts, extra...)...)
	gateFlaps(s)
	s.StartFlows(gateFlows(f), 8, 512, 200*time.Microsecond)
	s.RunFor(40 * time.Millisecond)

	var b bytes.Buffer
	b.Write(s.DumpObservables())
	// Per-shard RNG discipline: the post-run generator state must also be
	// worker-independent (draws consumed only by shard-local events).
	b.WriteString("--- rng ---\n")
	for i := 0; i < s.Shards(); i++ {
		fmt.Fprintf(&b, "shard %d: %d\n", i, s.CellKernel(i).Rand().Int63())
	}
	s.Stop()
	return b.Bytes(), s
}

// gateDump is the observable dump of gateRun.
func gateDump(t testing.TB, seed int64, workers int, extra ...Option) []byte {
	t.Helper()
	dump, _ := gateRun(t, seed, workers, extra...)
	return dump
}

// requireRecovery fails the test unless the run lost packets on the
// flapped trunks and the retransmission protocol resent some: a gate
// whose faults miss the traffic proves nothing.
func requireRecovery(t *testing.T, s *Cluster) {
	t.Helper()
	reg := s.MergedObserver().Registry()
	dropped, resent := reg.CounterTotal("fabric.pkts_dropped"), reg.CounterTotal("nic.pkts-retransmitted")
	if dropped == 0 || resent == 0 {
		t.Fatalf("gate scenario saw %d drops and %d retransmissions, want both > 0", dropped, resent)
	}
}

// flowKey names one message of a flow.
type flowKey struct {
	src, dst NodeID
	msg      uint64
}

// deliveredOnce checks that ds holds every message 1..msgs of every flow
// exactly once and nothing else, and returns each message's delivery
// time.
func deliveredOnce(t *testing.T, flows []Flow, msgs int, ds []Delivery) map[flowKey]sim.Time {
	t.Helper()
	at := make(map[flowKey]sim.Time, len(ds))
	for _, d := range ds {
		k := flowKey{d.Src, d.Dst, d.Msg}
		if _, dup := at[k]; dup {
			t.Errorf("flow %d->%d msg %d delivered more than once", k.src, k.dst, k.msg)
		}
		at[k] = d.At
	}
	for _, fl := range flows {
		for m := 1; m <= msgs; m++ {
			if _, ok := at[flowKey{fl.Src, fl.Dst, uint64(m)}]; !ok {
				t.Errorf("flow %d->%d msg %d never delivered", fl.Src, fl.Dst, m)
			}
		}
	}
	if len(at) != len(flows)*msgs {
		t.Errorf("%d distinct messages delivered, want %d", len(at), len(flows)*msgs)
	}
	return at
}

// TestParallelByteIdentical is the differential determinism gate: the
// sharded engine's complete observable output — delivery order, metrics
// dump, trace export, RNG states — must be byte-identical for 1, 2, and
// 4 workers. The partition (one shard per host) defines the semantics;
// the worker count may only change wall-clock time.
func TestParallelByteIdentical(t *testing.T) {
	ref, s := gateRun(t, 7, 1)
	for _, w := range []int{2, 4} {
		got := gateDump(t, 7, w)
		if !bytes.Equal(ref, got) {
			diffLine := firstDiffLine(ref, got)
			t.Fatalf("workers=%d output differs from workers=1 (first differing line %d):\n  seq: %s\n  par: %s",
				w, diffLine.n, diffLine.a, diffLine.b)
		}
	}

	requireRecovery(t, s)
	// And a different seed must change the output — the dump must not be
	// trivially constant.
	other := gateDump(t, 8, 1)
	if bytes.Equal(ref, other) {
		t.Fatal("different seeds produced identical dumps — dump is not sensitive to the run")
	}
}

// TestParallelByteIdenticalLiveness re-runs the differential gate with
// per-path liveness sessions, and with them adaptive retransmission: session
// timers, jittered control traffic, and RTT observations all draw from
// session-local RNGs seeded from (cluster seed, src, dst) — never from a
// shard or worker — so the observable dump must stay byte-identical at
// any worker count. It must also differ from the baseline dump (the
// sessions must actually run) and stay seed-sensitive.
func TestParallelByteIdenticalLiveness(t *testing.T) {
	live := []Option{WithLiveness()}
	ref, s := gateRun(t, 7, 1, live...)
	requireRecovery(t, s)
	for _, w := range []int{2, 4} {
		got := gateDump(t, 7, w, live...)
		if !bytes.Equal(ref, got) {
			diffLine := firstDiffLine(ref, got)
			t.Fatalf("liveness workers=%d output differs from workers=1 (first differing line %d):\n  seq: %s\n  par: %s",
				w, diffLine.n, diffLine.a, diffLine.b)
		}
	}
	if !bytes.Contains(ref, []byte("liveness.tx")) {
		t.Fatal("liveness gate dump records no liveness.tx metric — sessions never ran")
	}
	if bytes.Equal(ref, gateDump(t, 7, 1)) {
		t.Fatal("liveness dump identical to baseline dump — options had no effect")
	}
	if bytes.Equal(ref, gateDump(t, 8, 1, live...)) {
		t.Fatal("different seeds produced identical liveness dumps")
	}
}

// TestParallelByteIdenticalCoarseShards re-runs the differential gate
// with a coarse partition (three hosts per shard): the shard plan — not
// the worker count — defines the semantics, so within one plan every
// worker count must produce the same bytes. The coarse dump legitimately
// differs from the fine-partition dump (different shard count, exchange
// counts, trace merge order); what must not vary is the worker count.
func TestParallelByteIdenticalCoarseShards(t *testing.T) {
	coarse := []Option{WithShardPlan(ShardPlan{HostsPerShard: 3})}
	ref, s := gateRun(t, 7, 1, coarse...)
	for _, w := range []int{2, 4} {
		got := gateDump(t, 7, w, coarse...)
		if !bytes.Equal(ref, got) {
			diffLine := firstDiffLine(ref, got)
			t.Fatalf("coarse workers=%d output differs from workers=1 (first differing line %d):\n  seq: %s\n  par: %s",
				w, diffLine.n, diffLine.a, diffLine.b)
		}
	}
	requireRecovery(t, s)
	if bytes.Equal(ref, gateDump(t, 8, 1, coarse...)) {
		t.Fatal("different seeds produced identical coarse dumps")
	}
}

// TestParallelByteIdentical1kHosts is the differential gate at datacenter
// scale: a 1024-host fat-tree (k=16) under a correlated link-flap storm,
// run with 1, 2, and 4 workers, must produce byte-identical observable
// dumps — and the run itself must pass the exactly-once delivery audit.
// Skipped under -short: each run simulates 64 shards through a 96-event
// storm (a few seconds of wall time per worker count).
func TestParallelByteIdentical1kHosts(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-host differential gate skipped in -short mode")
	}
	run := func(workers int) (*chaos.ScaleReport, []byte) {
		rep, err := chaos.RunScale(chaos.ScaleOpts{
			Topo:     "fattree:16",
			Scenario: "flapstorm",
			Seed:     7,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, rep.Dump()
	}
	refRep, ref := run(1)
	if !refRep.Passed() {
		t.Fatalf("reference run violates invariants: %v", refRep.Violations)
	}
	if refRep.Hosts != 1024 {
		t.Fatalf("fattree:16 built %d hosts, want 1024", refRep.Hosts)
	}
	if refRep.Faults == 0 || refRep.Delivered == 0 {
		t.Fatalf("gate proves nothing: %d faults, %d deliveries", refRep.Faults, refRep.Delivered)
	}
	for _, w := range []int{2, 4} {
		rep, got := run(w)
		if !rep.Passed() {
			t.Fatalf("workers=%d run violates invariants: %v", w, rep.Violations)
		}
		if !bytes.Equal(ref, got) {
			diffLine := firstDiffLine(ref, got)
			t.Fatalf("1k-host workers=%d output differs from workers=1 (first differing line %d):\n  seq: %s\n  par: %s",
				w, diffLine.n, diffLine.a, diffLine.b)
		}
	}
	// Seed sensitivity: a different storm must change the bytes.
	otherRep, other := func() (*chaos.ScaleReport, []byte) {
		rep, err := chaos.RunScale(chaos.ScaleOpts{
			Topo: "fattree:16", Scenario: "flapstorm", Seed: 8, Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, rep.Dump()
	}()
	if !otherRep.Passed() {
		t.Fatalf("seed-8 run violates invariants: %v", otherRep.Violations)
	}
	if bytes.Equal(ref, other) {
		t.Fatal("different seeds produced identical 1k-host dumps")
	}
}

type lineDiff struct {
	n    int
	a, b string
}

func firstDiffLine(a, b []byte) lineDiff {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return lineDiff{n: i + 1, a: string(la[i]), b: string(lb[i])}
		}
	}
	return lineDiff{n: len(la), a: "<end>", b: "<end>"}
}

// TestParallelRunToRunDeterministic: same seed, same worker count, two
// fresh runs — byte-identical (the proptest oracle contract, applied to
// the parallel engine at its highest tested worker count).
func TestParallelRunToRunDeterministic(t *testing.T) {
	proptest.RequireDeterministic(t, 11, func(seed int64) []byte {
		return gateDump(t, seed, 4)
	})
}

// TestParallelDeliversAllTraffic: the gate scenario is lossy mid-run
// (two trunk flaps inside the traffic window) but the retransmission
// protocol must still complete every message by quiesce.
func TestParallelDeliversAllTraffic(t *testing.T) {
	f := NewFig2()
	s := New(append(gateOptions(f, 3), WithEngine(EngineSharded), WithWorkers(2))...)
	defer s.Stop()
	gateFlaps(s)
	flows := gateFlows(f)
	const msgs = 8
	s.StartFlows(flows, msgs, 512, 200*time.Microsecond)
	s.RunFor(60 * time.Millisecond)

	// Every (flow, msg) must appear in the merged delivery log exactly
	// once (dedup by retransmission is the protocol's job).
	deliveredOnce(t, flows, msgs, s.Deliveries())
	requireRecovery(t, s)
	if s.Exchanged() == 0 {
		t.Fatal("no packets crossed shard boundaries — scenario exercised nothing")
	}
}

// fidelityRun runs the gate scenario with msgs messages per flow at the
// given send gap on one plan, checks that every message arrived exactly
// once, and returns each message's delivery time and the run's drops.
func fidelityRun(t *testing.T, seed int64, msgs int, gap time.Duration, plan ...Option) (map[flowKey]sim.Time, uint64) {
	t.Helper()
	f := NewFig2()
	s := New(append(gateOptions(f, seed), plan...)...)
	defer s.Stop()
	gateFlaps(s)
	flows := gateFlows(f)
	s.StartFlows(flows, msgs, 512, gap)
	s.RunFor(60 * time.Millisecond)
	at := deliveredOnce(t, flows, msgs, s.Deliveries())
	return at, s.MergedObserver().Registry().CounterTotal("fabric.pkts_dropped")
}

// TestParallelOneCellFidelity is the fidelity gate of the cells' wire. A
// plan of several cells swaps the wormhole fabric for the
// contention-free Pipe, which the retransmission protocol tolerates
// (DESIGN §6e); this measures what the swap costs. The gate scenario,
// flapping inside its traffic window, runs as one cell (the wormhole
// fabric), as one host per cell and as three hosts per cell: every run
// must deliver every message exactly once, with drops on every run. The
// gate is on the delivery sets, not on latency: a load sweep only logs
// the per-message delivery-time difference Δ (one cell minus one host
// per cell) that DESIGN §6e tabulates.
func TestParallelOneCellFidelity(t *testing.T) {
	plans := []struct {
		name string
		opts []Option
	}{
		{"one cell", nil},
		{"one host per cell", []Option{WithEngine(EngineSharded), WithWorkers(2)}},
		{"3 hosts per cell", []Option{WithShardPlan(ShardPlan{HostsPerShard: 3}), WithWorkers(2)}},
	}
	for _, p := range plans {
		if _, drops := fidelityRun(t, 7, 8, 200*time.Microsecond, p.opts...); drops == 0 {
			t.Errorf("%s: no packet dropped — the flaps missed the traffic", p.name)
		}
	}

	// The sweep scales the message count so that every flow still sends
	// after the last trunk heals (1.2ms), at every load. One seed serves:
	// the scenario injects no random loss and runs no liveness jitter, so
	// every seed gives the same delivery times.
	for _, gap := range []time.Duration{400 * time.Microsecond, 100 * time.Microsecond,
		25 * time.Microsecond, 10 * time.Microsecond, 5 * time.Microsecond, 2 * time.Microsecond} {
		msgs := max(8, int(2*time.Millisecond/gap))
		one, oneDrops := fidelityRun(t, 7, msgs, gap)
		cells, cellDrops := fidelityRun(t, 7, msgs, gap, plans[1].opts...)
		var abs []time.Duration
		var minD time.Duration
		for k, a := range one {
			d := a.Sub(cells[k])
			minD = min(minD, d)
			abs = append(abs, max(d, -d))
		}
		sort.Slice(abs, func(i, j int) bool { return abs[i] < abs[j] })
		q := func(p float64) time.Duration { return abs[int(math.Ceil(p*float64(len(abs))))-1] }
		t.Logf("gap %v, %d msgs/flow: drops %d (one cell) / %d (cells), |Δ| p50 %v p99 %v max %v, min Δ %v",
			gap, msgs, oneDrops, cellDrops, q(0.5), q(0.99), abs[len(abs)-1], minD)
	}
}

// TestShardSeedDiscipline: shard kernel seeds must derive from
// (root seed, shard index) via parsim.ShardSeed — independent kernels
// whose streams never depend on worker scheduling.
func TestShardSeedDiscipline(t *testing.T) {
	s := New(WithStar(4), WithSeed(99), WithEngine(EngineSharded), WithWorkers(2))
	defer s.Stop()
	for i := range s.Hosts {
		want := parsim.ShardSeed(99, i)
		fresh := New(WithStar(4), WithSeed(99), WithEngine(EngineSharded), WithWorkers(1))
		got := fresh.CellKernel(i).Rand().Int63()
		ref := s.CellKernel(i).Rand().Int63()
		fresh.Stop()
		if got != ref {
			t.Fatalf("shard %d: first draw differs across builds (%d vs %d) — seeds not derived from (root, shard) = (%d, %d) -> %d",
				i, got, ref, 99, i, want)
		}
	}
}
