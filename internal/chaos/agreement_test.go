package chaos

import (
	"fmt"
	"testing"

	"sanft/internal/core"
	"sanft/internal/fabric"
	"sanft/internal/fault"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// kindTally is a tracer that counts events by node and kind, and sums the
// Seq of each node's unreachable verdicts: the packets each one dropped.
// It keeps no events, since a liveness run traces millions.
type kindTally struct {
	counts  [][trace.NumKinds]uint64
	dropped []uint64
}

func (t *kindTally) Trace(e trace.Event) {
	for int(e.Node) >= len(t.counts) {
		t.counts = append(t.counts, [trace.NumKinds]uint64{})
		t.dropped = append(t.dropped, 0)
	}
	t.counts[e.Node][e.Kind]++
	if e.Kind == trace.EvUnreachable {
		t.dropped[e.Node] += e.Seq
	}
}

// of returns how many events of kind node traced.
func (t *kindTally) of(node topology.NodeID, kind trace.Kind) uint64 {
	if int(node) >= len(t.counts) {
		return 0
	}
	return t.counts[node][kind]
}

// droppedBy returns the packets node's unreachable verdicts dropped.
func (t *kindTally) droppedBy(node topology.NodeID) uint64 {
	if int(node) >= len(t.dropped) {
		return 0
	}
	return t.dropped[node]
}

// total returns how many events of kind every node traced.
func (t *kindTally) total(kind trace.Kind) uint64 {
	var n uint64
	for i := range t.counts {
		n += t.counts[i][kind]
	}
	return n
}

// pair is an action that is both counted and traced: its counter and its
// trace kind.
type pair struct {
	counter string
	kind    trace.Kind
}

// hostPairs lists every action a host both counts and traces, one event
// per count: the NIC's, its liveness sessions' and its remap manager's.
var hostPairs = []pair{
	{"nic.err-injected-drops", trace.EvErrDrop},
	{"nic.pkts-retransmitted", trace.EvRetransmit},
	{"nic.crc-drops", trace.EvCrcDrop},
	{"nic.acks-received", trace.EvAckRx},
	{"nic.rx-dup-drops", trace.EvDupDrop},
	{"nic.rx-ooo-drops", trace.EvOooDrop},
	{"nic.pkts-accepted", trace.EvAccept},
	{"nic.acks-sent", trace.EvAckTx},
	{"nic.path-resets", trace.EvGenReset},
	{"liveness.session_up", trace.EvLiveUp},
	{"liveness.session_down", trace.EvLiveDown},
	{"remap.attempts", trace.EvRemapStart},
	{"remap.successes", trace.EvRemapDone},
	{"remap.deferred", trace.EvRemapDefer},
	{"remap.quarantines", trace.EvQuarantine},
}

// fabricPairs lists the fabric's counted and traced actions, which the
// fabric counts cluster-wide.
var fabricPairs = []pair{
	{"fabric.watchdog_resets", trace.EvWatchdog},
	{"fabric.pkts_dropped", trace.EvFabDrop},
	{"fabric.pkts_delivered", trace.EvDeliver},
}

// unreachable is the one host counter that adds more than one per event:
// each verdict adds the packets it dropped, 0 included.
const unreachable = "nic.pkts-dropped-unreachable"

// checkAgreement runs camp at seed with a kindTally attached, and with
// setup, if any, applied to the fresh cluster. It requires every counter
// of hostPairs to equal its kind's events on every host, the unreachable
// counter to exist exactly where a verdict was traced and to hold the
// packets the verdicts dropped, and the fabric's counters to equal their
// kinds' events over the cluster. It adds each counter's events to seen.
func checkAgreement(t *testing.T, camp Campaign, v string, seed int64, setup func(*core.Cluster), seen map[string]uint64) {
	t.Helper()
	tally := &kindTally{}
	var c *core.Cluster
	camp.RunInstrumented(seed, func(cl *core.Cluster) {
		c = cl
		cl.InstallTracer(tally)
		if setup != nil {
			setup(cl)
		}
	})
	run := fmt.Sprintf("%s/%s seed %d", camp.Name, v, seed)
	for _, h := range c.Hosts {
		mx := c.NIC(h).MetricsScope()
		count := func(name string) (uint64, bool) {
			ctr, ok := mx.Lookup(name)
			if !ok {
				return 0, false
			}
			return ctr.Value(), true
		}
		for _, p := range hostPairs {
			got, _ := count(p.counter)
			want := tally.of(h, p.kind)
			if got != want {
				t.Errorf("%s host %d: %s = %d, %d %s events", run, h, p.counter, got, want, p.kind)
			}
			seen[p.counter] += want
		}
		got, ok := count(unreachable)
		verdicts := tally.of(h, trace.EvUnreachable)
		if want := tally.droppedBy(h); got != want || ok != (verdicts > 0) {
			t.Errorf("%s host %d: %s = %d (present %v); %d unreachable verdicts dropped %d",
				run, h, unreachable, got, ok, verdicts, want)
		}
		seen[unreachable] += verdicts
	}
	reg := c.Metrics()
	for _, p := range fabricPairs {
		got, want := reg.CounterTotal(p.counter), tally.total(p.kind)
		if got != want {
			t.Errorf("%s: %s = %d, %d %s events", run, p.counter, got, want, p.kind)
		}
		seen[p.counter] += want
	}
}

// corrupting installs, as TestRecoveryFromCorruption in internal/nic
// does, a transit hook that corrupts 5 % of the packets, which the
// receivers' CRC check drops. No campaign corrupts a packet.
func corrupting(c *core.Cluster) {
	corr := fault.NewCorruptor(0.05, 99)
	c.Fab.SetTransitHook(func(p *fabric.Packet) bool {
		if corr.Corrupt() {
			p.Corrupted = true
		}
		return true
	})
}

// TestCountersAgreeWithTraces: every action that is both counted and
// traced is one record, so over whole campaigns each counter equals its
// kind's trace events. It runs the nine baseline campaigns at seeds 1-3,
// liveness link-kill at seed 1, and link-flap with corrupted packets, and
// requires every pair to have been exercised, so that a pair which lost
// its count or its trace could not pass.
func TestCountersAgreeWithTraces(t *testing.T) {
	seen := make(map[string]uint64)
	for _, camp := range Campaigns() {
		for seed := int64(1); seed <= 3; seed++ {
			checkAgreement(t, camp, "baseline", seed, nil, seen)
		}
	}
	live, _ := FindWith("link-kill", AdaptiveLiveness())
	checkAgreement(t, live, "liveness", 1, nil, seen)
	flap, _ := Find("link-flap")
	checkAgreement(t, flap, "corrupted", 1, corrupting, seen)

	all := append([]pair{{unreachable, trace.EvUnreachable}}, hostPairs...)
	for _, p := range append(all, fabricPairs...) {
		if seen[p.counter] == 0 {
			t.Errorf("no run traced %s: the %s pair went unchecked", p.kind, p.counter)
		}
	}
}
