package workload

import (
	"testing"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// msgTally is a tracer that keeps, per directed host pair, how often each
// VMMC message was sent and completed, straight from the NICs' message
// events — a record of the run kept apart from the chaos oracle's.
type msgTally struct {
	sent, done map[chaos.Pair]map[uint64]int
}

func (m *msgTally) Trace(ev trace.Event) {
	switch ev.Kind {
	case trace.EvHostSend:
		tallyMsg(m.sent, chaos.Pair{Src: ev.Node, Dst: ev.Peer}, ev.Msg)
	case trace.EvMsgComplete:
		tallyMsg(m.done, chaos.Pair{Src: ev.Peer, Dst: ev.Node}, ev.Msg)
	}
}

func tallyMsg(m map[chaos.Pair]map[uint64]int, pr chaos.Pair, id uint64) {
	if m[pr] == nil {
		m[pr] = map[uint64]int{}
	}
	m[pr][id]++
}

// TestDenseAuditMatchesTrace checks the oracle's dense delivery logs
// against the trace layer's record of the same run: a KV workload under
// a trunk flap, so messages are retransmitted and numbered across
// go-back-N batches. Every message the NICs saw sent is one the driver
// noted, every completed message was notified exactly once, and the
// oracle's per-pair and per-message counts say so.
func TestDenseAuditMatchesTrace(t *testing.T) {
	tally := &msgTally{sent: map[chaos.Pair]map[uint64]int{}, done: map[chaos.Pair]map[uint64]int{}}
	spec := Spec{Proto: ProtoKV, Mode: ModeOpen, Clients: 4, Ops: 80, Rate: 20000}
	r := newRig(t, spec, 11, func(e *chaos.Engine, clients, servers []topology.NodeID) {
		if err := InstallFault(e, "linkflap", clients[0], servers[0]); err != nil {
			t.Fatal(err)
		}
		e.C.InstallTracer(tally)
	})
	r.run(t, 500*time.Millisecond)
	run := r.d.Run()
	sent, done := 0, 0
	for pr, ids := range tally.sent {
		sent += len(ids)
		done += len(tally.done[pr])
		if got, want := run.DeliveredOn(pr), len(tally.done[pr]); got != want {
			t.Errorf("pair %v: oracle saw %d messages delivered, the trace %d", pr, got, want)
		}
		for id, n := range ids {
			if n != 1 {
				t.Errorf("pair %v: message %d sent %d times", pr, id, n)
			}
			if got, want := run.Count(pr, id), tally.done[pr][id]; got != want {
				t.Errorf("pair %v: message %d notified %d times, completed %d times", pr, id, got, want)
			}
		}
	}
	if len(tally.done) > len(tally.sent) {
		t.Errorf("%d pairs completed messages, only %d sent any", len(tally.done), len(tally.sent))
	}
	if run.Expected() != sent || run.Delivered() != done || run.Duplicates() != 0 {
		t.Errorf("oracle expected %d, delivered %d, duplicates %d; trace sent %d, completed %d",
			run.Expected(), run.Delivered(), run.Duplicates(), sent, done)
	}
	var retx uint64
	for _, h := range r.c.Hosts {
		retx += r.c.NIC(h).Counters().Get("pkts-retransmitted")
	}
	if sent == 0 || retx == 0 {
		t.Fatalf("%d messages sent, %d packets retransmitted: the run exercised nothing", sent, retx)
	}
	r.checkClean(t)
}

// TestDriverAuditNoteAllocs: once a pair has carried traffic, the
// driver's exactly-once audit records further sends and notifications
// on it without allocating per message — 10,000 more in-order messages
// cost at most the dense log's few doublings.
func TestDriverAuditNoteAllocs(t *testing.T) {
	spec := Spec{Proto: ProtoRPC, Mode: ModeClosed, Clients: 2, Ops: 20}
	r := newRig(t, spec, 3, nil)
	r.run(t, 200*time.Millisecond)
	run := r.d.Run()
	pr := chaos.Pair{Src: r.d.clientHosts[0], Dst: r.d.serverHosts[0]}
	next := uint64(run.DeliveredOn(pr))
	if next == 0 {
		t.Fatalf("pair %v carried no traffic", pr)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10000; i++ {
			next++
			run.NoteSent(pr, next)
			r.e.NoteDelivered(run, pr, next)
		}
	})
	if allocs > 16 {
		t.Fatalf("10,000 in-order notes on a live pair allocated %.0f times, want at most 16", allocs)
	}
}
