package trace

import (
	"strings"
	"testing"

	"sanft/internal/sim"
	"sanft/internal/topology"
)

func ev(i int, k Kind) Event {
	return Event{At: sim.Time(i * 1000), Node: 1, Kind: k, Peer: 2, Seq: uint64(i)}
}

func TestRingRetainsNewest(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Trace(ev(i, EvSend))
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d", r.Total())
	}
	es := r.Events()
	if len(es) != 3 {
		t.Fatalf("retained %d", len(es))
	}
	for i, e := range es {
		if e.Seq != uint64(i+2) {
			t.Fatalf("events = %v, want seqs 2,3,4", es)
		}
	}
}

func TestRingUnderfill(t *testing.T) {
	r := NewRing(10)
	r.Trace(ev(0, EvSend))
	r.Trace(ev(1, EvAccept))
	es := r.Events()
	if len(es) != 2 || es[0].Seq != 0 || es[1].Seq != 1 {
		t.Fatalf("events = %v", es)
	}
}

func TestRingFilter(t *testing.T) {
	r := NewRing(10)
	r.Filter = func(e Event) bool { return e.Kind == EvRetransmit }
	r.Trace(ev(0, EvSend))
	r.Trace(ev(1, EvRetransmit))
	r.Trace(ev(2, EvAccept))
	if r.Total() != 1 || len(r.Events()) != 1 {
		t.Fatalf("filter failed: total=%d", r.Total())
	}
}

func TestDumpAndCounts(t *testing.T) {
	r := NewRing(10)
	r.Trace(ev(0, EvSend))
	r.Trace(ev(1, EvSend))
	r.Trace(ev(2, EvErrDrop))
	d := r.Dump()
	if !strings.Contains(d, "err-drop") || !strings.Contains(d, "3 events recorded") {
		t.Fatalf("dump = %q", d)
	}
	c := r.Counts()
	if c[EvSend] != 2 || c[EvErrDrop] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestKindStrings(t *testing.T) {
	if EvSend.String() != "send" || EvUnreachable.String() != "unreachable" {
		t.Fatal("kind names wrong")
	}
	if EvLiveUp.String() != "live-up" || EvLiveDown.String() != "live-down" {
		t.Fatal("liveness kind names wrong")
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind")
	}
}

// TestKindNamesComplete is the runtime side of the compile-time guard: the
// name table must cover every Kind exactly, and no two kinds may share a
// name (a copy-paste in kindNames would silently alias two kinds).
func TestKindNamesComplete(t *testing.T) {
	if len(kindNames) != int(NumKinds) {
		t.Fatalf("kindNames has %d entries, %d kinds declared", len(kindNames), NumKinds)
	}
	seen := make(map[string]Kind)
	for k := Kind(0); k < NumKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no proper name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
}

func TestRingCapacityOne(t *testing.T) {
	r := NewRing(1)
	for i := 0; i < 4; i++ {
		r.Trace(ev(i, EvSend))
	}
	es := r.Events()
	if len(es) != 1 || es[0].Seq != 3 {
		t.Fatalf("capacity-1 ring retained %v, want only seq 3", es)
	}
	if r.Total() != 4 {
		t.Fatalf("total = %d, want 4", r.Total())
	}
	// NewRing clamps degenerate capacities up to one.
	r = NewRing(0)
	r.Trace(ev(0, EvSend))
	if len(r.Events()) != 1 {
		t.Fatal("NewRing(0) should hold one event")
	}
}

func TestRingWraparoundOrdering(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 11; i++ {
		r.Trace(ev(i, EvSend))
	}
	es := r.Events()
	if len(es) != 4 {
		t.Fatalf("retained %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].Seq != es[i-1].Seq+1 {
			t.Fatalf("events out of order after wraparound: %v", es)
		}
	}
	if es[0].Seq != 7 || es[3].Seq != 10 {
		t.Fatalf("window = [%d..%d], want [7..10]", es[0].Seq, es[3].Seq)
	}
}

// TestRingFilterTotal pins the Filter contract: filtered-out events count
// neither toward Total nor toward the retained window.
func TestRingFilterTotal(t *testing.T) {
	r := NewRing(2)
	r.Filter = func(e Event) bool { return e.Kind != EvAckRx }
	kinds := []Kind{EvSend, EvAckRx, EvAccept, EvAckRx, EvRetransmit}
	for i, k := range kinds {
		r.Trace(ev(i, k))
	}
	if r.Total() != 3 {
		t.Fatalf("total = %d, want 3 (acks filtered)", r.Total())
	}
	es := r.Events()
	if len(es) != 2 || es[0].Kind != EvAccept || es[1].Kind != EvRetransmit {
		t.Fatalf("retained %v, want accept,retransmit", es)
	}
}

func TestCountsSorted(t *testing.T) {
	r := NewRing(10)
	r.Trace(ev(0, EvRetransmit))
	r.Trace(ev(1, EvSend))
	r.Trace(ev(2, EvSend))
	r.Trace(ev(3, EvAccept))
	kcs := r.CountsSorted()
	if len(kcs) != 3 {
		t.Fatalf("rows = %v", kcs)
	}
	// Ordered by Kind: send < retransmit < accept in declaration order.
	want := []KindCount{{EvSend, 2}, {EvRetransmit, 1}, {EvAccept, 1}}
	for i, w := range want {
		if kcs[i] != w {
			t.Fatalf("row %d = %v, want %v", i, kcs[i], w)
		}
	}
}

func TestEventStringDetails(t *testing.T) {
	e := Event{At: sim.Time(2000), Node: 1, Kind: EvFabDrop, Peer: 2,
		Gen: 3, Seq: 9, Msg: 7, Link: 5, Dir: 1, Note: "watchdog"}
	s := e.String()
	for _, want := range []string{"fab-drop", "msg=7", "link=4.1", "watchdog"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
	// No msg/link/note → no stray fields.
	s = Event{Kind: EvSend, Node: 1, Peer: 2}.String()
	if strings.Contains(s, "msg=") || strings.Contains(s, "link=") {
		t.Fatalf("bare event string %q has optional fields", s)
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: sim.Time(1500), Node: topology.NodeID(3), Kind: EvAccept, Peer: 7, Gen: 1, Seq: 42}
	s := e.String()
	for _, want := range []string{"nic3", "accept", "peer=7", "gen=1", "seq=42"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
}
