package trace

import (
	"testing"

	"sanft/internal/sim"
	"sanft/internal/topology"
)

// mergeStreams merges per-cell rings the way core's TraceEvents does.
func mergeStreams(streams ...[]Event) []Event {
	return sim.MergeByTime(streams, func(e *Event) sim.Time { return e.At })
}

func TestMergeStreamsOrdering(t *testing.T) {
	ev := func(at int64, node int, note string) Event {
		return Event{At: sim.Time(at), Node: topology.NodeID(node), Kind: EvSend, Note: note}
	}
	s0 := []Event{ev(10, 0, "a"), ev(30, 0, "b"), ev(30, 0, "c")}
	s1 := []Event{ev(10, 1, "d"), ev(20, 1, "e")}
	s2 := []Event{ev(5, 2, "f")}
	got := mergeStreams(s0, s1, nil, s2)
	want := []string{"f", "a", "d", "e", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("merged %d events, want %d", len(got), len(want))
	}
	for i, n := range want {
		if got[i].Note != n {
			t.Fatalf("position %d: got %q, want %q (ties must break by stream index, then stream order)",
				i, got[i].Note, n)
		}
	}
	// Inputs untouched.
	if s0[0].Note != "a" || len(s0) != 3 {
		t.Fatal("the merge mutated an input stream")
	}
}

func TestMergeStreamsEmpty(t *testing.T) {
	if got := mergeStreams(); len(got) != 0 {
		t.Fatalf("no streams should merge to empty, got %d", len(got))
	}
	if got := mergeStreams(nil, []Event{}, nil); len(got) != 0 {
		t.Fatalf("empty streams should merge to empty, got %d", len(got))
	}
}
