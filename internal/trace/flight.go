package trace

import (
	"fmt"
	"strings"

	"sanft/internal/sim"
)

// Snapshot is one frozen copy of the flight recorder's ring, taken when
// an anomaly fired.
type Snapshot struct {
	// Trigger names what froze the ring: an anomaly kind ("watchdog",
	// "quarantine", ...) or an external trigger such as
	// "invariant:buffers".
	Trigger string
	// At is the simulated time of the trigger.
	At sim.Time
	// Total is the ring's total event count at freeze time.
	Total uint64
	// Events is the frozen window, oldest first.
	Events []Event
}

// FlightRecorder is a Tracer that keeps the newest events in a ring and
// freezes a snapshot of the ring whenever an anomaly event arrives —
// watchdog reset, unreachable verdict, quarantine — or an external caller
// reports one (chaos invariant violation). The first MaxSnapshots
// anomalies are retained in full; later ones only counted, so a fault
// storm cannot grow memory without bound.
type FlightRecorder struct {
	ring *Ring
	// Triggers is the set of event kinds that freeze the ring. Defaults
	// to the anomaly kinds (Kind.Anomaly); callers may add or remove.
	Triggers map[Kind]bool
	// MaxSnapshots bounds retained snapshots (default 8).
	MaxSnapshots int
	// SnapshotWindow bounds how many of the ring's newest events each
	// snapshot freezes (default 128), so snapshots of a large ring stay
	// readable and cheap.
	SnapshotWindow int

	snaps     []Snapshot
	triggered uint64 // total trigger count, including dropped snapshots
}

// NewFlightRecorder returns a recorder ringing the newest n events, with
// the default anomaly trigger set.
func NewFlightRecorder(n int) *FlightRecorder {
	f := &FlightRecorder{
		ring:           NewRing(n),
		Triggers:       make(map[Kind]bool),
		MaxSnapshots:   8,
		SnapshotWindow: 128,
	}
	for k := Kind(0); k < NumKinds; k++ {
		if k.Anomaly() {
			f.Triggers[k] = true
		}
	}
	return f
}

// Trace records the event and, if its kind is a trigger, freezes the ring
// after recording — the snapshot includes the anomaly itself.
func (f *FlightRecorder) Trace(e Event) {
	f.ring.Trace(e)
	if f.Triggers[e.Kind] {
		f.freeze(e.Kind.String(), e.At)
	}
}

// TriggerSnapshot freezes the ring for a non-event anomaly (a chaos
// invariant violation, an assertion in a harness).
func (f *FlightRecorder) TriggerSnapshot(name string, at sim.Time) {
	f.freeze(name, at)
}

func (f *FlightRecorder) freeze(trigger string, at sim.Time) {
	f.triggered++
	if len(f.snaps) >= f.MaxSnapshots {
		return
	}
	events := f.ring.Events()
	if f.SnapshotWindow > 0 && len(events) > f.SnapshotWindow {
		events = events[len(events)-f.SnapshotWindow:]
	}
	f.snaps = append(f.snaps, Snapshot{
		Trigger: trigger,
		At:      at,
		Total:   f.ring.Total(),
		Events:  events,
	})
}

// Ring returns the live ring (for Events, Dump, Filter).
func (f *FlightRecorder) Ring() *Ring { return f.ring }

// Snapshots returns the retained frozen windows, in trigger order.
func (f *FlightRecorder) Snapshots() []Snapshot { return f.snaps }

// Triggered returns how many times the recorder froze (including
// anomalies beyond MaxSnapshots whose windows were dropped).
func (f *FlightRecorder) Triggered() uint64 { return f.triggered }

// Dump renders every retained snapshot — trigger, time, and the frozen
// event window — deterministically.
func (f *FlightRecorder) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: %d triggers, %d snapshots retained, %d events recorded\n",
		f.triggered, len(f.snaps), f.ring.Total())
	for i, s := range f.snaps {
		fmt.Fprintf(&b, "snapshot %d: trigger=%s at=%v (%d events recorded, %d in window)\n",
			i, s.Trigger, s.At, s.Total, len(s.Events))
		for _, e := range s.Events {
			b.WriteString("  ")
			b.WriteString(e.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}
