// Package trace provides causal, cross-layer tracing for the simulated
// platform: one event per protocol or fabric action, correlated across
// layers by the (src, gen, seq) identity the retransmission protocol
// stamps at send time plus the VMMC message ID, so a single message can
// be followed end-to-end — VMMC send, NIC send queue, DMA, per-switch
// worm hops, receive verdict, ack or retransmit, delivery.
//
// The pieces:
//
//   - Event / Kind: one traced action. NIC-level events carry (peer, gen,
//     seq, msg); fabric hop events additionally carry the directed channel
//     (link, dir); drops carry a reason note.
//   - Ring: a fixed-capacity tracer keeping the newest events.
//   - FlightRecorder (flight.go): a Ring that freezes a snapshot of its
//     contents when an anomaly event fires (watchdog reset, unreachable,
//     quarantine) or an external trigger calls in (chaos invariant
//     violation).
//   - BuildSpans / RecoveryTimelines (span.go): per-message span
//     reconstruction and anomaly-centered recovery stories.
//   - WriteChromeTrace / WriteTimeline (export.go): Perfetto-loadable
//     Chrome trace-event JSON (one track per NIC and per directed link)
//     and a deterministic text timeline.
//
// Tracing is off unless wired, and costs nothing when disabled (a nil
// check per event site).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"sanft/internal/sim"
	"sanft/internal/topology"
)

// Kind classifies trace events.
type Kind uint8

const (
	// EvSend: a data frame entered the NIC send path.
	EvSend Kind = iota
	// EvInject: a frame's first byte went onto the wire.
	EvInject
	// EvErrDrop: send-side error injection swallowed the frame.
	EvErrDrop
	// EvRetransmit: the go-back-N engine re-queued the frame.
	EvRetransmit
	// EvAccept: the receiver accepted an in-order frame.
	EvAccept
	// EvDupDrop: the receiver dropped a duplicate.
	EvDupDrop
	// EvOooDrop: the receiver dropped an out-of-order frame (go-back-N).
	EvOooDrop
	// EvCrcDrop: the CRC check discarded a corrupted frame.
	EvCrcDrop
	// EvAckTx: an explicit acknowledgment was sent.
	EvAckTx
	// EvAckRx: an explicit acknowledgment was processed. A piggybacked
	// ack is neither traced nor counted where it is processed; the
	// sender's nic.acks-piggybacked counts it where it is attached.
	EvAckRx
	// EvGenReset: a remap reset the sequence generation for a path.
	EvGenReset
	// EvUnreachable: a destination was declared unreachable.
	EvUnreachable
	// EvRemapStart: the remap manager launched a mapping run for a peer.
	EvRemapStart
	// EvRemapDefer: a remap request was deferred to a backoff or
	// quarantine release time instead of starting immediately.
	EvRemapDefer
	// EvQuarantine: repeated remap failures quarantined the peer.
	EvQuarantine
	// EvRemapDone: a mapping run completed successfully and installed a
	// fresh route.
	EvRemapDone
	// EvPathStale: the permanent-failure detector flagged a destination
	// (no ack progress past the threshold) and raised the remap upcall.
	EvPathStale
	// EvNoRoute: a frame needed transmission but no route was installed.
	EvNoRoute
	// EvHostSend: the application handed a message to VMMC (span start).
	EvHostSend
	// EvMsgComplete: the receiving VMMC endpoint completed a message —
	// every chunk deposited in host memory (span end).
	EvMsgComplete
	// EvLinkBlock: a worm parked waiting for a busy directed channel
	// (wormhole head-of-line blocking).
	EvLinkBlock
	// EvLinkAcquire: a worm was granted a directed channel.
	EvLinkAcquire
	// EvLinkRelease: a worm's tail cleared a directed channel.
	EvLinkRelease
	// EvWatchdog: the blocked-path watchdog reset a worm.
	EvWatchdog
	// EvFabDrop: the fabric discarded a packet; Note carries the reason.
	EvFabDrop
	// EvDeliver: a packet's tail fully arrived at the destination host.
	EvDeliver
	// EvLiveUp: a liveness session completed its three-way handshake
	// (the path to Peer is confirmed bidirectional).
	EvLiveUp
	// EvLiveDown: a liveness session dropped — detection timeout expired
	// or the peer advertised Down. Seq carries the detection latency in
	// nanoseconds when the local detector fired (0 for peer-advertised
	// drops).
	EvLiveDown

	// NumKinds counts the Ev* constants; keep it last.
	NumKinds
)

var kindNames = [...]string{
	"send", "inject", "err-drop", "retransmit", "accept", "dup-drop",
	"ooo-drop", "crc-drop", "ack-tx", "ack-rx", "gen-reset", "unreachable",
	"remap-start", "remap-defer", "quarantine", "remap-done", "path-stale",
	"no-route", "host-send", "msg-complete", "link-block", "link-acquire",
	"link-release", "watchdog", "fab-drop", "deliver", "live-up",
	"live-down",
}

// Compile-time guard: adding a Kind without extending kindNames (or the
// reverse) produces a constant index-out-of-range error here.
var _ = [1]struct{}{}[len(kindNames)-int(NumKinds)]

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// receiverSide reports whether events of this kind are recorded at the
// message's destination (Node = dst, Peer = src). All other kinds are
// recorded at — or attributed to — the source.
func (k Kind) receiverSide() bool {
	switch k {
	case EvAccept, EvDupDrop, EvOooDrop, EvCrcDrop, EvAckTx, EvMsgComplete:
		return true
	}
	return false
}

// Anomaly reports whether an event of this kind freezes the flight
// recorder and anchors a recovery timeline: watchdog resets, unreachable
// verdicts, and quarantines.
func (k Kind) Anomaly() bool {
	switch k {
	case EvWatchdog, EvUnreachable, EvQuarantine:
		return true
	}
	return false
}

// Event is one traced action.
type Event struct {
	At   sim.Time
	Node topology.NodeID // the NIC (or packet source, for fabric events)
	Kind Kind
	Peer topology.NodeID // the other end (destination or source)
	Gen  uint32
	Seq  uint64
	// Msg is the VMMC message ID the frame belongs to (0 for control
	// frames and untraced payloads).
	Msg uint64
	// Link identifies the directed channel of fabric hop events as
	// linkID+1 (0 means "no link"); Dir is the channel direction.
	Link int32
	Dir  uint8
	// Note carries a static detail string: the drop reason for EvFabDrop,
	// the trigger name on flight-recorder snapshots.
	Note string
}

func (e Event) String() string {
	s := fmt.Sprintf("[%12v] nic%-3d %-12s peer=%-3d gen=%d seq=%d",
		e.At, e.Node, e.Kind, e.Peer, e.Gen, e.Seq)
	if e.Msg != 0 {
		s += fmt.Sprintf(" msg=%d", e.Msg)
	}
	if e.Link != 0 {
		s += fmt.Sprintf(" link=%d.%d", e.Link-1, e.Dir)
	}
	if e.Note != "" {
		s += " " + e.Note
	}
	return s
}

// Tracer receives events. Implementations must be cheap; they run inline
// with the simulation.
type Tracer interface {
	Trace(Event)
}

// Ring is a fixed-capacity ring-buffer Tracer keeping the newest events.
type Ring struct {
	buf   []Event
	next  int
	total uint64
	// Filter, if non-nil, keeps only events it returns true for.
	Filter func(Event) bool
}

// NewRing returns a ring buffer holding up to n events.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, 0, n)}
}

// Trace records one event.
func (r *Ring) Trace(e Event) {
	if r.Filter != nil && !r.Filter(e) {
		return
	}
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
}

// Total returns how many events were recorded (including overwritten).
func (r *Ring) Total() uint64 { return r.total }

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	if len(r.buf) < cap(r.buf) {
		out := make([]Event, len(r.buf))
		copy(out, r.buf)
		return out
	}
	out := make([]Event, 0, cap(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dump renders the retained events as a timeline.
func (r *Ring) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events recorded, %d retained\n", r.total, len(r.buf))
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Counts aggregates retained events by kind.
func (r *Ring) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range r.Events() {
		out[e.Kind]++
	}
	return out
}

// KindCount is one row of CountsSorted.
type KindCount struct {
	Kind  Kind
	Count int
}

// CountsSorted aggregates retained events by kind, ordered by kind — the
// deterministic rendering of Counts for examples and reports.
func (r *Ring) CountsSorted() []KindCount {
	m := r.Counts()
	out := make([]KindCount, 0, len(m))
	for k, c := range m {
		out = append(out, KindCount{k, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}
