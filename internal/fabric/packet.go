// Package fabric simulates the wire of a system area network: source-routed
// wormhole transport across full-crossbar switches and point-to-point links.
//
// Fidelity goals (what the fault-tolerance protocol layered above must be
// able to observe, because the paper's schemes exist to tolerate exactly
// these behaviors):
//
//   - Cut-through pipelining: a packet's latency across H switches is
//     H·(routing + propagation) + one serialization, and per-link occupancy
//     is one serialization per packet, so bandwidth saturates correctly.
//   - Blocking flow control: a worm that cannot acquire its next channel
//     stalls holding every channel behind it. Route sets with cyclic
//     channel dependencies can therefore genuinely deadlock.
//   - Watchdog path reset (Myrinet's deadlock detection/recovery): a worm
//     blocked longer than the configured timeout is reset — all its
//     channels are freed and the packet is dropped silently. The paper's
//     retransmission protocol is responsible for recovering the data.
//   - Silent loss: packets routed into unwired ports, dead links, dead
//     switches, or exhausted routes vanish without notification.
//   - Corruption: an injectable transit hook can corrupt packets; the CRC
//     check at the receiving NIC is the only detection mechanism.
package fabric

import (
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// DropReason explains why the fabric discarded a packet.
type DropReason int

const (
	// DropNone: not dropped.
	DropNone DropReason = iota
	// DropNoRoute: the source NIC's own link is unusable.
	DropNoRoute
	// DropBadRoute: the route dead-ended (exhausted at a switch, leftover
	// hops at a host, or named an unwired port).
	DropBadRoute
	// DropDeadLink: the route crossed a permanently failed link.
	DropDeadLink
	// DropDeadSwitch: the route entered a failed switch.
	DropDeadSwitch
	// DropWatchdog: the blocked-path watchdog reset the worm (deadlock or
	// severe congestion).
	DropWatchdog
	// DropInjected: a fault-injection hook discarded the packet.
	DropInjected
	// DropFlushed: the packet was in flight across a link or switch that
	// was killed.
	DropFlushed
	// DropGray: lost on a gray (lossy-but-up) link; see SetLinkLoss.
	DropGray
)

var dropNames = [...]string{"none", "no-route", "bad-route", "dead-link", "dead-switch", "watchdog", "injected", "flushed", "gray"}

func (r DropReason) String() string {
	if int(r) < len(dropNames) {
		return dropNames[r]
	}
	return "unknown"
}

// Packet is one unit of wire traffic. The fabric treats Payload as opaque;
// protocol layers (retransmission, mapping probes) define its structure.
type Packet struct {
	// Route is the source route: output port per switch crossed.
	Route routing.Route
	// Src is the injecting host. Dst is bookkeeping only (real source
	// routing carries no destination); the fabric delivers wherever the
	// route leads.
	Src, Dst topology.NodeID
	// Size is the packet's size on the wire in bytes, including protocol
	// headers and CRC.
	Size int
	// Payload carries the protocol-level frame.
	Payload any
	// Corrupted marks a CRC-failing packet; set by fault injection,
	// checked by the receiving NIC.
	Corrupted bool

	// Gen, Seq and Msg are trace bookkeeping stamped by the sending NIC
	// (the protocol identity of the payload frame), so hop-level trace
	// events can carry the packet's trace ID without the fabric looking
	// inside Payload. Zero for control frames and untraced payloads.
	Gen uint32
	Seq uint64
	Msg uint64

	// Injected and Delivered are stamped by the fabric.
	Injected  sim.Time
	Delivered sim.Time

	// OnInjectDone fires when the packet's tail has left the source NIC
	// (its injection channel is released, or the worm died): the NIC's
	// network-send path is free for the next packet. May be nil.
	OnInjectDone func()
	// OnDropped fires if the fabric discards the packet. May be nil.
	OnDropped func(reason DropReason)

	// term is the terminal host a Pipe resolved at inject, read by the
	// arrival event of the pipe it lands on (Pipe.Arrival); a
	// shard-boundary copy keeps it.
	term topology.NodeID

	// blk points back to this packet's pooled storage when it came from
	// a packet list (Packets, ClonePooled); nil for ordinary packets. See
	// Release.
	blk *packetBlock
}
