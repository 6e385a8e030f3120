// Package proto defines the wire frame formats shared by the NIC firmware,
// the retransmission protocol, and the mapping protocol. A Frame rides as
// the payload of a fabric.Packet; the fabric itself never looks inside.
package proto

import (
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// FrameType discriminates protocol frames.
type FrameType uint8

const (
	// FrameData carries a VMMC message chunk, sequenced by the
	// retransmission protocol when fault tolerance is on.
	FrameData FrameType = iota
	// FrameAck is an explicit cumulative acknowledgment. Acks are not
	// themselves acknowledged and may be dropped freely.
	FrameAck
	// FrameHostProbe asks whatever host sits at the end of the probe's
	// route to reply with its identity along the enclosed return route.
	FrameHostProbe
	// FrameHostProbeReply is that reply.
	FrameHostProbeReply
	// FrameEchoProbe is a probe whose route loops back to the sender;
	// its arrival tells the mapper the route is traversable (used to
	// detect switches and discover their entry ports).
	FrameEchoProbe
	// FrameRouteUpdate tells the receiving NIC to install the enclosed
	// route (Probe.ReturnRoute) as its route back to the frame's source.
	// Sent by a mapper after a successful remap, so that the remote
	// node's acknowledgments (and data) can reach it over the new path.
	FrameRouteUpdate
	// FrameLiveness is a BFD-style liveness control packet exchanged
	// between NIC firmwares (internal/liveness). Like acks, liveness
	// packets are fire-and-forget: losing one only delays detection.
	FrameLiveness
)

var frameNames = [...]string{"data", "ack", "host-probe", "host-probe-reply", "echo-probe", "route-update", "liveness"}

func (t FrameType) String() string {
	if int(t) < len(frameNames) {
		return frameNames[t]
	}
	return "unknown"
}

// AckLevel is the sender-based feedback carried in each data frame: how
// urgently the sender needs its buffers acknowledged (§4.1.2).
type AckLevel uint8

const (
	// AckNone: no acknowledgment requested (sender has plenty of
	// buffers; it asks only every K-th packet).
	AckNone AckLevel = iota
	// AckDelayed: acknowledge opportunistically — piggyback on reverse
	// data, or send an explicit ack if none flows for a short while.
	AckDelayed
	// AckImmediate: send an explicit acknowledgment right away (sender
	// is nearly out of buffers).
	AckImmediate
)

var ackNames = [...]string{"none", "delayed", "immediate"}

func (l AckLevel) String() string {
	if int(l) < len(ackNames) {
		return ackNames[l]
	}
	return "unknown"
}

// HeaderBytes is the on-wire overhead per frame: route bytes, type, node
// IDs, generation, sequence, piggyback ack fields, and the 32-bit CRC.
const HeaderBytes = 24

// AckFrameBytes is the wire size of an explicit ack frame.
const AckFrameBytes = HeaderBytes

// Stamps records the five stage-transition times used for the Figure 3
// latency breakdown. Zero values mean "stage not yet reached".
type Stamps struct {
	HostStart    sim.Time // application handed the message to VMMC
	HostDone     sim.Time // data left the host (PIO done / descriptor+DMA queued)
	Injected     sim.Time // NIC firmware finished; first byte on the wire
	Delivered    sim.Time // tail arrived at the receiving NIC
	NICRecvDone  sim.Time // receive firmware (CRC, sequence check) finished
	HostRecvDone sim.Time // data deposited in host memory, notification posted
}

// DataPayload is a VMMC message chunk.
type DataPayload struct {
	// BufID names the receiver's exported buffer.
	BufID int
	// MsgID identifies the message this chunk belongs to (per sender).
	MsgID uint64
	// MsgLen is the total message length in bytes.
	MsgLen int
	// BufOffset is where this chunk lands in the exported buffer.
	BufOffset int
	// MsgOffset is this chunk's offset within the message.
	MsgOffset int
	// Data is the chunk contents. The simulator moves real bytes so that
	// end-to-end integrity is checkable in tests.
	Data []byte
	// Notify requests a receive notification once the whole message has
	// arrived.
	Notify bool
}

// ProbePayload carries mapping-protocol fields.
type ProbePayload struct {
	// ProbeID matches replies/echoes to outstanding probes.
	ProbeID uint64
	// ReturnRoute is the route a host-probe reply should travel.
	ReturnRoute routing.Route
	// Mapper is the node that originated the probe.
	Mapper topology.NodeID
	// ReplierID is filled in by the probed host in its reply.
	ReplierID topology.NodeID
}

// LivenessPayload is the BFD-style control packet body (internal/liveness).
// Field names follow RFC 5880 where the mapping is direct; the RTT echo
// fields (YourSeq/HoldNs) are the NTP-style addition that lets each side
// sample path round-trip time from the periodic control traffic alone.
type LivenessPayload struct {
	// State is the sender's session state (liveness.State as uint8).
	State uint8
	// MyDisc and YourDisc are the session discriminators: the sender's
	// own, and the last one it heard from the receiver (0 = unknown).
	MyDisc, YourDisc uint32
	// DesiredMinTxNs and RequiredMinRxNs are the sender's timer terms,
	// in nanoseconds; DetectMult is its detection multiplier. The
	// receiver derives the negotiated transmit interval and detection
	// time from these (RFC 5880 §6.8.2/§6.8.4).
	DesiredMinTxNs  int64
	RequiredMinRxNs int64
	DetectMult      uint8
	// Seq numbers this sender's control packets; YourSeq echoes the
	// newest Seq received from the peer (0 = none yet), and HoldNs is
	// how long the sender sat on that packet before replying. The peer
	// computes RTT = now - sendTime(YourSeq) - HoldNs.
	Seq     uint64
	YourSeq uint64
	HoldNs  int64
}

// LivenessWireBytes is the on-wire size of a liveness control packet body.
const LivenessWireBytes = 40

// Frame is the protocol-level packet contents.
type Frame struct {
	Type FrameType
	// Src and Dst are protocol-level node IDs. (Real source routing does
	// not carry a destination; receivers learn the source from this
	// field exactly as VMMC packets carry a sender tag.)
	Src, Dst topology.NodeID

	// Gen and Seq sequence data frames per (src,dst) NODE pair — not per
	// connection — when fault tolerance is enabled (§4.1.1).
	Gen uint32
	Seq uint64

	// Cumulative acknowledgment, piggybacked on data frames and carried
	// by explicit ack frames: acknowledges every sequence number up to
	// and including AckSeq of generation AckGen.
	HasAck bool
	AckGen uint32
	AckSeq uint64

	// AckReq is the sender-based feedback level for this data frame.
	AckReq AckLevel

	// Retransmitted marks frames sent again by the go-back-N engine
	// (diagnostics only; the wire format would not need it).
	Retransmitted bool

	Data   *DataPayload
	Probe  *ProbePayload
	Live   *LivenessPayload
	Stamps Stamps

	// ControlRoute, when non-nil, overrides the NIC routing table for
	// this frame (mapping probes explore routes that are not — and must
	// not be — in any table). It is NIC-local state, not a wire field.
	ControlRoute routing.Route

	// blk points back to this frame's pooled storage when it came from
	// a frame list (Frames, ClonePooled); nil for ordinary frames. See
	// Hold and Release.
	blk *frameBlock
}

// Clone returns a deep copy of the frame: payload bytes, probe fields,
// and control route are all fresh. The parallel engine clones frames at
// shard boundaries — wire transit is a serialization point, so receiver
// and sender must not share mutable frame state once kernels run on
// different workers (the receive path stamps Stamps.Delivered on its
// copy; the sender's retransmission queue keeps the original).
func (f *Frame) Clone() *Frame {
	c := *f
	c.blk = nil // the copy owns no pooled storage
	if f.Data != nil {
		d := *f.Data
		d.Data = append([]byte(nil), f.Data.Data...)
		c.Data = &d
	}
	if f.Probe != nil {
		p := *f.Probe
		p.ReturnRoute = f.Probe.ReturnRoute.Clone()
		c.Probe = &p
	}
	if f.Live != nil {
		l := *f.Live
		c.Live = &l
	}
	if f.ControlRoute != nil {
		c.ControlRoute = f.ControlRoute.Clone()
	}
	return &c
}

// WireSize returns the frame's size on the wire.
func (f *Frame) WireSize() int {
	n := HeaderBytes
	if f.Data != nil {
		n += len(f.Data.Data)
	}
	if f.Probe != nil {
		n += 8 + len(f.Probe.ReturnRoute)
	}
	if f.Live != nil {
		n += LivenessWireBytes
	}
	return n
}
