package retrans

import (
	"sort"

	"sanft/internal/proto"
	"sanft/internal/topology"
)

// srcState is per-source receive state: just an expected sequence number
// and a generation — the receiver buffers nothing (§4.1.1).
type srcState struct {
	gen        uint32
	expected   uint64 // next in-order sequence number
	pendingAck bool   // delivered data not yet covered by an emitted ack
}

// Verdict is the receive-side decision for one data frame.
type Verdict struct {
	// Accept: deliver the frame's payload to the host. False for
	// duplicates, out-of-order frames, and stale generations — all
	// dropped without buffering.
	Accept bool
	// AckNow: emit an explicit cumulative ack immediately (the frame
	// requested one, or it was a duplicate and the sender clearly needs
	// resynchronizing).
	AckNow bool
	// ArmDelayed: start (or keep running) the delayed-ack timer so the
	// ack goes out explicitly if no reverse traffic piggybacks it first.
	ArmDelayed bool
}

// Receiver is the receive side of the protocol for one NIC.
type Receiver struct {
	srcs map[topology.NodeID]*srcState

	// Counters.
	Duplicates uint64
	OutOfOrder uint64
	StaleGen   uint64
}

// NewReceiver returns a Receiver. The receive rules take no settings: the
// Config argument is accepted so that a NIC builds both halves of the
// protocol from one Config, and is not read.
func NewReceiver(Config) *Receiver {
	return &Receiver{srcs: make(map[topology.NodeID]*srcState)}
}

func (r *Receiver) src(id topology.NodeID) *srcState {
	s := r.srcs[id]
	if s == nil {
		s = &srcState{}
		r.srcs[id] = s
	}
	return s
}

// OnData classifies an arriving data frame from src.
func (r *Receiver) OnData(src topology.NodeID, gen uint32, seq uint64, req proto.AckLevel) Verdict {
	s := r.src(src)
	if gen < s.gen {
		// A packet from a previous generation, still rattling around the
		// network after a remap: drop silently (§4.2).
		r.StaleGen++
		return Verdict{}
	}
	if gen > s.gen {
		// The sender has remapped and restarted numbering.
		s.gen = gen
		s.expected = 0
		s.pendingAck = false
	}
	switch {
	case seq == s.expected:
		s.expected++
		s.pendingAck = true
		return Verdict{
			Accept:     true,
			AckNow:     req == proto.AckImmediate,
			ArmDelayed: req == proto.AckDelayed,
		}
	case seq < s.expected:
		// Duplicate (a retransmission raced the ack): re-ack so the
		// sender frees its buffers and stops resending.
		r.Duplicates++
		s.pendingAck = true
		return Verdict{AckNow: true}
	default:
		// Gap: a preceding packet was lost. Go-back-N receivers drop
		// everything until the expected number arrives; no NACK, no
		// buffering — the sender's timer recovers (§4.1.1).
		r.OutOfOrder++
		return Verdict{}
	}
}

// CumAck returns the current cumulative acknowledgment for src: every
// sequence number ≤ seq of generation gen has been delivered. ok is false
// when nothing has been received from src in the current generation.
func (r *Receiver) CumAck(src topology.NodeID) (gen uint32, seq uint64, ok bool) {
	s := r.srcs[src]
	if s == nil || s.expected == 0 {
		return 0, 0, false
	}
	return s.gen, s.expected - 1, true
}

// PendingAck reports whether delivered-but-unacknowledged data exists for
// src (i.e. an ack, piggybacked or explicit, would tell the sender
// something new).
func (r *Receiver) PendingAck(src topology.NodeID) bool {
	s := r.srcs[src]
	return s != nil && s.pendingAck
}

// AckEmitted records that a cumulative ack for src has just been sent
// (piggybacked or explicit); clears the pending flag.
func (r *Receiver) AckEmitted(src topology.NodeID) {
	if s := r.srcs[src]; s != nil {
		s.pendingAck = false
	}
}

// PendingSources returns sources with un-acknowledged delivered data, in
// ascending order — used by the NIC when flushing delayed acks.
func (r *Receiver) PendingSources() []topology.NodeID {
	var out []topology.NodeID
	for id, s := range r.srcs {
		if s.pendingAck {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Expected returns the next expected sequence number from src (0 if the
// source is unknown).
func (r *Receiver) Expected(src topology.NodeID) uint64 {
	if s := r.srcs[src]; s != nil {
		return s.expected
	}
	return 0
}
