// Package retrans implements the paper's firmware-level retransmission
// protocol (§4.1): the primary contribution for tolerating transient
// network failures.
//
// Protocol summary, as specified by the paper:
//
//   - Every data packet carries a sequence number, assigned per DESTINATION
//     NODE (not per connection) — one retransmission queue per remote node
//     keeps firmware memory proportional to cluster size.
//   - After transmission a packet's buffer is not freed; it moves to the
//     node's retransmission queue (zero copies — the send buffer IS the
//     retransmission buffer).
//   - Acknowledgments are cumulative: one ack frees every packet up to and
//     including its sequence number. There are no NACKs and no receiver
//     buffering: a receiver that misses sequence number n drops every
//     subsequent packet from that node until n arrives.
//   - One periodic timer per NIC (not per packet, unlike AM-II) scans the
//     retransmission queues; a queue whose oldest transmitted packet has
//     not been acknowledged within the interval is retransmitted in full,
//     in order (go-back-N).
//   - Optimizations (§4.1.2): acks piggyback on reverse data traffic;
//     a single ack covers a run of packets; and sender-based feedback sets
//     a per-packet ack-request level based on free send-buffer space, so
//     ack frequency adapts to resource pressure.
//   - Generations (§4.2): when a path is remapped after a permanent
//     failure, the sender bumps the generation number and renumbers its
//     queued packets from zero; receivers drop frames from older
//     generations, which cleanly separates packet lifetimes across
//     remappings.
//
// The package is pure protocol state: it takes the current time as an
// argument and returns decisions; the NIC model (internal/nic) binds it to
// simulated hardware. This keeps every protocol rule unit-testable without
// a network.
package retrans

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"sanft/internal/proto"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// Config holds the protocol parameters studied in the paper (Table 1),
// and the switches of the ablation and extension experiments.
type Config struct {
	// QueueSize is the number of NIC send buffers (q): the maximum
	// packets in flight (unacknowledged) across all destinations.
	QueueSize int
	// Interval is the retransmission timer period (T).
	Interval time.Duration
	// NoPiggyback disables piggybacked acknowledgments (ablation: every
	// ack is an explicit frame).
	NoPiggyback bool
	// FixedAckEvery, when positive, replaces sender-based feedback with
	// a fixed policy: request a delayed ack every N-th packet regardless
	// of buffer pressure (ablation for the Figure 8 discussion).
	FixedAckEvery int
	// ReliableReception upgrades acknowledgment semantics from the VI
	// specification's "reliable delivery" (ack once the receiving NIC
	// has accepted the packet — this system's default, like the paper's)
	// to "reliable reception": acknowledge only after the data has been
	// deposited into host memory. Extension experiment; see
	// RunReliabilityLevels.
	ReliableReception bool
	// PermFailThreshold distinguishes transient from permanent failures:
	// a destination with queued packets and no acknowledgment progress
	// for this long is reported by StalePaths. Zero disables detection
	// (every failure is treated as transient). Default in the full
	// system: 250ms.
	PermFailThreshold time.Duration
}

// Protocol constants no configuration varies.
const (
	// DelayedAck is how long a receiver holds a requested ack hoping to
	// piggyback it on reverse data before sending it explicitly.
	DelayedAck = 30 * time.Microsecond
	// ackEveryDiv sets the "plenty of buffers" ack-request period: a
	// delayed ack is requested every max(1, QueueSize/ackEveryDiv)
	// packets when more than 3/4 of the buffers are free.
	ackEveryDiv = 4
	// RTOMin floors the adaptive timeout (NewAdaptiveSender).
	RTOMin = 200 * time.Microsecond
	// rtoMaxIntervals caps the adaptive timeout, Karn backoff included,
	// at this many Intervals.
	rtoMaxIntervals = 8
)

// Defaults fills zero fields with the paper's best-compromise values.
func (c Config) Defaults() Config {
	if c.QueueSize == 0 {
		c.QueueSize = 32
	}
	if c.Interval == 0 {
		c.Interval = time.Millisecond
	}
	return c
}

// Entry is one unacknowledged packet parked in a retransmission queue. The
// NIC keeps the actual buffer; Payload is its handle.
type Entry struct {
	Dst     topology.NodeID
	Gen     uint32
	Seq     uint64
	Size    int
	Payload any

	// Sent is true once the packet has been transmitted at least once
	// (or consumed by send-side error injection). Unsent entries are
	// still in the NIC transmit queue and are never retransmitted.
	Sent     bool
	LastSent sim.Time
	// InFlight counts copies of the packet currently sitting in the NIC
	// transmit queue or streaming onto the wire. The timer never
	// re-batches an in-flight entry: when the head of a path is blocked
	// (e.g. a wormhole deadlock waiting out the watchdog), re-queueing
	// the packets behind it would grow the transmit queue without bound
	// and keep the network saturated with doomed worms forever. A
	// counter (not a bool) because a generation reset can briefly put a
	// second copy in the queue while a stale one is still draining.
	InFlight int
	// Retransmits counts how many times the entry has been resent.
	Retransmits int

	// queued says the entry sits in its destination's queue, pins counts
	// the retransmit batches with firmware work pending that name it
	// (Pin), and free says it is on the sender's free list. See Release.
	queued bool
	pins   int
	free   bool
}

type destState struct {
	id      topology.NodeID
	nextSeq uint64
	gen     uint32
	// queue holds the unacked entries in ascending seq. Acks shift it
	// down in place, so it keeps its backing array and appends do not
	// regrow it.
	queue        []*Entry
	lastProgress sim.Time // last ack that freed something (or creation)
	sinceAckReq  int      // packets since an ack was last requested
	unreachable  bool

	// Adaptive-timeout state (Jacobson/Karn), used only by an adaptive
	// sender: smoothed RTT and variance in nanoseconds, and the
	// exponential backoff applied after each unanswered retransmission.
	srtt    int64
	rttvar  int64
	hasRTT  bool
	backoff uint
}

// Sender is the send side of the protocol for one NIC.
type Sender struct {
	cfg Config
	// adaptive replaces the fixed per-destination timeout (Interval) with
	// a Jacobson/Karn SRTT/RTTVAR one; see NewAdaptiveSender.
	adaptive bool
	dests    map[topology.NodeID]*destState
	// order holds the same destinations in ascending NodeID, so the
	// periodic scans visit them deterministically without iterating the
	// map or sorting on every timer fire.
	order []*destState
	// free holds the entries Release handed back, for Prepare to reuse;
	// out is the scratch slice OnAck and MarkUnreachable return.
	free []*Entry
	out  []*Entry
}

// NewSender returns a Sender with the given configuration (zero fields
// defaulted).
func NewSender(cfg Config) *Sender {
	cfg = cfg.Defaults()
	if cfg.QueueSize < 1 {
		panic(fmt.Sprintf("retrans: queue size %d < 1", cfg.QueueSize))
	}
	return &Sender{cfg: cfg, dests: make(map[topology.NodeID]*destState)}
}

// NewAdaptiveSender returns a Sender whose per-destination timeout follows
// the path instead of the paper's fixed Interval: RTT samples (from
// unambiguous acks, and from liveness control traffic via ObserveRTT)
// drive a Jacobson/Karn retransmission timeout RTO = SRTT + 4·RTTVAR,
// clamped to [RTOMin, 8 × Interval], with exponential backoff per
// unanswered retransmission (Karn's algorithm). Interval stays the
// timeout of destinations with no samples yet. The NIC builds one when it
// runs liveness sessions, which supply the samples.
func NewAdaptiveSender(cfg Config) *Sender {
	s := NewSender(cfg)
	s.adaptive = true
	return s
}

// Config returns the sender's configuration.
func (s *Sender) Config() Config { return s.cfg }

func (s *Sender) dest(dst topology.NodeID, now sim.Time) *destState {
	d := s.dests[dst]
	if d == nil {
		d = &destState{id: dst, lastProgress: now}
		s.dests[dst] = d
		i, _ := slices.BinarySearchFunc(s.order, dst, func(e *destState, id topology.NodeID) int {
			return cmp.Compare(e.id, id)
		})
		s.order = slices.Insert(s.order, i, d)
	}
	return d
}

// Prepare assigns the next (generation, sequence) pair for a packet to dst,
// appends its entry to the retransmission queue, and decides the ack-
// request level using sender-based feedback given the current free buffer
// count. The caller must have reserved a send buffer already.
func (s *Sender) Prepare(dst topology.NodeID, now sim.Time, freeBuffers int, payload any, size int) *Entry {
	d := s.dest(dst, now)
	d.unreachable = false
	if len(d.queue) == 0 {
		// Nothing was awaiting acknowledgment, so the time since the last
		// ack was idleness, not lack of progress. Without this reset, the
		// first packet after a think-time gap longer than
		// PermFailThreshold looks instantly stale and triggers a spurious
		// remap of a healthy path.
		d.lastProgress = now
	}
	var e *Entry
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = new(Entry)
	}
	*e = Entry{
		Dst:     dst,
		Gen:     d.gen,
		Seq:     d.nextSeq,
		Size:    size,
		Payload: payload,
		queued:  true,
	}
	d.nextSeq++
	d.queue = append(d.queue, e)
	return e
}

// AckRequestFor computes the sender-based-feedback ack level for an entry
// about to be transmitted for the first time (§4.1.2): nearly out of
// buffers → immediate explicit ack; under moderate pressure → delayed
// (piggyback-or-timeout) ack; plenty of buffers → delayed ack every K-th
// packet only.
func (s *Sender) AckRequestFor(e *Entry, freeBuffers int) proto.AckLevel {
	d := s.dests[e.Dst]
	q := s.cfg.QueueSize
	if s.cfg.FixedAckEvery > 0 {
		// Ablation: fixed-period ack requests, no buffer feedback —
		// except that a sender completely out of buffers still demands
		// an immediate ack (otherwise it deadlocks against itself).
		if freeBuffers == 0 {
			d.sinceAckReq = 0
			return proto.AckImmediate
		}
		d.sinceAckReq++
		if d.sinceAckReq >= s.cfg.FixedAckEvery {
			d.sinceAckReq = 0
			return proto.AckDelayed
		}
		return proto.AckNone
	}
	switch {
	case freeBuffers*4 <= q:
		d.sinceAckReq = 0
		return proto.AckImmediate
	case freeBuffers*4 <= 3*q:
		d.sinceAckReq = 0
		return proto.AckDelayed
	default:
		d.sinceAckReq++
		k := q / ackEveryDiv
		if k < 1 {
			k = 1
		}
		if d.sinceAckReq >= k {
			d.sinceAckReq = 0
			return proto.AckDelayed
		}
		return proto.AckNone
	}
}

// OnTransmitted records that entry e reached the wire (or was consumed by
// send-side error injection, which the paper's methodology treats
// identically).
func (s *Sender) OnTransmitted(e *Entry, now sim.Time) {
	e.Sent = true
	e.LastSent = now
}

// OnAck processes a cumulative acknowledgment from dst covering every
// sequence number ≤ ackSeq of generation ackGen. It returns the freed
// entries (whose buffers the NIC may recycle). Stale-generation acks free
// nothing. The result is the sender's scratch slice: it stays valid until
// the next OnAck, MarkUnreachable or Recycle, and the caller hands it back
// with Recycle once it has read the entries.
func (s *Sender) OnAck(dst topology.NodeID, ackGen uint32, ackSeq uint64, now sim.Time) []*Entry {
	d := s.dests[dst]
	if d == nil || ackGen != d.gen {
		return nil
	}
	i := 0
	for i < len(d.queue) && d.queue[i].Seq <= ackSeq {
		i++
	}
	if i == 0 {
		return nil
	}
	freed := s.takeOut(d, i)
	d.lastProgress = now
	if s.adaptive {
		// Karn's algorithm: only never-retransmitted entries give an
		// unambiguous RTT (the ack provably answers this transmission).
		// Sample the newest qualifying entry of the run.
		for j := len(freed) - 1; j >= 0; j-- {
			e := freed[j]
			if e.Sent && e.Retransmits == 0 {
				s.ObserveRTT(dst, now.Sub(e.LastSent))
				break
			}
		}
	}
	return freed
}

// takeOut moves the first i entries of d's queue into the scratch slice
// and returns it, shifting the rest down so the queue keeps its backing
// array.
func (s *Sender) takeOut(d *destState, i int) []*Entry {
	s.out = append(s.out[:0], d.queue[:i]...)
	n := copy(d.queue, d.queue[i:])
	clear(d.queue[n:])
	d.queue = d.queue[:n]
	for _, e := range s.out {
		e.queued = false
	}
	return s.out
}

// Release hands e back for reuse by Prepare once nothing can reach it:
// it has left its queue (acked, or dropped by MarkUnreachable), no copy of
// it waits in the NIC's transmit queue or streams on the wire (InFlight is
// 0), and no retransmit batch with firmware work pending names it (Pin).
// Until all three hold it does nothing, so the NIC calls it wherever the
// last of them may have ended: after OnAck and MarkUnreachable (Recycle),
// when a copy leaves the transmit path, and when a batch's work has run
// (Unpin). Its pointers are cleared, so a free entry keeps no payload
// reachable.
func (s *Sender) Release(e *Entry) {
	if e.queued || e.InFlight > 0 || e.pins > 0 {
		return
	}
	if e.free {
		panic("retrans: entry released twice")
	}
	*e = Entry{free: true}
	s.free = append(s.free, e)
}

// Recycle releases each entry of a slice OnAck or MarkUnreachable
// returned, once the caller has read them, and clears the slice, so the
// scratch keeps nothing reachable.
func (s *Sender) Recycle(entries []*Entry) {
	for _, e := range entries {
		s.Release(e)
	}
	clear(entries)
}

// Pin marks e as named by a retransmit batch whose firmware work is still
// pending: Release keeps it until the matching Unpin, even once it is
// acked, because the batch will still read and resend it.
func (s *Sender) Pin(e *Entry) { e.pins++ }

// Unpin ends a Pin and releases e if nothing else reaches it.
func (s *Sender) Unpin(e *Entry) {
	e.pins--
	s.Release(e)
}

// ObserveRTT feeds one path round-trip sample for dst into the adaptive
// timeout estimator (Jacobson: SRTT += (rtt−SRTT)/8, RTTVAR +=
// (|rtt−SRTT|−RTTVAR)/4) and, since a fresh sample proves the path
// answers, resets the Karn backoff. Samples come from unambiguous data
// acks (OnAck) and from liveness control traffic (the NIC). No-op unless
// the sender is adaptive.
func (s *Sender) ObserveRTT(dst topology.NodeID, rtt time.Duration) {
	if !s.adaptive || rtt < 0 {
		return
	}
	d := s.dests[dst]
	if d == nil {
		return
	}
	r := int64(rtt)
	if !d.hasRTT {
		d.srtt = r
		d.rttvar = r / 2
		d.hasRTT = true
	} else {
		diff := r - d.srtt
		if diff < 0 {
			diff = -diff
		}
		d.rttvar += (diff - d.rttvar) / 4
		d.srtt += (r - d.srtt) / 8
	}
	d.backoff = 0
}

// timeoutFor returns the retransmission timeout in force for one
// destination: the fixed Interval, or on an adaptive sender the Jacobson
// RTO (SRTT + 4·RTTVAR clamped to [RTOMin, 8 × Interval]) doubled per
// unanswered retransmission burst (Karn backoff, under the same cap).
func (s *Sender) timeoutFor(d *destState) time.Duration {
	if !s.adaptive {
		return s.cfg.Interval
	}
	to, ceil := s.cfg.Interval, rtoMaxIntervals*s.cfg.Interval
	if d.hasRTT {
		to = max(time.Duration(d.srtt+4*d.rttvar), RTOMin)
	}
	for i := uint(0); i < d.backoff && to < ceil; i++ {
		to *= 2
	}
	return min(to, ceil)
}

// TimeoutFor exposes the timeout in force for dst (Interval when the
// destination is unknown) — diagnostics and tests.
func (s *Sender) TimeoutFor(dst topology.NodeID) time.Duration {
	if d := s.dests[dst]; d != nil {
		return s.timeoutFor(d)
	}
	return s.cfg.Interval
}

// NextDeadline returns the earliest instant at which any destination's
// timeout can expire: min over eligible queue heads of LastSent +
// timeoutFor. ok is false when nothing is awaiting a timeout (all queues
// empty, unsent, or in flight). The NIC's adaptive timer uses it to
// schedule the next scan at the deadline instead of a fixed period, which
// removes the up-to-one-period detection blind spot of a free-running
// scan.
func (s *Sender) NextDeadline() (deadline sim.Time, ok bool) {
	for _, d := range s.order {
		if len(d.queue) == 0 || d.unreachable {
			continue
		}
		head := d.queue[0]
		if !head.Sent || head.InFlight > 0 {
			continue
		}
		dl := head.LastSent.Add(s.timeoutFor(d))
		if !ok || dl < deadline {
			deadline, ok = dl, true
		}
	}
	return deadline, ok
}

// Batch is a go-back-N retransmission order for one destination: resend
// Entries in order. The last entry of a batch should request an immediate
// ack so the sender resynchronizes quickly.
type Batch struct {
	Dst     topology.NodeID
	Entries []*Entry
	// Oldest is how long the head entry had gone without (re)transmission
	// when the timer fired — the true timeout-detection latency for this
	// burst: the timeout in force plus however long the head sat eligible
	// waiting for the next scan.
	Oldest time.Duration
	// Timeout is the threshold that was in force for this destination
	// when the burst was detected (Interval, or the adaptive RTO).
	Timeout time.Duration
	// Waited is the scan-quantization component of Oldest: how long the
	// head had already been PAST its timeout when the scan found it
	// (Oldest − Timeout). A burst becoming eligible just after a tick
	// waits up to a full scan period here — the detection blind spot the
	// adaptive deadline-driven timer closes.
	Waited time.Duration
}

// Tick runs the single periodic retransmission timer: for every
// destination whose oldest transmitted packet has gone unacknowledged for
// at least the interval, it returns the full ordered list of transmitted
// packets to resend (go-back-N). Entries' LastSent are updated to now;
// the NIC must transmit them (ahead of any queued new packets for the same
// destination, to preserve wire order).
func (s *Sender) Tick(now sim.Time) []Batch {
	var out []Batch
	for _, d := range s.order {
		if len(d.queue) == 0 || d.unreachable {
			continue
		}
		head := d.queue[0]
		age := now.Sub(head.LastSent)
		timeout := s.timeoutFor(d)
		if !head.Sent || head.InFlight > 0 || age < timeout {
			continue
		}
		var batch []*Entry
		for _, e := range d.queue {
			if !e.Sent || e.InFlight > 0 {
				break // still queued at the NIC or on the wire
			}
			e.LastSent = now
			e.Retransmits++
			batch = append(batch, e)
		}
		if len(batch) > 0 {
			if s.adaptive && d.backoff < 16 {
				// Karn backoff: each unanswered burst doubles the next
				// timeout until a fresh sample arrives.
				d.backoff++
			}
			out = append(out, Batch{
				Dst: d.id, Entries: batch,
				Oldest: age, Timeout: timeout, Waited: age - timeout,
			})
		}
	}
	return out
}

// Unacked returns the number of entries queued for dst.
func (s *Sender) Unacked(dst topology.NodeID) int {
	d := s.dests[dst]
	if d == nil {
		return 0
	}
	return len(d.queue)
}

// TotalUnacked returns the number of entries queued across all
// destinations — the number of send buffers in use.
func (s *Sender) TotalUnacked() int {
	t := 0
	for _, d := range s.order {
		t += len(d.queue)
	}
	return t
}

// StalePaths returns destinations that look permanently failed: queued
// packets with no acknowledgment progress for PermFailThreshold. Returns
// nil when detection is disabled.
func (s *Sender) StalePaths(now sim.Time) []topology.NodeID {
	if s.cfg.PermFailThreshold == 0 {
		return nil
	}
	var out []topology.NodeID
	for _, d := range s.order {
		if len(d.queue) == 0 || d.unreachable {
			continue
		}
		if d.queue[0].Sent && now.Sub(d.lastProgress) >= s.cfg.PermFailThreshold {
			out = append(out, d.id)
		}
	}
	return out
}

// ResetGeneration starts a new sequence generation for dst after a
// successful remap (§4.2): queued packets are renumbered from zero under
// the new generation and marked unsent; the NIC must re-enqueue them for
// transmission. Returns the renumbered entries in order.
func (s *Sender) ResetGeneration(dst topology.NodeID, now sim.Time) []*Entry {
	d := s.dest(dst, now)
	d.gen++
	d.nextSeq = uint64(len(d.queue))
	d.lastProgress = now
	d.sinceAckReq = 0
	d.unreachable = false
	// The remap installed a different physical path: keep the smoothed
	// RTT as a prior but drop the Karn backoff so the first timeout on
	// the new path is not inflated by the old path's failures.
	d.backoff = 0
	for i, e := range d.queue {
		e.Gen = d.gen
		e.Seq = uint64(i)
		e.Sent = false
		e.LastSent = 0
	}
	return append([]*Entry(nil), d.queue...)
}

// Generation returns the current sequence generation for dst.
func (s *Sender) Generation(dst topology.NodeID) uint32 {
	if d := s.dests[dst]; d != nil {
		return d.gen
	}
	return 0
}

// MarkUnreachable drops every pending packet for dst (the paper: "if no
// alternative route to a node exists, the node is labeled as unreachable
// and any pending packets are dropped") and returns the dropped entries so
// the NIC can free their buffers. The result is the scratch slice OnAck
// returns, valid until the next OnAck, MarkUnreachable or Recycle.
func (s *Sender) MarkUnreachable(dst topology.NodeID) []*Entry {
	d := s.dests[dst]
	if d == nil {
		return nil
	}
	d.unreachable = true
	return s.takeOut(d, len(d.queue))
}

// Unreachable reports whether dst is currently marked unreachable.
func (s *Sender) Unreachable(dst topology.NodeID) bool {
	d := s.dests[dst]
	return d != nil && d.unreachable
}
