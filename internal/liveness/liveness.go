// Package liveness implements BFD-style per-path liveness sessions for
// the simulated NIC firmware (RFC 5880 semantics): a three-way handshake
// (Down/Init/Up), negotiated transmit/receive intervals with a detection
// multiplier, adaptive interval backoff while a session is down, and
// deterministic seeded jitter on control-packet scheduling so sessions
// never synchronize into control storms.
//
// The paper detects failures with two fixed timers — the 62.5 ms deadlock
// watchdog and the retransmission timer's permanent-failure threshold —
// so detection latency is a constant, not a function of the network. A
// liveness session turns detection into a per-path property: a dead path
// is declared Down after detect-multiplier × negotiated-interval of
// control silence, typically an order of magnitude before the fixed
// thresholds fire, and the session-down event feeds the same remap /
// quarantine recovery path.
//
// As a side effect of the periodic exchange, each side measures path
// round-trip time NTP-style: every control packet echoes the newest
// sequence number heard from the peer plus the local hold time, so
// RTT = now − sendTime(echoed seq) − hold, with no clock exchange. Those
// samples drive the SRTT/RTTVAR adaptive retransmission timeout in
// internal/retrans when enabled.
//
// Like internal/retrans, this package is pure protocol state: it takes
// the current time as an argument and returns decisions; the NIC model
// (internal/nic) binds sessions to timers, the wire, and the recovery
// upcalls. Every random draw comes from a session-local seeded generator,
// so enabling liveness never perturbs any other subsystem's stream.
package liveness

import (
	"fmt"
	"math/rand"
	"time"

	"sanft/internal/proto"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// State is the BFD session state (RFC 5880 §6.2; AdminDown is not
// modeled — a simulated NIC is never administratively disabled).
type State uint8

const (
	// Down: no recent control packet from the peer (or detection fired).
	Down State = iota
	// Init: we hear the peer, but it does not yet hear us.
	Init
	// Up: both directions confirmed — the three-way handshake completed.
	Up
)

var stateNames = [...]string{"down", "init", "up"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// Config holds per-session timer terms. The zero value takes defaults.
type Config struct {
	// DesiredMinTx is the interval this side would like to transmit
	// control packets at (RFC 5880 DesiredMinTxInterval). Default 1ms.
	DesiredMinTx time.Duration
	// RequiredMinRx is the slowest incoming rate this side can support
	// (RFC 5880 RequiredMinRxInterval). The peer transmits no faster
	// than this. Default = DesiredMinTx.
	RequiredMinRx time.Duration
	// DetectMult is the detection multiplier: the session drops to Down
	// after DetectMult negotiated intervals of control silence. Default 3.
	DetectMult int
	// DownBackoffMax caps the adaptive transmit backoff while a session
	// is down: each unanswered transmission doubles the interval up to
	// this bound (RFC 5880 §6.8.3 slow-tx, made geometric). Default
	// 8 × DesiredMinTx.
	DownBackoffMax time.Duration
	// JitterFrac scatters each transmit interval uniformly over
	// [1−JitterFrac, 1] × interval (RFC 5880 §6.8.7 mandates 75–100%
	// for DetectMult > 1). Default 0.25.
	JitterFrac float64
	// Seed drives the per-session jitter stream.
	Seed int64
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.DesiredMinTx == 0 {
		c.DesiredMinTx = time.Millisecond
	}
	if c.RequiredMinRx == 0 {
		c.RequiredMinRx = c.DesiredMinTx
	}
	if c.DetectMult == 0 {
		c.DetectMult = 3
	}
	if c.DownBackoffMax == 0 {
		c.DownBackoffMax = 8 * c.DesiredMinTx
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.25
	}
	return c
}

// sentRing remembers the send times of the last few control packets so an
// echoed sequence number can be matched to its transmission instant.
const sentRing = 8

// RxResult reports what one received control packet did to the session.
type RxResult struct {
	// Old and New are the states before and after the packet;
	// StateChanged is New != Old.
	Old, New     State
	StateChanged bool
	// RTT is a fresh path round-trip sample (valid only with HasRTT):
	// now − sendTime(echoed seq) − peer hold time.
	RTT    time.Duration
	HasRTT bool
}

// Session is one directed liveness session toward a peer. All methods
// take the current simulated time; the caller owns scheduling.
type Session struct {
	cfg  Config
	self topology.NodeID
	peer topology.NodeID
	rng  *rand.Rand

	state State
	disc  uint32 // our discriminator
	rdisc uint32 // peer's discriminator (0 until heard)

	// Peer timer terms, from its latest control packet.
	remoteMinTx  time.Duration
	remoteMinRx  time.Duration
	remoteDetect int

	seq       uint64             // our control-packet sequence counter
	sentAt    [sentRing]sim.Time // send times, indexed by seq % sentRing
	lastRxSeq uint64             // newest peer seq heard (echo source)
	lastRxAt  sim.Time           // when we heard it (hold-time base)
	haveRx    bool

	downStreak int // consecutive transmissions while not Up (backoff)
}

// NewSession creates a session from self toward peer. The discriminator
// is derived deterministically from the endpoints — unique per ordered
// pair, stable across runs.
func NewSession(cfg Config, self, peer topology.NodeID) *Session {
	cfg = cfg.Defaults()
	if cfg.DetectMult < 1 {
		panic(fmt.Sprintf("liveness: detect multiplier %d < 1", cfg.DetectMult))
	}
	return &Session{
		cfg:   cfg,
		self:  self,
		peer:  peer,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ (int64(self)<<20 | int64(peer)<<2 | 1))),
		state: Down,
		disc:  uint32(self)<<16 | uint32(peer) + 1,
	}
}

// State returns the current session state.
func (s *Session) State() State { return s.state }

// TxInterval returns the negotiated steady-state transmit interval: we
// must not send faster than the peer can receive (RFC 5880 §6.8.2:
// max(local DesiredMinTx, remote RequiredMinRx)).
func (s *Session) TxInterval() time.Duration {
	iv := s.cfg.DesiredMinTx
	if s.remoteMinRx > iv {
		iv = s.remoteMinRx
	}
	return iv
}

// DetectionTime returns how much control silence drops the session: the
// peer's detect multiplier... as seen from our side it is our multiplier
// applied to the slower of what we require and what the peer can offer
// (RFC 5880 §6.8.4: DetectMult × max(RequiredMinRx, remote DesiredMinTx)).
func (s *Session) DetectionTime() time.Duration {
	iv := s.cfg.RequiredMinRx
	if s.remoteMinTx > iv {
		iv = s.remoteMinTx
	}
	return time.Duration(s.cfg.DetectMult) * iv
}

// NextTxDelay returns the jittered delay until the next control packet
// should be sent: the negotiated interval, doubled per unanswered
// transmission while the session is not Up (capped at DownBackoffMax),
// scattered over [1−JitterFrac, 1].
func (s *Session) NextTxDelay() time.Duration {
	iv := s.TxInterval()
	if s.state != Up {
		for i := 0; i < s.downStreak && iv < s.cfg.DownBackoffMax; i++ {
			iv *= 2
		}
		if iv > s.cfg.DownBackoffMax {
			iv = s.cfg.DownBackoffMax
		}
	}
	f := 1 - s.cfg.JitterFrac*s.rng.Float64()
	return time.Duration(float64(iv) * f)
}

// BuildTx assembles the control packet to transmit now and records its
// send time for RTT echoing.
func (s *Session) BuildTx(now sim.Time) *proto.LivenessPayload {
	s.seq++
	s.sentAt[s.seq%sentRing] = now
	if s.state != Up {
		s.downStreak++
	}
	p := &proto.LivenessPayload{
		State:           uint8(s.state),
		MyDisc:          s.disc,
		YourDisc:        s.rdisc,
		DesiredMinTxNs:  int64(s.cfg.DesiredMinTx),
		RequiredMinRxNs: int64(s.cfg.RequiredMinRx),
		DetectMult:      uint8(s.cfg.DetectMult),
		Seq:             s.seq,
	}
	if s.haveRx {
		p.YourSeq = s.lastRxSeq
		p.HoldNs = int64(now.Sub(s.lastRxAt))
	}
	return p
}

// OnRx processes one control packet from the peer and applies the RFC
// 5880 §6.8.6 state transitions. The caller must re-arm its detection
// timer for DetectionTime() afterwards (the terms may have changed).
func (s *Session) OnRx(p *proto.LivenessPayload, now sim.Time) RxResult {
	r := RxResult{Old: s.state, New: s.state}
	// Discriminator check: a packet claiming to know us must know us.
	if p.YourDisc != 0 && p.YourDisc != s.disc {
		return r
	}
	s.rdisc = p.MyDisc
	s.remoteMinTx = time.Duration(p.DesiredMinTxNs)
	s.remoteMinRx = time.Duration(p.RequiredMinRxNs)
	s.remoteDetect = int(p.DetectMult)

	// RTT sample from the echo fields, clamped at zero (a stale echo
	// from before our restart could otherwise go negative).
	if p.YourSeq != 0 && p.YourSeq <= s.seq && s.seq-p.YourSeq < sentRing {
		rtt := now.Sub(s.sentAt[p.YourSeq%sentRing]) - time.Duration(p.HoldNs)
		if rtt >= 0 {
			r.RTT, r.HasRTT = rtt, true
		}
	}

	s.lastRxSeq = p.Seq
	s.lastRxAt = now
	s.haveRx = true

	switch s.state {
	case Down:
		switch State(p.State) {
		case Down:
			s.to(Init, &r)
		case Init:
			s.to(Up, &r)
		}
		// Peer says Up while we are Down: ignore; it will see our Down
		// and fall back, restarting the handshake.
	case Init:
		switch State(p.State) {
		case Init, Up:
			s.to(Up, &r)
		}
	case Up:
		if State(p.State) == Down {
			s.to(Down, &r)
		}
	}
	return r
}

// SilenceFor returns how long the peer has been silent: the elapsed time
// since the last control packet was received (zero before any packet).
// When the detection timer fires this is the true detection latency —
// at least DetectionTime(), plus any timer re-arm lag.
func (s *Session) SilenceFor(now sim.Time) time.Duration {
	if !s.haveRx {
		return 0
	}
	return now.Sub(s.lastRxAt)
}

// OnDetectTimeout drops the session to Down after DetectionTime() of
// silence. Returns false if the session was already Down (no transition).
func (s *Session) OnDetectTimeout() bool {
	if s.state == Down {
		return false
	}
	s.state = Down
	s.downStreak = 0
	return true
}

func (s *Session) to(next State, r *RxResult) {
	if s.state == next {
		return
	}
	s.state = next
	s.downStreak = 0
	r.New = next
	r.StateChanged = true
}
