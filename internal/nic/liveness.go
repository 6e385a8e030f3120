package nic

import (
	"sanft/internal/liveness"
	"sanft/internal/proto"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// liveSession binds one liveness.Session to this NIC's hardware: the
// session is pure protocol state; the NIC owns its transmit loop and the
// detection timer.
type liveSession struct {
	s      *liveness.Session
	detect sim.Timer
}

// ensureSession creates (once) the liveness session toward dst and starts
// its transmit loop. Called from SetRoute, so every routed destination is
// monitored — including fresh routes installed by a remap.
func (n *NIC) ensureSession(dst topology.NodeID) {
	if n.opts.Liveness == nil || dst == n.node {
		return
	}
	if _, ok := n.live[dst]; ok {
		return
	}
	cfg := *n.opts.Liveness
	// Mix the endpoints into the seed so every session jitters on its own
	// stream; the base seed comes from the cluster configuration.
	cfg.Seed = cfg.Seed*1000193 + int64(n.node)*8191 + int64(dst)*127 + 5
	ls := &liveSession{s: liveness.NewSession(cfg, n.node, dst)}
	n.live[dst] = ls
	// The first transmission takes a full jittered interval, like a NIC
	// booting at an arbitrary instant — sessions never start in lockstep.
	n.k.After(ls.s.NextTxDelay(), func() { n.liveTx(dst) })
}

// Session returns the liveness session toward dst (nil when liveness is
// off or no route was ever installed).
func (n *NIC) Session(dst topology.NodeID) *liveness.Session {
	if ls := n.live[dst]; ls != nil {
		return ls.s
	}
	return nil
}

// liveTx builds and sends one control packet for dst's session, then
// re-arms itself after the session's jittered (and, while down, backed
// off) transmit interval. Control packets share the ack-send firmware
// cost and ride SendControl: fire-and-forget, dropped freely.
func (n *NIC) liveTx(dst topology.NodeID) {
	ls := n.live[dst]
	if ls == nil {
		return
	}
	n.fw(n.cost.AckSendCost, sim.HandlerFunc(func(any) {
		p := ls.s.BuildTx(n.k.Now())
		n.mx.AddTo(&n.m.liveTx, "liveness.tx", 1)
		n.SendControl(&proto.Frame{Type: proto.FrameLiveness, Dst: dst, Live: p}, nil)
		n.k.After(ls.s.NextTxDelay(), func() { n.liveTx(dst) })
	}), nil)
}

// onLiveness processes a received liveness control packet: session state
// machine, RTT sampling into the adaptive retransmission timer, and
// detection-timer re-arm. Session transitions are counted and traced
// (emit); a drop to Down raises the session-down recovery upcall.
func (n *NIC) onLiveness(frame *proto.Frame) {
	if n.opts.Liveness == nil || frame.Live == nil {
		return
	}
	src := frame.Src
	// A control packet can arrive before any route to its sender exists
	// (asymmetric mapping states); answer with a session anyway so the
	// peer can complete its handshake once connectivity returns.
	n.ensureSession(src)
	ls := n.live[src]
	if ls == nil {
		return
	}
	now := n.k.Now()
	n.mx.AddTo(&n.m.liveRx, "liveness.rx", 1)
	r := ls.s.OnRx(frame.Live, now)
	if r.HasRTT {
		n.mx.ObserveTo(&n.m.liveRTT, "liveness.rtt_ns", r.RTT)
		if n.snd != nil {
			n.snd.ObserveRTT(src, r.RTT)
		}
	}
	// Every received packet re-arms detection with the (possibly renegotiated)
	// detection time.
	ls.detect.Cancel()
	ls.detect = n.k.After(ls.s.DetectionTime(), func() { n.liveDetect(src) })
	if r.StateChanged {
		switch r.New {
		case liveness.Up:
			n.emit(trace.EvLiveUp, src, 0, 0, 0)
		case liveness.Down:
			// Peer advertised Down (its detector fired or it restarted).
			n.emit(trace.EvLiveDown, src, 0, 0, 0)
			n.sessionDown(src)
		}
	}
}

// liveDetect fires when a session's detection time elapses with no
// control packet: the path is declared dead long before the fixed
// permanent-failure threshold or watchdog would notice.
func (n *NIC) liveDetect(dst topology.NodeID) {
	ls := n.live[dst]
	if ls == nil || !ls.s.OnDetectTimeout() {
		return
	}
	lat := ls.s.SilenceFor(n.k.Now())
	n.mx.ObserveTo(&n.m.liveDetectNS, "liveness.detect_ns", lat)
	n.emit(trace.EvLiveDown, dst, 0, uint64(lat), 0)
	n.sessionDown(dst)
}

// sessionDown raises the recovery upcall, sharing the at-most-once-per-
// remap-cycle guard with the stale-path and no-route detectors so one
// fault never triggers a second remap for the same destination.
func (n *NIC) sessionDown(dst topology.NodeID) {
	if n.opts.OnSessionDown != nil && !n.inRemap[dst] {
		n.inRemap[dst] = true
		n.opts.OnSessionDown(dst)
	}
}
