package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sanft/internal/mapping"
	"sanft/internal/metrics"
	"sanft/internal/nic"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// RemapPolicy tunes how the cluster reacts to remap failures. The paper's
// recovery loop — stale path or missing route → on-demand remap — assumes
// failures are rare and isolated; under a remap storm (a flapping link, a
// destination that is simply gone) naive per-upcall remapping retries
// forever and floods the network with probes. The policy bounds that:
// concurrent requests for one destination coalesce into a single run,
// failed runs back off exponentially (with jitter, so a cluster of NICs
// does not probe in lockstep), and a destination that keeps failing is
// quarantined — further demand is answered with an explicit Unreachable
// upcall and remapping resumes only at exponentially spaced release times.
type RemapPolicy struct {
	// Backoff is the delay before retrying after the first failed remap;
	// it doubles per consecutive failure up to BackoffMax. Default 2ms.
	Backoff    time.Duration
	BackoffMax time.Duration // default 64ms
	// JitterFrac spreads each backoff uniformly within ±JitterFrac of its
	// nominal value. Default 0.25; negative disables jitter.
	JitterFrac float64
	// QuarantineAfter is the number of consecutive failures before the
	// destination is quarantined. Default 3; negative disables quarantine
	// (failed remaps keep retrying at BackoffMax pace forever).
	QuarantineAfter int
	// Quarantine is the first quarantine release delay; it doubles per
	// further failure up to QuarantineMax. Defaults 250ms / 2s.
	Quarantine    time.Duration
	QuarantineMax time.Duration
}

// Defaults fills zero fields.
func (p RemapPolicy) Defaults() RemapPolicy {
	if p.Backoff == 0 {
		p.Backoff = 2 * time.Millisecond
	}
	if p.BackoffMax == 0 {
		p.BackoffMax = 64 * time.Millisecond
	}
	if p.JitterFrac == 0 {
		p.JitterFrac = 0.25
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	}
	if p.QuarantineAfter == 0 {
		p.QuarantineAfter = 3
	}
	if p.Quarantine == 0 {
		p.Quarantine = 250 * time.Millisecond
	}
	if p.QuarantineMax == 0 {
		p.QuarantineMax = 2 * time.Second
	}
	return p
}

// RemapStats counts remap-manager activity across the cluster.
type RemapStats struct {
	// Attempts is the number of mapping runs started.
	Attempts int
	// Coalesced counts upcalls absorbed by an already running or already
	// scheduled remap for the same destination.
	Coalesced int
	// Deferred counts remap requests pushed to a backoff or quarantine
	// release time instead of starting immediately.
	Deferred int
	// Quarantines counts entries into the quarantined state.
	Quarantines int
}

// remapState is the manager's view of one destination.
type remapState struct {
	running  bool // a mapping run is in progress
	pending  bool // an upcall arrived while running
	armed    bool // a retry timer is set for notBefore
	failures int  // consecutive failed runs
	backoff  time.Duration
	release  time.Duration
	// notBefore is the earliest instant the next run may start.
	notBefore   sim.Time
	quarantined bool
	seq         int // attempt counter, for proc names
}

// remapManager serializes and paces remap activity for one host. All
// OnPathStale/OnNoRoute upcalls funnel through trigger; at most one mapping
// run per destination is ever in flight.
type remapManager struct {
	c   *Cluster
	h   topology.NodeID
	n   *nic.NIC
	m   *mapping.Mapper
	pol RemapPolicy
	rng *rand.Rand
	dst map[topology.NodeID]*remapState
	mx  *metrics.Scope
	// mh holds the handles of the manager's metrics with no trace kind,
	// each resolved through mx the first time its event fires
	// (metrics.Scope.AddTo). The counted kinds go through the NIC's
	// EmitEvent, which counts them in this same scope.
	mh struct {
		held, coalesced, failures *metrics.Counter
		latencyNS                 *metrics.Histogram
	}

	// suspended freezes recovery: triggers are held (not dropped) and
	// replayed in destination order on resume. Stale-map scenarios use
	// this to keep a host routing on its pre-failure map.
	suspended bool
	held      map[topology.NodeID]bool
}

func newRemapManager(c *Cluster, h topology.NodeID, n *nic.NIC, m *mapping.Mapper, pol RemapPolicy, seed int64) *remapManager {
	return &remapManager{
		c:    c,
		h:    h,
		n:    n,
		m:    m,
		pol:  pol,
		rng:  rand.New(rand.NewSource(seed)),
		dst:  make(map[topology.NodeID]*remapState),
		mx:   n.MetricsScope(),
		held: make(map[topology.NodeID]bool),
	}
}

// suspend holds all future triggers. resume replays held destinations in
// sorted order (deterministic) and re-enables normal operation.
func (rm *remapManager) suspend() { rm.suspended = true }

func (rm *remapManager) resume() {
	rm.suspended = false
	dsts := make([]topology.NodeID, 0, len(rm.held))
	for d := range rm.held {
		dsts = append(dsts, d)
	}
	rm.held = make(map[topology.NodeID]bool)
	sortNodeIDs(dsts)
	for _, d := range dsts {
		rm.trigger(d)
	}
}

func (rm *remapManager) state(dst topology.NodeID) *remapState {
	st := rm.dst[dst]
	if st == nil {
		st = &remapState{backoff: rm.pol.Backoff, release: rm.pol.Quarantine}
		rm.dst[dst] = st
	}
	return st
}

// quarantinedNow reports whether dst is currently quarantined (cleared only
// by a later successful remap).
func (rm *remapManager) quarantinedNow(dst topology.NodeID) bool {
	st := rm.dst[dst]
	return st != nil && st.quarantined
}

// trigger handles one remap request for dst — from a NIC upcall or from an
// internal retry timer. Requests while a run is active coalesce; requests
// before the backoff/quarantine release time arm (at most) one timer.
func (rm *remapManager) trigger(dst topology.NodeID) {
	if rm.suspended {
		rm.held[dst] = true
		rm.mx.AddTo(&rm.mh.held, "remap.held", 1)
		return
	}
	st := rm.state(dst)
	if st.running {
		st.pending = true
		rm.c.RemapStats.Coalesced++
		rm.mx.AddTo(&rm.mh.coalesced, "remap.coalesced", 1)
		return
	}
	now := rm.c.K.Now()
	if now.Before(st.notBefore) {
		if st.armed {
			rm.c.RemapStats.Coalesced++
			rm.mx.AddTo(&rm.mh.coalesced, "remap.coalesced", 1)
			return
		}
		st.armed = true
		rm.c.RemapStats.Deferred++
		rm.n.EmitEvent(trace.EvRemapDefer, dst, 0)
		rm.c.K.At(st.notBefore, func() {
			st.armed = false
			rm.trigger(dst)
		})
		return
	}
	rm.attempt(dst, st)
}

func (rm *remapManager) attempt(dst topology.NodeID, st *remapState) {
	st.running = true
	st.seq++
	rm.c.RemapStats.Attempts++
	n := rm.n
	n.EmitEvent(trace.EvRemapStart, dst, 0)
	rm.c.K.Spawn(fmt.Sprintf("remap-%d-%d.%d", rm.h, dst, st.seq), func(p *sim.Proc) {
		mst, ok := rm.m.Remap(p, dst)
		st.running = false
		if ok {
			rm.mx.ObserveTo(&rm.mh.latencyNS, "remap.latency_ns", mst.Elapsed)
			n.EmitEvent(trace.EvRemapDone, dst, 0)
			st.failures = 0
			st.backoff = rm.pol.Backoff
			st.release = rm.pol.Quarantine
			st.quarantined = false
			st.notBefore = 0
			// A pending request is dropped: the route is fresh, and the
			// NIC re-raises the upcall if the path is still broken.
			st.pending = false
			return
		}
		rm.mx.AddTo(&rm.mh.failures, "remap.failures", 1)
		st.failures++
		now := p.Now()
		if rm.pol.QuarantineAfter > 0 && st.failures >= rm.pol.QuarantineAfter {
			if !st.quarantined {
				st.quarantined = true
				rm.c.RemapStats.Quarantines++
				n.EmitEvent(trace.EvQuarantine, dst, 0)
			}
			st.notBefore = now.Add(st.release)
			st.release *= 2
			if st.release > rm.pol.QuarantineMax {
				st.release = rm.pol.QuarantineMax
			}
		} else {
			st.notBefore = now.Add(rm.jitter(st.backoff))
			st.backoff *= 2
			if st.backoff > rm.pol.BackoffMax {
				st.backoff = rm.pol.BackoffMax
			}
		}
		if st.pending {
			st.pending = false
			rm.trigger(dst) // defers to notBefore via the retry timer
		}
	})
}

// busy returns the number of destinations with an active mapping run and
// the number with an armed retry timer.
func (rm *remapManager) busy() (running, armed int) {
	for _, st := range rm.dst {
		if st.running {
			running++
		}
		if st.armed {
			armed++
		}
	}
	return
}

func sortNodeIDs(ids []topology.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// jitter spreads d uniformly within ±JitterFrac·d.
func (rm *remapManager) jitter(d time.Duration) time.Duration {
	if rm.pol.JitterFrac <= 0 || d <= 0 {
		return d
	}
	j := int64(rm.pol.JitterFrac * float64(d))
	if j <= 0 {
		return d
	}
	out := d + time.Duration(rm.rng.Int63n(2*j+1)-j)
	if out < time.Microsecond {
		out = time.Microsecond
	}
	return out
}
