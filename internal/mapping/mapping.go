// Package mapping implements the paper's second contribution (§4.2): an
// on-demand, decentralized network mapping scheme for tolerating permanent
// failures.
//
// Unlike conventional schemes that stop all traffic and compute a full
// network map plus deadlock-free UP*/DOWN* routes, this mapper:
//
//   - discovers only the part of the network needed to reach one
//     destination, breadth-first, stopping as soon as the target answers;
//   - runs on any NIC, concurrently with other traffic, with no central
//     map manager;
//   - installs plain shortest routes over its partial map — NOT
//     deadlock-free; the retransmission protocol doubles as the deadlock
//     recovery mechanism (the fabric's watchdog resets a blocked path and
//     the sender's timer retransmits);
//   - bumps the sequence-number generation when a path is remapped, so
//     packets of previous generations are discarded cleanly.
//
// Discovery uses only the probe mechanisms a real source-routed SAN offers
// (switches have no network-visible identity):
//
//   - Host probe: a packet sent along a candidate route carrying a return
//     route; if a host sits at the end, its NIC answers with its identity.
//   - Echo probe: a packet routed out a port and (by a guessed port) back
//     the way it came; its return proves a switch is present and reveals
//     the probe's entry port into it — the key to constructing return
//     routes deeper into the network. Each wrong guess costs a probe
//     timeout, which is why switch discovery dominates mapping time
//     (Table 3).
//   - Switch identity is established by fingerprinting: the (port → host)
//     signature of a newly found switch is compared against known
//     switches, so redundant links to an already-known switch do not
//     re-expand the BFS (they are recorded as alternate paths).
package mapping

import (
	"fmt"
	"sort"
	"time"

	"sanft/internal/metrics"
	"sanft/internal/nic"
	"sanft/internal/proto"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// Config holds mapper tunables.
type Config struct {
	// ProbeTimeout is how long the mapper waits for a probe's reply or
	// echo before concluding nothing (or no host / no switch) is there.
	// Default 500µs: well above the ~16µs no-error round trip, with
	// headroom for probes queued behind bulk traffic — and it lands the
	// Table 3 mapping times in the paper's measured range.
	ProbeTimeout time.Duration
	// MaxRadix bounds the port-scan range (the largest switch the mapper
	// expects to meet). Default 16, as in the paper's testbed.
	MaxRadix int
	// MaxDepth bounds BFS depth (hop count) as a safety net. Default 16.
	MaxDepth int
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 500 * time.Microsecond
	}
	if c.MaxRadix == 0 {
		c.MaxRadix = 16
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 16
	}
	return c
}

// Stats counts the work done by one mapping run — the quantities Table 3
// reports.
type Stats struct {
	// HostProbes and SwitchProbes count probe messages by purpose
	// (locating hosts vs locating/identifying switches).
	HostProbes   int
	SwitchProbes int
	// Elapsed is the wall time (virtual) of the mapping run.
	Elapsed time.Duration
	// SwitchesFound and HostsFound size the discovered partial map.
	SwitchesFound int
	HostsFound    int
}

// Total returns the total probe message count.
func (s Stats) Total() int { return s.HostProbes + s.SwitchProbes }

// portContent describes what a probed switch port leads to.
type portContent struct {
	kind portKind
	host topology.NodeID // for portHost
	sw   int             // discovered-switch index, for portSwitch
}

type portKind int

const (
	portUnknown portKind = iota
	portEmpty
	portHost
	portSwitch
	portSelf // the port leading back toward the mapper (entry port)
)

// discSwitch is one switch in the mapper's partial map.
type discSwitch struct {
	prefix routing.Route // route bytes from the mapper's host to enter this switch
	rev    routing.Route // return route from this switch to the mapper ([e_d, ..., e_0])
	entry  int           // the port by which `prefix` enters this switch
	ports  map[int]portContent
	depth  int

	sig   string // memoized signature (valid when sigOK)
	sigOK bool
}

// signature builds the (port → host) fingerprint used for dedup. The dedup
// scan compares every new switch against every known one, so the string is
// memoized — rebuilt only after a host entry lands on this switch — which
// keeps the scan a cheap string comparison at thousand-host scale.
func (d *discSwitch) signature() string {
	if d.sigOK {
		return d.sig
	}
	var ps []int
	for p, c := range d.ports {
		if c.kind == portHost {
			ps = append(ps, p)
		}
	}
	sort.Ints(ps)
	sig := ""
	for _, p := range ps {
		sig += fmt.Sprintf("%d:%d;", p, d.ports[p].host)
	}
	d.sig, d.sigOK = sig, true
	return sig
}

// Map is the partial network map a run produces.
type Map struct {
	Switches []*discSwitch
	Hosts    map[topology.NodeID]hostLoc
}

type hostLoc struct {
	sw   int // discovered-switch index
	port int
}

// Mapper performs on-demand (and, as a baseline, full) network mapping
// from one NIC.
type Mapper struct {
	k   *sim.Kernel
	n   *nic.NIC
	cfg Config

	nextProbeID uint64
	pending     map[uint64]*sim.Mailbox[*proto.Frame]

	mx *metrics.Scope
	// mh holds the mapper's metric handles, each resolved through mx the
	// first time its event fires (metrics.Scope.AddTo).
	mh struct {
		hostProbes, switchProbes, runs *metrics.Counter
		runNS                          *metrics.Histogram
	}
}

// New attaches a mapper to a NIC (it takes over the NIC's probe upcall).
// The mapper records into the NIC's metrics scope, so its probe counts and
// run durations carry the same host label as the NIC's own telemetry.
func New(k *sim.Kernel, n *nic.NIC, cfg Config) *Mapper {
	m := &Mapper{
		k: k, n: n, cfg: cfg.Defaults(),
		pending: make(map[uint64]*sim.Mailbox[*proto.Frame]),
		mx:      n.MetricsScope(),
	}
	n.SetOnProbe(m.onProbe)
	return m
}

func (m *Mapper) onProbe(f *proto.Frame) {
	if f.Probe == nil {
		return
	}
	if mb, ok := m.pending[f.Probe.ProbeID]; ok {
		mb.Put(f)
	}
}

// sendProbeAndWait transmits one probe along an explicit route and waits
// for its reply/echo or the probe timeout. Must run in Proc context.
func (m *Mapper) sendProbeAndWait(p *sim.Proc, typ proto.FrameType, route, ret routing.Route) (*proto.Frame, bool) {
	m.nextProbeID++
	id := m.nextProbeID
	mb := &sim.Mailbox[*proto.Frame]{}
	m.pending[id] = mb
	defer delete(m.pending, id)
	f := &proto.Frame{
		Type: typ,
		Dst:  topology.None,
		Probe: &proto.ProbePayload{
			ProbeID:     id,
			Mapper:      m.n.Node(),
			ReturnRoute: ret,
		},
	}
	m.n.SendControl(f, route)
	return mb.GetTimeout(p, m.cfg.ProbeTimeout)
}

// probeHost checks whether a host answers at the end of `route`; ret is the
// return route for the reply.
func (m *Mapper) probeHost(p *sim.Proc, st *Stats, route, ret routing.Route) (topology.NodeID, bool) {
	st.HostProbes++
	m.mx.AddTo(&m.mh.hostProbes, "mapping.host_probes", 1)
	f, ok := m.sendProbeAndWait(p, proto.FrameHostProbe, route, ret)
	if !ok || f.Type != proto.FrameHostProbeReply {
		return topology.None, false
	}
	return f.Probe.ReplierID, true
}

// probeEcho checks whether an echo probe sent along `route` comes back.
func (m *Mapper) probeEcho(p *sim.Proc, st *Stats, route routing.Route) bool {
	st.SwitchProbes++
	m.mx.AddTo(&m.mh.switchProbes, "mapping.switch_probes", 1)
	f, ok := m.sendProbeAndWait(p, proto.FrameEchoProbe, route, nil)
	return ok && f.Type == proto.FrameEchoProbe
}

// findEntryPort discovers by which port a probe following `prefix+[via]`
// enters the next switch: it tries echo routes prefix+[via, x]+retPrefix
// until one returns. Returns (port, true) on success. The scan cost is the
// heart of switch-probe overhead: each wrong guess burns a full probe
// timeout.
func (m *Mapper) findEntryPort(p *sim.Proc, st *Stats, prefix routing.Route, via int, retPrefix routing.Route) (int, bool) {
	for x := 0; x < m.cfg.MaxRadix; x++ {
		route := append(append(prefix.Clone(), via, x), retPrefix...)
		if m.probeEcho(p, st, route) {
			return x, true
		}
	}
	return -1, false
}

// selfScan discovers the mapper's entry port on its first switch: route [x]
// returns to the mapper iff x is the port its own link attaches to.
func (m *Mapper) selfScan(p *sim.Proc, st *Stats) (int, bool) {
	for x := 0; x < m.cfg.MaxRadix; x++ {
		if m.probeEcho(p, st, routing.Route{x}) {
			return x, true
		}
	}
	return -1, false
}

// run executes the BFS. If target is a valid host ID the run stops as soon
// as that host is found (on-demand mode); with target == topology.None it
// explores everything reachable (full-map baseline mode).
func (m *Mapper) run(p *sim.Proc, target topology.NodeID) (mp *Map, st Stats) {
	start := p.Now()
	defer func() {
		st.Elapsed = p.Now().Sub(start)
		m.mx.AddTo(&m.mh.runs, "mapping.runs", 1)
		m.mx.ObserveTo(&m.mh.runNS, "mapping.run_ns", st.Elapsed)
	}()

	mp = &Map{Hosts: make(map[topology.NodeID]hostLoc)}

	// Find the entry port on our own switch.
	e0, ok := m.selfScan(p, &st)
	if !ok {
		return mp, st // our own link or first switch is dead
	}
	// The mapper's own port is recorded as a host (ourselves) so that the
	// switch's fingerprint matches if this switch is ever re-discovered
	// from deeper in the network (where our NIC answers host probes like
	// any other).
	s0 := &discSwitch{
		prefix: routing.Route{},
		rev:    routing.Route{e0},
		entry:  e0,
		ports:  map[int]portContent{e0: {kind: portHost, host: m.n.Node()}},
		depth:  0,
	}
	mp.Switches = append(mp.Switches, s0)
	st.SwitchesFound++

	queue := []int{0} // indices into mp.Switches
	for len(queue) > 0 {
		si := queue[0]
		queue = queue[1:]
		sw := mp.Switches[si]

		// Phase 1: host-probe every unknown port of this switch.
		var candidates []int // ports that answered nothing: maybe switches
		for q := 0; q < m.cfg.MaxRadix; q++ {
			if _, seen := sw.ports[q]; seen {
				continue
			}
			route := append(sw.prefix.Clone(), q)
			if host, ok := m.probeHost(p, &st, route, sw.rev); ok {
				sw.ports[q] = portContent{kind: portHost, host: host}
				sw.sigOK = false
				if _, dup := mp.Hosts[host]; !dup {
					mp.Hosts[host] = hostLoc{sw: si, port: q}
					st.HostsFound++
				}
				if host == target {
					return mp, st // on-demand: stop as soon as found
				}
				continue
			}
			sw.ports[q] = portContent{kind: portUnknown}
			candidates = append(candidates, q)
		}

		// Phase 2: echo-scan the silent ports for switches.
		if sw.depth+1 >= m.cfg.MaxDepth {
			continue
		}
		for _, q := range candidates {
			entry, ok := m.findEntryPort(p, &st, sw.prefix, q, sw.rev)
			if !ok {
				sw.ports[q] = portContent{kind: portEmpty}
				continue
			}
			next := &discSwitch{
				prefix: append(sw.prefix.Clone(), q),
				rev:    append(routing.Route{entry}, sw.rev...),
				entry:  entry,
				ports:  map[int]portContent{entry: {kind: portSelf}},
				depth:  sw.depth + 1,
			}
			// Fingerprint the new switch's hosts for dedup.
			for hq := 0; hq < m.cfg.MaxRadix; hq++ {
				if hq == entry {
					continue
				}
				route := append(next.prefix.Clone(), hq)
				if host, ok := m.probeHost(p, &st, route, next.rev); ok {
					next.ports[hq] = portContent{kind: portHost, host: host}
				}
			}
			// Compare against known switches.
			dupOf := -1
			sig := next.signature()
			if sig != "" {
				for j, known := range mp.Switches {
					if known.signature() == sig {
						dupOf = j
						break
					}
				}
			} else {
				// Hostless switch (Clos aggregation/core tier): no
				// (port → host) fingerprint exists, and without any dedup
				// the BFS oscillates — every path back toward the mapper
				// rediscovers shallower switches at depth+2, re-expands
				// them, and the frontier grows combinatorially up to
				// MaxDepth. Identify true revisits by return-route
				// behavior: an echo sent into the candidate and out along
				// a known shallower switch's return route physically loops
				// back to this NIC iff the candidate IS that switch (a
				// foreign NIC drops the unknown probe, so a symmetric twin
				// times out on the host-bearing tail of the return route).
				// Only strictly shallower switches are compared: same-depth
				// twins reached through a shared parent route home
				// identically and would wrongly merge — costing whole
				// subtrees on symmetric fabrics — so they stay as separate
				// entries. That duplication is bounded (one entry per
				// parallel parent, no recursion: their children dedup here
				// against the shallower originals).
				for j, known := range mp.Switches {
					if known.depth >= next.depth || known.signature() != "" {
						continue
					}
					route := append(append(sw.prefix.Clone(), q), known.rev...)
					if m.probeEcho(p, &st, route) {
						dupOf = j
						break
					}
				}
			}
			if dupOf >= 0 {
				sw.ports[q] = portContent{kind: portSwitch, sw: dupOf}
				continue
			}
			ni := len(mp.Switches)
			sw.ports[q] = portContent{kind: portSwitch, sw: ni}
			// Adopt the fingerprint hosts into the map. Iterate ports in
			// ascending order: the early return on finding the target makes
			// HostsFound (and which hosts get adopted) depend on visit
			// order, and map range order would vary run to run.
			hqs := make([]int, 0, len(next.ports))
			for hq := range next.ports {
				hqs = append(hqs, hq)
			}
			sort.Ints(hqs)
			for _, hq := range hqs {
				c := next.ports[hq]
				if c.kind != portHost {
					continue
				}
				if _, dup := mp.Hosts[c.host]; !dup {
					mp.Hosts[c.host] = hostLoc{sw: ni, port: hq}
					st.HostsFound++
				}
				if c.host == target {
					mp.Switches = append(mp.Switches, next)
					st.SwitchesFound++
					return mp, st
				}
			}
			mp.Switches = append(mp.Switches, next)
			st.SwitchesFound++
			queue = append(queue, ni)
		}
	}
	return mp, st
}

// RouteTo extracts the forward route and its reverse from a map, for a host
// it contains.
func (mp *Map) RouteTo(host topology.NodeID) (fwd, rev routing.Route, ok bool) {
	loc, ok := mp.Hosts[host]
	if !ok {
		return nil, nil, false
	}
	sw := mp.Switches[loc.sw]
	fwd = append(sw.prefix.Clone(), loc.port)
	rev = sw.rev.Clone()
	return fwd, rev, true
}

// MapTo performs on-demand mapping toward target. On success it returns
// the new forward route, the matching return route (target → mapper), and
// run statistics. Must run in Proc context.
func (m *Mapper) MapTo(p *sim.Proc, target topology.NodeID) (fwd, rev routing.Route, st Stats, ok bool) {
	mp, st := m.run(p, target)
	fwd, rev, ok = mp.RouteTo(target)
	return fwd, rev, st, ok
}

// FullMap explores everything reachable — what a conventional central
// mapper computes — and returns the map plus statistics, for the
// on-demand-vs-full ablation.
func (m *Mapper) FullMap(p *sim.Proc) (*Map, Stats) {
	return m.run(p, topology.None)
}

// Remap is the full permanent-failure recovery action: map toward dst; on
// success install the route with a generation reset and tell dst (via a
// route-update control frame over the new path) how to reach us; on
// failure mark dst unreachable and drop its pending packets. Returns the
// stats and whether dst was reachable.
func (m *Mapper) Remap(p *sim.Proc, dst topology.NodeID) (Stats, bool) {
	fwd, rev, st, ok := m.MapTo(p, dst)
	if !ok {
		m.n.MarkUnreachable(dst)
		return st, false
	}
	upd := &proto.Frame{
		Type:  proto.FrameRouteUpdate,
		Dst:   dst,
		Probe: &proto.ProbePayload{Mapper: m.n.Node(), ReturnRoute: rev},
	}
	m.n.SendControl(upd, fwd)
	m.n.ResetPath(dst, fwd)
	return st, true
}
