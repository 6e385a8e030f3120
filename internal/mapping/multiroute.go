package mapping

import (
	"sort"

	"sanft/internal/proto"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// ECMP-style multi-route extraction. A mapping run records every alternate
// adjacency it discovers (redundant links dedup to portSwitch entries
// instead of re-expanding the BFS), so the partial map is a graph over
// discovered switches, not just a tree. RoutesTo walks that graph to hand
// out up to k candidate routes per destination; the remap manager caches
// the alternates and, on the next failure, validates one with a single
// host probe instead of launching a full mapping run — the incremental
// per-destination remap that keeps a 1k-host failure storm from costing a
// thousand BFS floods.

// Candidate is one route to a destination plus the matching return route
// (destination → mapper) a route-update frame must carry.
type Candidate struct {
	Fwd routing.Route
	Rev routing.Route
}

// RoutesTo returns up to k candidate routes to host from the map's
// discovered-switch graph: the primary (BFS-prefix) route first, then
// alternates chosen shortest-first and greedily disjoint on discovered
// switch-to-switch adjacencies. Deterministic: ports scan in ascending
// order. Returns nil if the map does not contain host.
func (mp *Map) RoutesTo(host topology.NodeID, k int) []Candidate {
	loc, ok := mp.Hosts[host]
	if !ok || k < 1 {
		return nil
	}
	dst := mp.Switches[loc.sw]
	rev := dst.rev.Clone()
	out := []Candidate{{Fwd: append(dst.prefix.Clone(), loc.port), Rev: rev}}

	type edge struct {
		sw   int
		port int
	}
	used := make(map[edge]bool)
	// The primary route's adjacencies: walk its prefix through the graph.
	cur := 0
	for _, port := range dst.prefix {
		c, ok := mp.Switches[cur].ports[port]
		if !ok || c.kind != portSwitch {
			break // prefix edge outside the recorded graph (shouldn't happen)
		}
		used[edge{cur, port}] = true
		cur = c.sw
	}

	for len(out) < k {
		// BFS from the mapper's own switch (index 0) to loc.sw over unused
		// recorded adjacencies.
		type pred struct {
			sw   int
			port int
		}
		preds := make(map[int]pred)
		visited := map[int]bool{0: true}
		queue := []int{0}
		found := false
		for len(queue) > 0 && !found {
			si := queue[0]
			queue = queue[1:]
			s := mp.Switches[si]
			ports := make([]int, 0, len(s.ports))
			for q := range s.ports {
				ports = append(ports, q)
			}
			sort.Ints(ports)
			for _, q := range ports {
				c := s.ports[q]
				if c.kind != portSwitch || used[edge{si, q}] || visited[c.sw] {
					continue
				}
				visited[c.sw] = true
				preds[c.sw] = pred{si, q}
				if c.sw == loc.sw {
					found = true
					break
				}
				queue = append(queue, c.sw)
			}
		}
		if !found {
			break
		}
		// Reconstruct the port sequence and consume its edges.
		var rports []int
		for si := loc.sw; si != 0; {
			pr := preds[si]
			rports = append(rports, pr.port)
			used[edge{pr.sw, pr.port}] = true
			si = pr.sw
		}
		fwd := make(routing.Route, 0, len(rports)+1)
		for i := len(rports) - 1; i >= 0; i-- {
			fwd = append(fwd, rports[i])
		}
		fwd = append(fwd, loc.port)
		out = append(out, Candidate{Fwd: fwd, Rev: rev})
	}
	return out
}

// MapToK performs on-demand mapping toward target and extracts up to k
// candidate routes from the resulting partial map. MapToK(p, t, 1) costs
// exactly what MapTo costs — alternates are pure computation over the map,
// no extra probes.
func (m *Mapper) MapToK(p *sim.Proc, target topology.NodeID, k int) ([]Candidate, Stats, bool) {
	mp, st := m.run(p, target)
	cands := mp.RoutesTo(target, k)
	return cands, st, len(cands) > 0
}

// ProbeRoute validates a cached candidate with a single host probe: true
// iff a host answers at the end of cand.Fwd and it is dst. One probe
// (plus, on silence, one probe timeout) against a full mapping run — the
// cheap path of storm recovery.
func (m *Mapper) ProbeRoute(p *sim.Proc, dst topology.NodeID, cand Candidate) bool {
	host, ok := m.probeHost(p, &Stats{}, cand.Fwd, cand.Rev)
	return ok && host == dst
}

// InstallCandidate makes cand the active route to dst: the route-update
// control frame (carrying the return route) goes out over the new path
// first, then the local path resets with a generation bump — the same
// install sequence Remap performs after a successful mapping run.
func (m *Mapper) InstallCandidate(dst topology.NodeID, cand Candidate) {
	upd := &proto.Frame{
		Type:  proto.FrameRouteUpdate,
		Dst:   dst,
		Probe: &proto.ProbePayload{Mapper: m.n.Node(), ReturnRoute: cand.Rev},
	}
	m.n.SendControl(upd, cand.Fwd)
	m.n.ResetPath(dst, cand.Fwd)
}

// RemapK is Remap with multi-route extraction: on success it additionally
// returns up to k candidates (primary first) for the caller to cache as
// failover alternates. RemapK(p, dst, 1) is exactly Remap.
func (m *Mapper) RemapK(p *sim.Proc, dst topology.NodeID, k int) ([]Candidate, Stats, bool) {
	cands, st, ok := m.MapToK(p, dst, k)
	if !ok {
		m.n.MarkUnreachable(dst)
		return nil, st, false
	}
	m.InstallCandidate(dst, cands[0])
	return cands, st, true
}
