package chaos

import (
	"math/rand"
	"sort"
	"time"

	"sanft/internal/core"
	"sanft/internal/topology"
)

// Topology-knowledge scenarios: fault patterns that know the fabric's
// structure (trunk classes, link sets) instead of picking one victim at a
// time. The schedule generator is pure — a seeded function from a link set
// to timed events — so the sequential engine (via the FlapStorm scenario)
// and the sharded engine (via core.Cluster.ScheduleLinkFlaps) consume the
// exact same storm for the same seed.

// FlapStormSchedule draws a correlated link-flap burst over the given
// topology link IDs: `events` down/up windows placed uniformly in
// [0, window) with down times uniform in [minDown, maxDown]. Windows on
// the same link never overlap (overlapping draws are discarded), so a
// restore can never resurrect a link inside a later failure window. The
// result is sorted by start time and fully determined by the arguments.
func FlapStormSchedule(linkIDs []int, seed int64, events int, window, minDown, maxDown time.Duration) []core.LinkFlapEvent {
	if len(linkIDs) == 0 || events <= 0 || window <= 0 {
		return nil
	}
	if minDown <= 0 {
		minDown = time.Millisecond
	}
	if maxDown < minDown {
		maxDown = minDown
	}
	rng := rand.New(rand.NewSource(seed ^ 0x57a6b))
	cands := make([]core.LinkFlapEvent, events)
	for i := range cands {
		cands[i] = core.LinkFlapEvent{
			Link: linkIDs[rng.Intn(len(linkIDs))],
			At:   time.Duration(rng.Int63n(int64(window))),
			Dur:  minDown + time.Duration(rng.Int63n(int64(maxDown-minDown)+1)),
		}
	}
	// Per link, keep the earliest-starting non-overlapping subset.
	byLink := make(map[int][]core.LinkFlapEvent)
	for _, ev := range cands {
		byLink[ev.Link] = append(byLink[ev.Link], ev)
	}
	var out []core.LinkFlapEvent
	for _, evs := range byLink {
		sort.Slice(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		end := time.Duration(-1)
		for _, ev := range evs {
			if ev.At <= end {
				continue
			}
			out = append(out, ev)
			end = ev.At + ev.Dur
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Link < out[j].Link
	})
	return out
}

// FlapStorm replays a FlapStormSchedule burst on the sequential engine:
// correlated down/up windows across a whole link class, rather than
// LinkFlap's one-at-a-time wandering. If Links is nil the storm targets
// every trunk link.
type FlapStorm struct {
	Links   []*topology.Link
	Start   time.Duration
	Events  int           // default 24
	Window  time.Duration // storm span; default 30ms
	MinDown time.Duration // default 1ms
	MaxDown time.Duration // default 4ms
}

func (s FlapStorm) ScenarioName() string { return "flap-storm" }

func (s FlapStorm) Install(e *Engine) {
	if s.Events == 0 {
		s.Events = 24
	}
	if s.Window == 0 {
		s.Window = 30 * time.Millisecond
	}
	if s.MinDown == 0 {
		s.MinDown = time.Millisecond
	}
	if s.MaxDown == 0 {
		s.MaxDown = 4 * time.Millisecond
	}
	links := s.Links
	if links == nil {
		links = e.C.Net.TrunkLinks()
	}
	if len(links) == 0 {
		panic("chaos: FlapStorm with no trunk links and no explicit Links")
	}
	ids := make([]int, len(links))
	for i, l := range links {
		ids[i] = l.ID
	}
	sched := FlapStormSchedule(ids, e.Seed, s.Events, s.Window, s.MinDown, s.MaxDown)
	for _, ev := range sched {
		l := e.C.Net.Links[ev.Link]
		at, dur := ev.At, ev.Dur
		e.C.K.After(s.Start+at, func() {
			e.RecordFault("flap-storm down %s for %v", LinkName(e.C.Net, l), dur)
			e.C.Fab.KillLink(l)
		})
		e.C.K.After(s.Start+at+dur, func() {
			e.Record("flap-storm up %s", LinkName(e.C.Net, l))
			e.C.Net.RestoreLink(l)
		})
	}
	e.Record("flap-storm scheduled %d events over %d links", len(sched), len(links))
}

// StaleMap opens a blind window: the Hosts' failure recovery is suspended
// at Start (triggers are held, so they keep routing on their pre-failure
// map) and resumed Blind later. Paired with a kill inside the window, the
// run first demonstrates divergence — traffic from the blind hosts keeps
// chasing dead routes — then, on resume, the held triggers replay, remap
// repairs the map, and the delivery invariant proves convergence.
type StaleMap struct {
	Hosts []topology.NodeID // nil = every host
	Start time.Duration
	Blind time.Duration // default 100ms
}

func (s StaleMap) ScenarioName() string { return "stale-map" }

func (s StaleMap) Install(e *Engine) {
	if s.Blind == 0 {
		s.Blind = 100 * time.Millisecond
	}
	hosts := s.Hosts
	if hosts == nil {
		hosts = e.C.Hosts
	}
	e.C.K.After(s.Start, func() {
		e.RecordFault("stale-map suspend remap on %d hosts for %v", len(hosts), s.Blind)
		for _, h := range hosts {
			e.C.SuspendRemap(h)
		}
	})
	e.C.K.After(s.Start+s.Blind, func() {
		e.Record("stale-map resume remap on %d hosts", len(hosts))
		for _, h := range hosts {
			e.C.ResumeRemap(h)
		}
	})
}

// GrayLinks turns links lossy-but-up: each crossing packet drops with
// probability Rate from the fabric's deterministic per-link stream. Unlike
// a kill, a gray link passes liveness traffic often enough to evade clean
// down-detection — the failure mode retransmission alone must absorb. If
// Links is nil, Count trunks are drawn from the engine's RNG. Dur == 0
// leaves the links gray for the rest of the run.
type GrayLinks struct {
	Links []*topology.Link
	Count int // used when Links is nil; default 1
	Rate  float64
	Start time.Duration
	Dur   time.Duration
}

func (s GrayLinks) ScenarioName() string { return "gray-links" }

func (s GrayLinks) Install(e *Engine) {
	if s.Rate == 0 {
		s.Rate = 0.2
	}
	links := s.Links
	if links == nil {
		n := s.Count
		if n == 0 {
			n = 1
		}
		trunks := e.C.Net.TrunkLinks()
		if len(trunks) == 0 {
			panic("chaos: GrayLinks with no trunk links and no explicit Links")
		}
		perm := e.rng.Perm(len(trunks))
		for i := 0; i < n && i < len(trunks); i++ {
			links = append(links, trunks[perm[i]])
		}
	}
	e.C.K.After(s.Start, func() {
		for _, l := range links {
			e.RecordFault("gray-links %s at rate %g", LinkName(e.C.Net, l), s.Rate)
			e.C.SetLinkLoss(l.ID, s.Rate)
		}
	})
	if s.Dur > 0 {
		e.C.K.After(s.Start+s.Dur, func() {
			for _, l := range links {
				e.Record("gray-links clear %s", LinkName(e.C.Net, l))
				e.C.SetLinkLoss(l.ID, 0)
			}
		})
	}
}
