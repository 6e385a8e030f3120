package chaos

import (
	"time"

	"sanft/internal/fault"
	"sanft/internal/routing"
	"sanft/internal/topology"
)

// Scenario is a schedulable fault pattern. Install registers the
// scenario's events on the engine's kernel; the faults then fire at their
// simulated times while the workload runs.
type Scenario interface {
	ScenarioName() string
	Install(e *Engine)
}

// LinkFlap repeatedly kills and restores a trunk link: Down time dead,
// then Up time alive, for Cycles cycles. If Link is nil, each cycle
// targets a trunk drawn from the engine's RNG — a storm wandering across
// the fabric rather than one bad cable.
type LinkFlap struct {
	Link   *topology.Link
	Start  time.Duration
	Down   time.Duration // default 3ms
	Up     time.Duration // default 3ms
	Cycles int           // default 8
}

func (s LinkFlap) ScenarioName() string { return "link-flap" }

func (s LinkFlap) Install(e *Engine) {
	if s.Down == 0 {
		s.Down = 3 * time.Millisecond
	}
	if s.Up == 0 {
		s.Up = 3 * time.Millisecond
	}
	if s.Cycles == 0 {
		s.Cycles = 8
	}
	trunks := e.C.Net.TrunkLinks()
	if s.Link == nil && len(trunks) == 0 {
		panic("chaos: LinkFlap with no trunk links and no explicit Link")
	}
	cycle := 0
	var flap func()
	flap = func() {
		l := s.Link
		if l == nil {
			l = trunks[e.rng.Intn(len(trunks))]
		}
		e.RecordFault("link-flap down %s (cycle %d/%d)", LinkName(e.C.Net, l), cycle+1, s.Cycles)
		e.C.Fab.KillLink(l)
		e.C.K.After(s.Down, func() {
			e.Record("link-flap up %s", LinkName(e.C.Net, l))
			e.C.Net.RestoreLink(l)
			cycle++
			if cycle < s.Cycles {
				e.C.K.After(s.Up, flap)
			}
		})
	}
	e.C.K.After(s.Start, flap)
}

// LinkKill permanently kills trunk links — no restore, ever. Detection
// and remap are the only way traffic resumes, so the post-kill delivery
// stall isolates detection latency: the fixed permanent-failure threshold
// for the baseline protocol, the negotiated detection time when liveness
// sessions are enabled. If Links is nil, Count distinct trunks are drawn
// from the engine's RNG.
type LinkKill struct {
	Links []*topology.Link
	Count int // used when Links is nil; default 1
	Start time.Duration
}

func (s LinkKill) ScenarioName() string { return "link-kill" }

func (s LinkKill) Install(e *Engine) {
	victims := s.Links
	if victims == nil {
		n := s.Count
		if n == 0 {
			n = 1
		}
		trunks := e.C.Net.TrunkLinks()
		if len(trunks) == 0 {
			panic("chaos: LinkKill with no trunk links and no explicit Links")
		}
		perm := e.rng.Perm(len(trunks))
		for i := 0; i < n && i < len(trunks); i++ {
			victims = append(victims, trunks[perm[i]])
		}
	}
	e.C.K.After(s.Start, func() {
		for _, l := range victims {
			e.RecordFault("link-kill %s (permanent)", LinkName(e.C.Net, l))
			e.C.Fab.KillLink(l)
		}
	})
}

// RouteTrunks returns the trunk links the shortest route from host a to
// host b crosses, in path order. Scenarios that must hit live traffic —
// rather than a redundant spare — kill one of these.
func RouteTrunks(nw *topology.Network, a, b topology.NodeID) []*topology.Link {
	r, err := routing.Shortest(nw, a, b)
	if err != nil {
		return nil
	}
	res, err := routing.Walk(nw, a, r)
	if err != nil {
		return nil
	}
	var out []*topology.Link
	for i, sw := range res.Switches {
		if i >= len(r) {
			break
		}
		l := nw.Node(sw).Ports[r[i]]
		if l == nil {
			continue
		}
		if nw.Node(l.A.Node).Kind == topology.Switch &&
			nw.Node(l.B.Node).Kind == topology.Switch {
			out = append(out, l)
		}
	}
	return out
}

// SwitchOutage kills a set of switches simultaneously — a correlated
// failure (shared power feed, shared rack) — restores them Down later, and
// repeats. If Switches is nil, Count switches are drawn from the engine's
// RNG at install time.
type SwitchOutage struct {
	Switches []topology.NodeID
	Count    int // used when Switches is nil; default 1
	Start    time.Duration
	Down     time.Duration // default 200ms
	Repeat   int           // number of outages; default 1
	Gap      time.Duration // between restore and next kill; default 300ms
}

func (s SwitchOutage) ScenarioName() string { return "switch-outage" }

func (s SwitchOutage) Install(e *Engine) {
	if s.Down == 0 {
		s.Down = 200 * time.Millisecond
	}
	if s.Repeat == 0 {
		s.Repeat = 1
	}
	if s.Gap == 0 {
		s.Gap = 300 * time.Millisecond
	}
	victims := s.Switches
	if victims == nil {
		n := s.Count
		if n == 0 {
			n = 1
		}
		all := e.C.Net.Switches()
		perm := e.rng.Perm(len(all))
		for i := 0; i < n && i < len(all); i++ {
			victims = append(victims, all[perm[i]])
		}
	}
	round := 0
	var outage func()
	outage = func() {
		for _, sw := range victims {
			e.RecordFault("switch-outage kill %s (round %d/%d)",
				e.C.Net.Node(sw).Name, round+1, s.Repeat)
			e.C.Fab.KillSwitch(sw)
		}
		e.C.K.After(s.Down, func() {
			for _, sw := range victims {
				e.Record("switch-outage restore %s", e.C.Net.Node(sw).Name)
				e.C.Net.RestoreSwitch(sw)
			}
			round++
			if round < s.Repeat {
				e.C.K.After(s.Gap, outage)
			}
		})
	}
	e.C.K.After(s.Start, outage)
}

// Partition severs every link between node groups A and B at Start and
// restores the cut set after Heal — the classic split-brain experiment.
type Partition struct {
	A, B  []topology.NodeID
	Start time.Duration
	Heal  time.Duration // time from cut to heal; default 300ms
}

func (s Partition) ScenarioName() string { return "partition" }

func (s Partition) Install(e *Engine) {
	if s.Heal == 0 {
		s.Heal = 300 * time.Millisecond
	}
	cut := CutLinks(e.C.Net, s.A, s.B)
	if len(cut) == 0 {
		panic("chaos: Partition cut set is empty")
	}
	e.C.K.After(s.Start, func() {
		for _, l := range cut {
			e.RecordFault("partition cut %s", LinkName(e.C.Net, l))
			e.C.Fab.KillLink(l)
		}
		e.C.K.After(s.Heal, func() {
			for _, l := range cut {
				e.Record("partition heal %s", LinkName(e.C.Net, l))
				e.C.Net.RestoreLink(l)
			}
		})
	})
}

// DropRamp walks the send-side injected error rate through Rates, one step
// every Step, on the given hosts (all hosts if nil). A rate of 0 removes
// the dropper. Each (host, step) pair gets its own deterministic dropper
// seeded from the engine seed.
type DropRamp struct {
	Rates []float64
	Start time.Duration
	Step  time.Duration // default 20ms
	Hosts []topology.NodeID
}

func (s DropRamp) ScenarioName() string { return "drop-ramp" }

func (s DropRamp) Install(e *Engine) {
	if s.Step == 0 {
		s.Step = 20 * time.Millisecond
	}
	hosts := s.Hosts
	if hosts == nil {
		hosts = e.C.Hosts
	}
	for i, rate := range s.Rates {
		i, rate := i, rate
		e.C.K.After(s.Start+time.Duration(i)*s.Step, func() {
			e.RecordFault("drop-ramp rate=%g on %d hosts (step %d/%d)",
				rate, len(hosts), i+1, len(s.Rates))
			for _, h := range hosts {
				if rate <= 0 {
					e.C.NIC(h).SetDropper(nil)
					continue
				}
				e.C.NIC(h).SetDropper(fault.NewRateSeeded(rate,
					e.Seed*65537+int64(h)*2654435761+int64(i)*40503))
			}
		})
	}
}

// Composite installs several scenarios as one — flapping links while the
// error rate ramps, a partition during a switch outage, and so on.
type Composite struct {
	Label string
	Parts []Scenario
}

func (s Composite) ScenarioName() string {
	if s.Label != "" {
		return s.Label
	}
	return "composite"
}

func (s Composite) Install(e *Engine) {
	for _, p := range s.Parts {
		e.Record("composite part %s", p.ScenarioName())
		p.Install(e)
	}
}
