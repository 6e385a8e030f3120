package chaos

import (
	"fmt"
	"strings"
	"time"

	"sanft/internal/core"
	"sanft/internal/liveness"
	"sanft/internal/mapping"
	"sanft/internal/metrics"
	"sanft/internal/retrans"
	"sanft/internal/topology"
)

// Variant selects the protocol configuration a campaign runs under, so
// the same fault schedule can be measured against the paper's fixed-timer
// baseline and against the adaptive-liveness stack.
type Variant struct {
	// Name labels report rows ("baseline", "liveness").
	Name string
	// Liveness, when non-nil, runs BFD-style per-path sessions feeding
	// the remap/quarantine recovery path.
	Liveness *liveness.Config
	// Adaptive switches the retransmission timeout from the fixed
	// interval to the RTT-driven Jacobson/Karn estimator.
	Adaptive bool

	// eager runs every timer scan and every worm hop (core.Config.Eager):
	// the reference of the idle-skipping and lazy-worm differential tests.
	eager bool
}

// Baseline is the paper's configuration: fixed retransmission interval,
// fixed permanent-failure threshold, no liveness sessions.
func Baseline() Variant { return Variant{Name: "baseline"} }

// AdaptiveLiveness enables per-path liveness sessions (RFC 5880-style
// defaults: 1ms interval, detect multiplier 3) plus the RTT-adaptive
// retransmission timeout.
func AdaptiveLiveness() Variant {
	return Variant{Name: "liveness", Liveness: &liveness.Config{}, Adaptive: true}
}

// apply overlays the variant onto a cluster configuration.
func (v Variant) apply(cfg *core.Config) {
	cfg.Liveness = v.Liveness
	cfg.Retrans.Adaptive = v.Adaptive
	cfg.Eager = v.eager
}

// maxAttempts scales a campaign's remap-attempt bound: liveness detects
// failures roughly 3× earlier than the fixed threshold, so the same fault
// schedule legitimately drives more remap attempts.
func (v Variant) maxAttempts(base int) int {
	if base > 0 && v.Liveness != nil {
		return base * 2
	}
	return base
}

// Report is the outcome of one campaign run — the degradation report the
// sanchaos command prints.
type Report struct {
	Campaign string
	Variant  string
	Seed     int64

	Faults   int
	Events   int
	EventLog string

	Pairs      int
	Expected   int
	Delivered  int
	Duplicates int

	Remaps       int
	Unreachables int
	RemapStats   core.RemapStats

	// MTTR summarizes delivery stalls (see Engine.MTTR); MTTRp50, MTTRp99,
	// and MTTRp999 are the stall quantiles (zero when no stalls were
	// observed) — the numbers the baseline-vs-liveness comparison ranks by.
	MTTR     string
	MTTRp50  time.Duration
	MTTRp99  time.Duration
	MTTRp999 time.Duration

	Violations []Violation

	// FlightDump is the flight recorder's post-mortem rendering, filled
	// only when invariants were violated and a recorder was attached
	// (RunInstrumented with core.Cluster.InstallTracer).
	FlightDump string `json:",omitempty"`
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%s: %s\n", r.Title(), verdict)
	fmt.Fprintf(&b, "  faults injected:  %d (%d log events)\n", r.Faults, r.Events)
	fmt.Fprintf(&b, "  flows:            %d pairs, %d messages expected\n", r.Pairs, r.Expected)
	fmt.Fprintf(&b, "  delivered:        %d distinct, %d duplicate notifications\n",
		r.Delivered, r.Duplicates)
	fmt.Fprintf(&b, "  remaps:           %d ok, %d unreachable verdicts\n",
		r.Remaps, r.Unreachables)
	fmt.Fprintf(&b, "  remap pacing:     attempts %d, coalesced %d, deferred %d, quarantines %d\n",
		r.RemapStats.Attempts, r.RemapStats.Coalesced,
		r.RemapStats.Deferred, r.RemapStats.Quarantines)
	fmt.Fprintf(&b, "  delivery stalls:  %s\n", r.MTTR)
	if r.Passed() {
		fmt.Fprintf(&b, "  invariants:       all hold\n")
	} else {
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  VIOLATION:        %s\n", v)
		}
	}
	return b.String()
}

// Campaign is a named, self-contained chaos experiment: it builds its own
// cluster, workload, and scenarios, runs them, and reports.
type Campaign struct {
	Name  string
	About string
	// run builds and executes the campaign, calling pre on the freshly
	// built cluster before any traffic or faults.
	run func(seed int64, pre func(*core.Cluster)) *Report
}

// Run executes the campaign with the given seed.
func (c Campaign) Run(seed int64) *Report { return c.run(seed, func(*core.Cluster) {}) }

// RunInstrumented executes the campaign, invoking pre on the freshly built
// cluster before traffic starts. cmd/sanstat uses it to start periodic
// metric sampling and capture the cluster's Observer.
func (c Campaign) RunInstrumented(seed int64, pre func(*core.Cluster)) *Report {
	return c.run(seed, pre)
}

// drainStep and drainBound pace the wait in finish for worms still in
// flight when a campaign's span ends. Liveness sessions transmit forever,
// so the span's end is never a quiesce for them: a control packet
// injected a microsecond before it would fail the worms audit. The bound
// is far above a healthy packet's flight time and far below the fabric's
// 62.5 ms watchdog, so a worm that is really stuck is still reported.
const (
	drainStep  = time.Microsecond
	drainBound = 100 * time.Microsecond
)

// finish runs the campaign's span, waits out worms still in flight (for
// at most drainBound), stops the cluster, audits invariants, and
// assembles the report. An invariant violation freezes a flight-recorder
// snapshot (when one is attached) and embeds the recorder's dump in the
// report, so a failing campaign ships its own post-mortem.
func finish(name string, v Variant, seed int64, e *Engine, r *Run, opts CheckOpts, dur time.Duration) *Report {
	e.C.RunFor(dur)
	for waited := time.Duration(0); waited < drainBound && e.C.Fab.InFlight() != 0; waited += drainStep {
		e.C.RunFor(drainStep)
	}
	e.C.Stop()
	e.Record("campaign %s complete", name)
	violations := CheckInvariants(e, r, opts)
	var dump string
	if len(violations) > 0 && e.fr != nil {
		for _, vio := range violations {
			e.fr.TriggerSnapshot("invariant:"+vio.Invariant, e.C.Now())
		}
		dump = e.fr.Dump()
	}
	var p50, p99, p999 time.Duration
	if e.mttr.Count() > 0 {
		p50, p99, p999 = e.mttr.Quantile(0.5), e.mttr.Quantile(0.99), e.mttr.Quantile(0.999)
	}
	// The remap counts are the registry's, summed over the hosts.
	reg := e.C.Metrics()
	total := func(name string) int { return int(reg.CounterTotal(name)) }
	stats := core.RemapStats{
		Attempts:    total("remap.attempts"),
		Coalesced:   total("remap.coalesced"),
		Deferred:    total("remap.deferred"),
		Quarantines: total("remap.quarantines"),
	}
	return &Report{
		Campaign:     name,
		Variant:      v.Name,
		Seed:         seed,
		MTTRp50:      p50,
		MTTRp99:      p99,
		MTTRp999:     p999,
		Faults:       e.Faults(),
		Events:       e.Events(),
		EventLog:     e.LogText(),
		Pairs:        r.NumPairs(),
		Expected:     r.Expected(),
		Delivered:    r.Delivered(),
		Duplicates:   r.Duplicates(),
		Remaps:       total("remap.successes"),
		Unreachables: total("remap.failures"),
		RemapStats:   stats,
		MTTR:         e.MTTRSummary(),
		Violations:   violations,
		FlightDump:   dump,
	}
}

// chainCluster builds the redundant 3-switch chain (two trunks between
// adjacent switches, two hosts per switch) used by several campaigns.
func chainCluster(seed int64, v Variant) (*core.Cluster, []topology.NodeID) {
	nw, rows := topology.Chain(3, 2, 2)
	var hosts []topology.NodeID
	for _, row := range rows {
		hosts = append(hosts, row...)
	}
	cfg := core.Config{
		Net: nw, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 8 * time.Millisecond,
		},
		Mapper: true,
		Seed:   seed,
	}
	v.apply(&cfg)
	c := core.New(cfg)
	return c, hosts
}

// Campaigns returns the built-in campaign suite under the paper's
// baseline configuration.
func Campaigns() []Campaign { return CampaignsWith(Baseline()) }

// CampaignsWith returns the built-in campaign suite with every cluster
// configured for the given variant — the same topologies, workloads, and
// fault schedules, so baseline-vs-liveness reports differ only in the
// protocol stack under test.
func CampaignsWith(v Variant) []Campaign {
	return []Campaign{
		{
			Name:  "link-flap",
			About: "random trunk flaps on a redundant chain; strict delivery",
			run: func(seed int64, pre func(*core.Cluster)) *Report {
				c, hosts := chainCluster(seed, v)
				pre(c)
				e := NewEngine(c, seed)
				// Pace the traffic across the whole flap window (~60ms); the
				// 3ms gap keeps the stall floor below remap-length stalls.
				r := Workload{Pairs: AllPairs(hosts), Msgs: 20, Gap: 3 * time.Millisecond}.Start(e)
				e.Install(LinkFlap{Start: time.Millisecond, Cycles: 10})
				return finish("link-flap", v, seed, e, r,
					CheckOpts{MaxRemapAttempts: v.maxAttempts(60)}, 20*time.Second)
			},
		},
		{
			Name:  "switch-storm",
			About: "correlated double switch outage on the Figure-2 tree; loss allowed",
			run: func(seed int64, pre func(*core.Cluster)) *Report {
				f := topology.NewFig2()
				hosts := append([]topology.NodeID{f.Mapper}, f.Targets[:3]...)
				cfg := core.Config{
					Net: f.Net, Hosts: hosts, FT: true,
					Retrans: retrans.Config{
						QueueSize:         16,
						Interval:          time.Millisecond,
						PermFailThreshold: 8 * time.Millisecond,
					},
					Mapper: true,
					Seed:   seed,
				}
				v.apply(&cfg)
				c := core.New(cfg)
				pre(c)
				e := NewEngine(c, seed)
				// Traffic outlasts both outages (~700ms of storm), so
				// surviving flows show their recovery stalls.
				r := Workload{Pairs: AllPairs(hosts), Msgs: 20, Gap: 40 * time.Millisecond}.Start(e)
				e.Install(SwitchOutage{
					Switches: []topology.NodeID{f.Switches[1], f.Switches[2]},
					Start:    2 * time.Millisecond,
					Down:     200 * time.Millisecond,
					Repeat:   2,
				})
				return finish("switch-storm", v, seed, e, r,
					CheckOpts{AllowLoss: true}, 20*time.Second)
			},
		},
		{
			Name:  "partition-heal",
			About: "sever and heal the full cut between two halves of the chain",
			run: func(seed int64, pre func(*core.Cluster)) *Report {
				c, hosts := chainCluster(seed, v)
				pre(c)
				sws := c.Net.Switches()
				e := NewEngine(c, seed)
				// Demand persists through the 300ms cut, so cross-partition
				// sources keep triggering remaps until quarantine.
				r := Workload{Pairs: AllPairs(hosts), Msgs: 30, Gap: 20 * time.Millisecond}.Start(e)
				e.Install(Partition{
					A:     sws[:2],
					B:     sws[2:],
					Start: 2 * time.Millisecond,
					Heal:  300 * time.Millisecond,
				})
				rep := finish("partition-heal", v, seed, e, r,
					CheckOpts{AllowLoss: true}, 20*time.Second)
				// A 300ms full cut with ongoing demand must drive at least
				// one destination into quarantine — that is the graceful
				// degradation this campaign exists to demonstrate.
				if rep.RemapStats.Quarantines == 0 {
					rep.Violations = append(rep.Violations, Violation{
						"quarantine", "partition never quarantined any destination"})
				}
				return rep
			},
		},
		{
			Name:  "drop-ramp",
			About: "send-side error rate ramped to 30% and back; strict delivery",
			run: func(seed int64, pre func(*core.Cluster)) *Report {
				nw, hosts := topology.Star(6)
				cfg := core.Config{
					Net: nw, Hosts: hosts, FT: true,
					Retrans: retrans.Config{
						QueueSize:         16,
						Interval:          time.Millisecond,
						PermFailThreshold: time.Second,
					},
					Seed: seed,
				}
				v.apply(&cfg)
				c := core.New(cfg)
				pre(c)
				e := NewEngine(c, seed)
				// Traffic spans the whole ramp (~100ms).
				r := Workload{Pairs: AllPairs(hosts), Msgs: 12, Gap: 10 * time.Millisecond}.Start(e)
				e.Install(DropRamp{
					Rates: []float64{0.02, 0.1, 0.3, 0},
					Start: time.Millisecond,
					Step:  25 * time.Millisecond,
				})
				return finish("drop-ramp", v, seed, e, r, CheckOpts{}, 10*time.Second)
			},
		},
		{
			Name:  "composite",
			About: "trunk flapping while the error rate ramps; strict delivery",
			run: func(seed int64, pre func(*core.Cluster)) *Report {
				c, hosts := chainCluster(seed, v)
				pre(c)
				e := NewEngine(c, seed)
				r := Workload{Pairs: AllPairs(hosts), Msgs: 20, Gap: 3 * time.Millisecond}.Start(e)
				e.Install(Composite{Parts: []Scenario{
					LinkFlap{Start: time.Millisecond, Cycles: 8},
					DropRamp{Rates: []float64{0.05, 0}, Start: time.Millisecond, Step: 30 * time.Millisecond},
				}})
				return finish("composite", v, seed, e, r,
					CheckOpts{MaxRemapAttempts: v.maxAttempts(60)}, 20*time.Second)
			},
		},
		{
			Name:  "flap-storm",
			About: "correlated seeded flap burst across a fat-tree's trunk classes; strict delivery",
			run: func(seed int64, pre func(*core.Cluster)) *Report {
				// A real Clos fabric, mapped on demand: the hostless
				// aggregation/core tiers exercise the echo-identity dedup
				// path no paper-scale topology reaches.
				ft := topology.FatTree(4)
				// One host per pod keeps the all-pairs workload light while
				// every flow still crosses the storm-swept core.
				hosts := []topology.NodeID{
					ft.PodHosts[0][0], ft.PodHosts[1][0],
					ft.PodHosts[2][0], ft.PodHosts[3][0],
				}
				cfg := core.Config{
					Net: ft.Net, Hosts: hosts, FT: true,
					Retrans: retrans.Config{
						QueueSize:         16,
						Interval:          time.Millisecond,
						PermFailThreshold: 8 * time.Millisecond,
					},
					Mapper: true,
					// Fat-tree switches are radix k; scanning to the default
					// MaxRadix would burn 12 probe timeouts per switch on
					// ports that cannot exist.
					MapperCfg: mapping.Config{MaxRadix: 4},
					Seed:      seed,
				}
				v.apply(&cfg)
				c := core.New(cfg)
				pre(c)
				e := NewEngine(c, seed)
				r := Workload{Pairs: AllPairs(hosts), Msgs: 15, Gap: 4 * time.Millisecond}.Start(e)
				e.Install(FlapStorm{Start: time.Millisecond, Events: 24, Window: 30 * time.Millisecond})
				return finish("flap-storm", v, seed, e, r,
					CheckOpts{MaxRemapAttempts: v.maxAttempts(200)}, 30*time.Second)
			},
		},
		{
			Name:  "stale-map",
			About: "blind host routes on a pre-failure map through a kill, then converges on resume",
			run: func(seed int64, pre func(*core.Cluster)) *Report {
				c, hosts := chainCluster(seed, v)
				pre(c)
				e := NewEngine(c, seed)
				blind := hosts[0]
				far := hosts[4]
				const blindFor = 150 * time.Millisecond
				r := Workload{Pairs: []Pair{{blind, far}, {far, blind}}, Msgs: 30,
					Gap: 5 * time.Millisecond}.Start(e)
				// Kill a trunk the blind host's installed route crosses (the
				// redundant spare survives, so remap has somewhere to go);
				// the blind window opens just before the kill.
				used := RouteTrunks(c.Net, blind, far)
				e.Install(Composite{Label: "stale-map", Parts: []Scenario{
					StaleMap{Hosts: []topology.NodeID{blind}, Start: time.Millisecond, Blind: blindFor},
					LinkKill{Links: used[:1], Start: 2 * time.Millisecond},
				}})
				rep := finish("stale-map", v, seed, e, r,
					CheckOpts{MaxRemapAttempts: v.maxAttempts(40)}, 20*time.Second)
				// Divergence must actually have happened: the blind host's
				// failure triggers were held during the window, its traffic
				// stalled for roughly the window, and convergence took a
				// completed remap. The strict delivery invariant (checked
				// above) is the convergence oracle itself.
				if held := c.Metrics().CounterTotal("remap.held"); held == 0 {
					rep.Violations = append(rep.Violations, Violation{
						"stale-divergence", "no remap trigger was held during the blind window"})
				}
				if rep.Remaps == 0 {
					rep.Violations = append(rep.Violations, Violation{
						"stale-convergence", "no remap completed after the blind window"})
				}
				if max := e.MTTR().Max(); max < blindFor/2 {
					rep.Violations = append(rep.Violations, Violation{
						"stale-divergence",
						fmt.Sprintf("longest delivery stall %v < half the %v blind window", max, blindFor)})
				}
				return rep
			},
		},
		{
			Name:  "gray-links",
			About: "a lossy-but-up trunk at 30% drop on the live route; strict delivery",
			run: func(seed int64, pre func(*core.Cluster)) *Report {
				c, hosts := chainCluster(seed, v)
				pre(c)
				e := NewEngine(c, seed)
				r := Workload{Pairs: AllPairs(hosts), Msgs: 20, Gap: 3 * time.Millisecond}.Start(e)
				// Gray out a trunk the installed routes actually cross, for
				// most of the traffic window; retransmission must absorb the
				// loss and strict delivery must still hold.
				used := RouteTrunks(c.Net, hosts[0], hosts[4])
				e.Install(GrayLinks{
					Links: used[:1], Rate: 0.3,
					Start: time.Millisecond, Dur: 120 * time.Millisecond,
				})
				rep := finish("gray-links", v, seed, e, r,
					CheckOpts{MaxRemapAttempts: v.maxAttempts(60)}, 20*time.Second)
				if gray := c.Metrics().Counter("fabric.pkts_dropped",
					metrics.L("reason", "gray")).Value(); gray == 0 {
					rep.Violations = append(rep.Violations, Violation{
						"gray-loss", "gray link never dropped a packet"})
				}
				return rep
			},
		},
		{
			Name:  "link-kill",
			About: "one trunk dies permanently; the stall isolates detection+remap (MTTR)",
			run: func(seed int64, pre func(*core.Cluster)) *Report {
				c, hosts := chainCluster(seed, v)
				pre(c)
				e := NewEngine(c, seed)
				// One host per switch keeps the post-kill retransmission
				// storm light enough that mapping probes survive — the
				// stall then isolates detection+remap, not congestion.
				// 1ms pacing keeps the stall floor (2×gap) below both
				// detection latencies under comparison: the liveness
				// detection time (~3ms) and the fixed permanent-failure
				// threshold (8ms). Traffic outlasts detection plus remap.
				sparse := []topology.NodeID{hosts[0], hosts[2], hosts[4]}
				r := Workload{Pairs: AllPairs(sparse), Msgs: 25, Gap: time.Millisecond}.Start(e)
				// Kill a trunk the installed end-to-end route actually uses
				// (not the redundant spare), so every seed's kill stalls
				// traffic and forces a detection+remap cycle.
				used := RouteTrunks(c.Net, sparse[0], sparse[2])
				e.Install(LinkKill{
					Links: []*topology.Link{used[e.Rand().Intn(len(used))]},
					Start: 2 * time.Millisecond,
				})
				return finish("link-kill", v, seed, e, r,
					CheckOpts{MaxRemapAttempts: v.maxAttempts(40)}, 5*time.Second)
			},
		},
	}
}

// Find returns the baseline campaign with the given name.
func Find(name string) (Campaign, bool) { return FindWith(name, Baseline()) }

// FindWith returns the campaign with the given name under a variant.
func FindWith(name string, v Variant) (Campaign, bool) {
	for _, c := range CampaignsWith(v) {
		if c.Name == name {
			return c, true
		}
	}
	return Campaign{}, false
}
