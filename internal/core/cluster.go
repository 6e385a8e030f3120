// Package core assembles the full simulated platform: topology, fabric,
// NICs (with or without the firmware retransmission protocol), VMMC
// endpoints, error injection, and — when enabled — per-NIC on-demand
// mappers wired to the permanent-failure detector. One Cluster is one
// reproducible experiment instance.
package core

import (
	"time"

	"sanft/internal/enginestat"
	"sanft/internal/fabric"
	"sanft/internal/fault"
	"sanft/internal/liveness"
	"sanft/internal/mapping"
	"sanft/internal/metrics"
	"sanft/internal/nic"
	"sanft/internal/parsim"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
	"sanft/internal/vmmc"
)

// EngineKind selects the execution engine a Cluster runs on.
type EngineKind int

const (
	// EngineSequential is the default: one kernel drives every host, with
	// full observability (endpoints, mappers, cluster-wide tracer).
	EngineSequential EngineKind = iota
	// EngineSharded partitions the hosts into shard cells driven by the
	// conservative parallel engine. The partition — not the worker
	// count — defines the semantics: results are byte-identical for any
	// number of workers.
	EngineSharded
)

func (k EngineKind) String() string {
	switch k {
	case EngineSequential:
		return "sequential"
	case EngineSharded:
		return "sharded"
	}
	return "unknown"
}

// ShardPlan describes how EngineSharded partitions hosts into shards
// (cells). The plan is part of the experiment's identity: changing it
// changes which traffic crosses epoch barriers, so differential gates
// must pin it. The zero plan is one host per shard — the finest
// partition, and the one that matches the sequential engine host-for-host.
type ShardPlan struct {
	// HostsPerShard, when > 0, chunks the host list in order into groups
	// of this size (last group may be smaller). Coarser shards shorten
	// the per-epoch fixed cost and keep intra-group traffic off the
	// barrier path at the price of less available parallelism.
	HostsPerShard int
	// Groups, when non-empty, is an explicit partition and overrides
	// HostsPerShard. Every host must appear in exactly one group.
	Groups [][]topology.NodeID
}

// zero reports whether the plan is the default one-host-per-shard plan.
func (p ShardPlan) zero() bool { return p.HostsPerShard == 0 && len(p.Groups) == 0 }

// Config describes a cluster build.
type Config struct {
	// Net and Hosts define the wiring; if Net is nil, a single-switch
	// star of NumHosts hosts is built.
	Net      *topology.Network
	Hosts    []topology.NodeID
	NumHosts int

	// FT enables the firmware retransmission protocol on every NIC.
	FT bool
	// Retrans holds protocol parameters (queue size q, timer interval T,
	// permanent-failure threshold, ...). Zero fields take the paper's
	// best-compromise defaults. The queue size also bounds the send
	// buffer pool when FT is off — provisioning is independent of
	// whether the protocol consumes acknowledgments.
	Retrans retrans.Config
	// ErrorRate is the paper's send-side injected drop rate (e.g. 1e-3);
	// each NIC gets its own deterministic dropper. Zero means no errors.
	ErrorRate float64

	// Liveness, when non-nil, runs a BFD-style session on every routed
	// path: sessions detect dead paths after DetectMult negotiated
	// intervals of control silence — typically well before the fixed
	// permanent-failure threshold — and feed the same remap/quarantine
	// recovery path. Requires FT. The Seed field is a base; each session
	// derives its own jitter stream from it.
	Liveness *liveness.Config

	// Cost overrides the NIC hardware cost model (zero = calibrated
	// defaults); Fabric overrides wire constants (zero = defaults).
	Cost   nic.CostModel
	Fabric fabric.Config

	// Mapper enables on-demand mapping: stale paths and missing routes
	// trigger a background remap exactly as §4.2 describes. Requires FT,
	// and the sequential engine.
	Mapper    bool
	MapperCfg mapping.Config

	// Remap paces the recovery path: remaps to one destination coalesce,
	// failures back off exponentially with jitter, and persistent failures
	// quarantine the destination. Zero fields take defaults.
	Remap RemapPolicy
	// OnUnreachable fires when src quarantines dst after repeated failed
	// remaps — the explicit graceful-degradation upcall, instead of
	// silently retrying forever.
	OnUnreachable func(src, dst topology.NodeID)

	// Metrics tunes the observability layer. The zero value still builds
	// a full registry (all subsystems record unconditionally); set
	// SampleEvery to also collect a periodic time series.
	Metrics metrics.Config

	// Tracer, if non-nil, receives every trace event from every layer:
	// NIC protocol actions, fabric hop events, VMMC message lifecycle,
	// and remap lifecycle. Typically a *trace.Ring or *trace.FlightRecorder.
	// Sequential engine only; the sharded engine traces into per-shard
	// rings (see TraceEvents).
	Tracer trace.Tracer

	// Seed drives all deterministic randomness.
	Seed int64

	// Profile enables the engine wall-clock profiler: per-worker epoch
	// accounting in the parallel engine, kernel event counters, and
	// frame/packet pool traffic, collected worker-locally and read back
	// through EngineProfile after the run. Off by default; profiling
	// never changes simulation results (it reads clocks, feeds nothing
	// back), so profiled dumps stay byte-identical to unprofiled ones.
	Profile bool

	// Telemetry, when non-empty, starts a live telemetry HTTP server on
	// this address (host:port; port 0 picks one — see Telemetry().Addr()):
	// Prometheus /metrics, /debug/pprof, expvar, engine /profile.
	// Metrics snapshots publish on every observer sample and at
	// RunFor/Stop boundaries. The server outlives Stop so a final scrape
	// can read the end state; the owner closes it via Telemetry().Close().
	Telemetry string

	// Engine selects the execution engine; a non-zero Plan implies
	// EngineSharded.
	Engine EngineKind
	// Plan partitions hosts into shards under EngineSharded (zero = one
	// host per shard).
	Plan ShardPlan
	// Workers is the OS-thread count driving the shard kernels under
	// EngineSharded. Results are byte-identical for any value — the
	// partition defines the semantics — so Workers (default 0 =
	// GOMAXPROCS) only changes wall-clock time. Ignored by the
	// sequential engine.
	Workers int
}

// Cluster is a fully wired simulation instance, on either engine.
//
// Sequential engine: K, Fab and Dir are live; every per-host accessor
// (Endpoint, Mapper, Observer, ...) works.
//
// Sharded engine: K, Fab and Dir are nil — hosts live in per-shard cells
// with private kernels and fabric replicas, and the cross-engine subset
// of the API (NIC, RunFor, Stop, Now) plus the sharded-only methods
// (StartFlows, Deliveries, MergedObserver, DumpObservables, ...) apply.
// Methods that would need a single cluster-wide kernel panic with a
// pointer to the replacement.
type Cluster struct {
	K     *sim.Kernel
	Net   *topology.Network
	Fab   *fabric.Fabric
	Hosts []topology.NodeID
	Dir   *vmmc.Directory

	// Lookahead is the conservative epoch window of the sharded engine:
	// the minimum cross-shard fabric traversal time. Zero on the
	// sequential engine.
	Lookahead time.Duration

	nics    map[topology.NodeID]*nic.NIC
	eps     map[topology.NodeID]*vmmc.Endpoint
	mappers map[topology.NodeID]*mapping.Mapper
	remaps  map[topology.NodeID]*remapManager

	onUnreachable func(src, dst topology.NodeID)
	obs           *metrics.Observer
	tracer        trace.Tracer

	// remapRunning counts mapping runs in flight cluster-wide, for
	// RemapPolicy.MaxConcurrent pacing.
	remapRunning int

	// Sharded-engine state (nil/empty on the sequential engine).
	cfg    Config
	cells  []*cell
	byHost map[topology.NodeID]int
	eng    *parsim.Engine

	// Engine-profiling state (nil/zero when Config.Profile is off).
	prof      *enginestat.EngineProf // sharded engine's recording area
	profiled  bool
	poolBase  enginestat.PoolStat // pool counters at construction time
	telemetry *enginestat.Server

	// Remaps counts completed on-demand remap operations.
	Remaps int
	// Unreachables counts remaps that ended in an unreachable verdict.
	Unreachables int
	// RemapStats counts remap-manager pacing activity (coalesced upcalls,
	// deferred retries, quarantines).
	RemapStats RemapStats
}

// New builds a cluster on the engine cfg selects: the sequential
// single-kernel engine by default, or the conservative parallel engine
// when cfg.Engine is EngineSharded or cfg.Plan is non-zero. All routes
// between host pairs are pre-installed (shortest paths), as a freshly
// mapped system would have them.
func New(cfg Config) *Cluster {
	if cfg.Engine == EngineSharded || !cfg.Plan.zero() {
		cfg.Engine = EngineSharded
		return newSharded(cfg)
	}
	return newSequential(cfg)
}

// resolve fills in the defaults both engines share: a two-host star when
// no network is given, every host of the network, the calibrated fabric
// constants, and the liveness seed folding.
func (cfg *Config) resolve() {
	if cfg.Net == nil {
		n := cfg.NumHosts
		if n == 0 {
			n = 2
		}
		cfg.Net, cfg.Hosts = topology.Star(n)
	}
	if len(cfg.Hosts) == 0 {
		cfg.Hosts = cfg.Net.Hosts()
	}
	if cfg.Fabric == (fabric.Config{}) {
		cfg.Fabric = fabric.DefaultConfig()
	}
	if cfg.Liveness != nil {
		if !cfg.FT {
			panic("core: liveness sessions require the retransmission protocol")
		}
		// Fold the cluster seed into the session-jitter base so different
		// cluster seeds give independent control-packet phasing (each NIC
		// then derives per-session streams from this base). The base never
		// depends on the shard, so sharded results stay byte-identical
		// across worker counts.
		lc := *cfg.Liveness
		lc.Seed = lc.Seed*1000003 + cfg.Seed
		cfg.Liveness = &lc
	}
}

// newNIC builds host h's NIC on wire w. Its dropper is seeded per
// (cluster, host): different cluster seeds — and different NICs within
// one cluster — get independent drop schedules at the same rate, and a
// host's schedule never depends on the engine or its shard.
func (cfg *Config) newNIC(k *sim.Kernel, w nic.Wire, h topology.NodeID, tr trace.Tracer, reg *metrics.Registry) *nic.NIC {
	var dropper fault.Dropper
	if cfg.ErrorRate > 0 {
		dropper = fault.NewRateSeeded(cfg.ErrorRate, cfg.Seed*1000003+int64(h)*7919+12289)
	}
	return nic.New(k, w, h, nic.Options{
		FT:       cfg.FT,
		Retrans:  cfg.Retrans,
		Cost:     cfg.Cost,
		Dropper:  dropper,
		Tracer:   tr,
		Metrics:  reg,
		Liveness: cfg.Liveness,
	})
}

// installRoutes hands n its row of the cluster's route table: the
// shortest route from n's host to every other host, as a freshly mapped
// system would have them. With liveness on, every route starts a session
// timer, so the host order they start in is part of the result.
func installRoutes(n *nic.NIC, t *routing.Table, hosts []topology.NodeID) {
	n.InstallRoutes(t.Row(n.Node()), hosts)
}

func newSequential(cfg Config) *Cluster {
	cfg.resolve()
	k := sim.New(cfg.Seed)
	obs := metrics.NewObserver(cfg.Metrics)
	reg := obs.Registry()
	c := &Cluster{
		cfg:           cfg,
		K:             k,
		Net:           cfg.Net,
		Fab:           fabric.New(k, cfg.Net, cfg.Fabric),
		Hosts:         cfg.Hosts,
		Dir:           vmmc.NewDirectory(),
		nics:          make(map[topology.NodeID]*nic.NIC),
		eps:           make(map[topology.NodeID]*vmmc.Endpoint),
		mappers:       make(map[topology.NodeID]*mapping.Mapper),
		remaps:        make(map[topology.NodeID]*remapManager),
		onUnreachable: cfg.OnUnreachable,
		obs:           obs,
	}
	// Rebind before any traffic so every fabric event lands in the
	// cluster-wide registry rather than the fabric's private one.
	c.Fab.BindMetrics(reg)
	if cfg.Tracer != nil {
		c.InstallTracer(cfg.Tracer)
	}
	for _, h := range cfg.Hosts {
		n := cfg.newNIC(k, c.Fab, h, cfg.Tracer, reg)
		c.nics[h] = n
		c.eps[h] = vmmc.NewEndpoint(k, n, c.Dir)
	}
	routes := routing.NewTable(cfg.Net, cfg.Hosts)
	for _, h := range cfg.Hosts {
		installRoutes(c.nics[h], routes, cfg.Hosts)
	}
	if cfg.Mapper {
		if !cfg.FT {
			panic("core: on-demand mapping requires the retransmission protocol")
		}
		pol := cfg.Remap.Defaults()
		for _, h := range cfg.Hosts {
			m := mapping.New(k, c.nics[h], cfg.MapperCfg)
			c.mappers[h] = m
			rm := newRemapManager(c, h, m, pol, cfg.Seed*9176+int64(h)*104729+31)
			c.remaps[h] = rm
			c.nics[h].SetOnPathStale(rm.trigger)
			c.nics[h].SetOnNoRoute(rm.trigger)
			if cfg.Liveness != nil {
				c.nics[h].SetOnSessionDown(rm.trigger)
			}
		}
	}
	if cfg.Metrics.SampleEvery > 0 {
		obs.StartSampling(k, cfg.Metrics.SampleEvery)
	}
	if cfg.Profile {
		c.enableProfiling()
	}
	if cfg.Telemetry != "" {
		c.startTelemetry(cfg.Telemetry)
	}
	return c
}

// Sharded reports whether the cluster runs on the sharded engine.
func (c *Cluster) Sharded() bool { return c.eng != nil }

func (c *Cluster) mustSequential(method string) {
	if c.eng != nil {
		panic("core: " + method + " is sequential-engine only; this cluster runs EngineSharded")
	}
}

func (c *Cluster) mustSharded(method string) {
	if c.eng == nil {
		panic("core: " + method + " requires EngineSharded (build with Config.Engine or WithEngine/WithShardPlan)")
	}
}

// Observer returns the cluster's observability handle: its registry is
// the single place every subsystem (NIC, fabric, retransmission protocol,
// mapper, remap manager) records into, and its exporters render the
// collected telemetry. Sequential engine only — shard registries are
// per-cell; use MergedObserver.
func (c *Cluster) Observer() *metrics.Observer {
	c.mustSequential("Observer (use MergedObserver)")
	return c.obs
}

// Metrics returns the cluster-wide metrics registry (shorthand for
// Observer().Registry()). Sequential engine only.
func (c *Cluster) Metrics() *metrics.Registry {
	c.mustSequential("Metrics (use MergedObserver)")
	return c.obs.Registry()
}

// InstallTracer wires tr into every layer of an already-built cluster —
// each NIC and the fabric — and remembers it for Tracer()/FlightRecorder().
// Chaos campaigns use this to attach a tracer between cluster construction
// and traffic start; nil removes the current tracer everywhere.
// Sequential engine only — shard cells trace into private rings (see
// TraceEvents).
func (c *Cluster) InstallTracer(tr trace.Tracer) {
	c.mustSequential("InstallTracer (sharded clusters trace into per-shard rings)")
	c.tracer = tr
	c.Fab.SetTracer(tr)
	for _, n := range c.nics {
		n.SetTracer(tr)
	}
}

// Tracer returns the cluster-wide tracer (nil if tracing is off, and
// always nil on the sharded engine).
func (c *Cluster) Tracer() trace.Tracer { return c.tracer }

// FlightRecorder returns the cluster tracer as a flight recorder, or nil
// if the tracer is absent or of another kind.
func (c *Cluster) FlightRecorder() *trace.FlightRecorder {
	fr, _ := c.tracer.(*trace.FlightRecorder)
	return fr
}

// NIC returns the NIC of host h (works on both engines).
func (c *Cluster) NIC(h topology.NodeID) *nic.NIC {
	if c.eng != nil {
		i, ok := c.byHost[h]
		if !ok {
			return nil
		}
		return c.cells[i].nics[h]
	}
	return c.nics[h]
}

// Endpoint returns the VMMC endpoint of host h. Sequential engine only.
func (c *Cluster) Endpoint(h topology.NodeID) *vmmc.Endpoint {
	c.mustSequential("Endpoint")
	return c.eps[h]
}

// Mapper returns the on-demand mapper of host h (nil if mapping disabled).
func (c *Cluster) Mapper(h topology.NodeID) *mapping.Mapper { return c.mappers[h] }

// Quarantined reports whether host src currently holds dst in quarantine
// (repeated remap failures; cleared by the next successful remap).
func (c *Cluster) Quarantined(src, dst topology.NodeID) bool {
	rm := c.remaps[src]
	return rm != nil && rm.quarantinedNow(dst)
}

// RemapInFlight returns, across all hosts, how many destinations have a
// mapping run currently active and how many hold an armed retry timer.
// At quiesce both should be zero (a run still active there means a remap
// wedged without completing).
func (c *Cluster) RemapInFlight() (running, armed int) {
	for _, rm := range c.remaps {
		r, a := rm.busy()
		running += r
		armed += a
	}
	return
}

// SuspendRemap freezes host h's failure recovery: stale-path / no-route /
// session-down triggers are held instead of starting mapping runs, so h
// keeps routing on its pre-failure map. Stale-map divergence scenarios use
// this to open a blind window; ResumeRemap replays the held triggers.
// Sequential engine with mapping enabled only.
func (c *Cluster) SuspendRemap(h topology.NodeID) {
	c.mustSequential("SuspendRemap")
	rm := c.remaps[h]
	if rm == nil {
		panic("core: SuspendRemap on a cluster without Config.Mapper")
	}
	rm.suspend()
}

// ResumeRemap re-enables host h's failure recovery and replays every
// trigger held while suspended, in destination order.
func (c *Cluster) ResumeRemap(h topology.NodeID) {
	c.mustSequential("ResumeRemap")
	rm := c.remaps[h]
	if rm == nil {
		panic("core: ResumeRemap on a cluster without Config.Mapper")
	}
	rm.resume()
}

// SetLinkLoss makes topology link id gray: packets crossing it drop with
// probability rate from a deterministic per-(seed, link) stream. Works on
// both engines (on the sharded engine every shard replica gets the same
// stream parameters; each samples only the packets it carries). rate 0
// clears the loss.
func (c *Cluster) SetLinkLoss(link int, rate float64) {
	if c.eng != nil {
		for _, cl := range c.cells {
			cl.pipe.SetLinkLoss(link, rate, c.cfg.Seed)
		}
		return
	}
	c.Fab.SetLinkLoss(link, rate, c.cfg.Seed)
}

// Host returns the i-th host's node ID.
func (c *Cluster) Host(i int) topology.NodeID { return c.Hosts[i] }

// EndpointAt returns the i-th host's endpoint. Sequential engine only.
func (c *Cluster) EndpointAt(i int) *vmmc.Endpoint {
	c.mustSequential("EndpointAt")
	return c.eps[c.Hosts[i]]
}

// NICAt returns the i-th host's NIC (works on both engines).
func (c *Cluster) NICAt(i int) *nic.NIC { return c.NIC(c.Hosts[i]) }

// RunFor advances the whole simulation by d, then stops the kernel(s)
// (terminating any still-parked processes). Use for bounded experiments.
func (c *Cluster) RunFor(d time.Duration) {
	if c.eng != nil {
		c.eng.RunFor(d)
	} else {
		c.K.RunFor(d)
	}
	c.publishTelemetry()
}

// Stop terminates the simulation and all its processes. On the sharded
// engine this also shuts the worker pool down; the cluster can still be
// inspected (Deliveries, DumpObservables, ...) but not resumed.
func (c *Cluster) Stop() {
	if c.eng != nil {
		for _, cl := range c.cells {
			cl.k.Stop()
		}
		c.eng.Shutdown()
	} else {
		c.K.Stop()
	}
	// Final publish so a live scrape can read the end state; the server
	// itself stays up until its owner closes it.
	c.publishTelemetry()
}

// StopSoon schedules a stop at the current instant; safe to call from
// process context (the stop executes once control returns to the kernel).
// Benchmarks call it when their workload completes so the run does not
// idle through periodic timer events until its time bound. Sequential
// engine only.
func (c *Cluster) StopSoon() {
	c.mustSequential("StopSoon")
	c.K.Immediately(func() { c.K.Stop() })
}

// Now returns the current simulated time: the kernel clock, or the time
// frontier all shards have reached.
func (c *Cluster) Now() sim.Time {
	if c.eng != nil {
		return c.eng.Now()
	}
	return c.K.Now()
}
