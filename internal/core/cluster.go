// Package core assembles the full simulated platform: topology, fabric,
// NICs (with or without the firmware retransmission protocol), VMMC
// endpoints, error injection, and — when enabled — per-NIC on-demand
// mappers wired to the permanent-failure detector. One Cluster is one
// reproducible experiment instance.
package core

import (
	"fmt"
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
	// EngineSequential is the default: the one-cell plan, one kernel
	// driving every host over the wormhole fabric, with the full API
	// (VMMC endpoints, mappers, a cluster-wide observer and tracer).
	EngineSequential EngineKind = iota
	// EngineSharded partitions the hosts into cells (see ShardPlan)
	// driven by the conservative parallel engine. The partition — not the
	// worker count — defines the semantics: results are byte-identical
	// for any number of workers.
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

	// Fabric overrides wire constants (zero = defaults). The NICs take
	// the calibrated cost model (nic.DefaultCostModel).
	Fabric fabric.Config

	// Mapper enables on-demand mapping: stale paths and missing routes
	// trigger a background remap exactly as §4.2 describes. Requires FT,
	// and the one-cell plan.
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
	// One-cell plan only; the cells of a larger plan trace into private
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

	// Engine selects the execution engine; a non-zero Plan implies
	// EngineSharded.
	Engine EngineKind
	// Plan partitions hosts into cells under EngineSharded (zero = one
	// host per cell).
	Plan ShardPlan
	// Workers is the OS-thread count driving the cell kernels under
	// EngineSharded. Results are byte-identical for any value — the
	// partition defines the semantics — so Workers (default 0 =
	// GOMAXPROCS) only changes wall-clock time. The one-cell plan runs
	// its kernel directly and ignores it.
	Workers int

	// Eager runs the one-cell plan as the differential tests' reference:
	// its fixed retransmission timers scan through idle stretches instead
	// of skipping idle scans (nic.Options.SkipIdleScans), and its worms
	// take every hop instead of going lazy on free paths
	// (fabric.Fabric.SetLazyWorms). Results are identical either way, only
	// the kernel's event count differs. A plan of several cells always
	// runs every scan, which keeps its event and epoch counts as they were
	// pinned, and has no worms.
	Eager bool
}

// Cluster is a fully wired simulation instance: the hosts partitioned
// into cells, each with its own kernel, topology view, wire, metrics
// observer, tracer and NICs.
//
// The default engine is the one-cell plan: one cell spans every host,
// its wire is the wormhole fabric over Net, and K, Fab and Dir are that
// cell's kernel, fabric and VMMC directory. Under EngineSharded the plan
// has several cells, each running a contention-free fabric.Pipe over its
// own replica of Net under the parallel engine, and K, Fab and Dir are
// nil.
//
// The frame-level API (NIC, StartFlows, ScheduleLinkFlaps, Deliveries,
// MergedObserver, DumpObservables, RunFor, ...) works on any cluster.
// Observer, InstallTracer, Endpoint and StopSoon need one kernel,
// registry, tracer and VMMC directory spanning every host, and panic on
// a plan of several cells.
type Cluster struct {
	K     *sim.Kernel
	Net   *topology.Network
	Fab   *fabric.Fabric
	Hosts []topology.NodeID
	Dir   *vmmc.Directory

	// Lookahead is the conservative epoch window of the parallel engine:
	// the minimum cross-cell fabric traversal time. Zero on the one-cell
	// plan.
	Lookahead time.Duration

	cfg    Config
	cells  []*cell
	byHost map[topology.NodeID]int // host → index of its cell
	eng    *parsim.Engine          // nil on the one-cell plan

	// One-cell extras (empty on a plan of several cells).
	eps     map[topology.NodeID]*vmmc.Endpoint
	mappers map[topology.NodeID]*mapping.Mapper
	remaps  map[topology.NodeID]*remapManager

	// Engine-profiling state (nil/zero when Config.Profile is off).
	prof     *enginestat.EngineProf // parallel engine's recording area
	profiled bool
	poolBase enginestat.PoolStat // pool counters at construction time

	// RemapStats counts remap-manager pacing activity (coalesced upcalls,
	// deferred retries, quarantines). Each field repeats a remap.* counter
	// of the registry, which is the record to read; the struct stays only
	// for the benchmark harness, which reads Attempts.
	RemapStats RemapStats
}

// New builds a cluster. It resolves cfg, partitions the hosts into cells
// (see cellGroups), builds the route table once, builds every cell and
// hands each NIC its row of the table — all routes between host pairs
// are pre-installed (shortest paths), as a freshly mapped system would
// have them. The hosts of one switch share a row, possibly across
// cells: every NIC only reads it, and copies it on its own cell's
// goroutine when it first changes a route. It then adds what only the one-cell plan has (VMMC
// endpoints, mappers and their remap managers, the metrics sampler) or
// what a plan of several cells needs (the lookahead, the parallel engine
// and the cell boundary), and finally turns on profiling.
func New(cfg Config) *Cluster {
	cfg.resolve()
	groups := cfg.cellGroups()
	routes := routing.NewTable(cfg.Net, cfg.Hosts)
	c := &Cluster{
		Net:    cfg.Net,
		Hosts:  cfg.Hosts,
		cfg:    cfg,
		byHost: make(map[topology.NodeID]int, len(cfg.Hosts)),
	}
	for i, g := range groups {
		c.cells = append(c.cells, c.newCell(i, g, len(groups) == 1))
	}
	// With liveness on, every route starts a session timer, so the host
	// order routes are installed in is part of the result.
	for _, cl := range c.cells {
		for _, h := range cl.hosts {
			cl.nics[h].InstallRoutes(routes.Row(h), cfg.Hosts)
		}
	}
	if len(c.cells) == 1 {
		c.addHostServices()
	} else {
		c.startEngine(routes, groups)
	}
	if cfg.Profile {
		c.enableProfiling()
	}
	return c
}

// resolve fills in the defaults every plan shares: a two-host star when
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
		// depends on the cell, so sharded results stay byte-identical
		// across worker counts.
		lc := *cfg.Liveness
		lc.Seed = lc.Seed*1000003 + cfg.Seed
		cfg.Liveness = &lc
	}
}

// newNIC builds host h's NIC on wire w. Its dropper is seeded per
// (cluster, host): different cluster seeds — and different NICs within
// one cluster — get independent drop schedules at the same rate, and a
// host's schedule never depends on the plan or its cell.
func (cfg *Config) newNIC(k *sim.Kernel, w nic.Wire, h topology.NodeID, tr trace.Tracer, reg *metrics.Registry, skipIdle bool) *nic.NIC {
	var dropper fault.Dropper
	if cfg.ErrorRate > 0 {
		dropper = fault.NewRateSeeded(cfg.ErrorRate, cfg.Seed*1000003+int64(h)*7919+12289)
	}
	return nic.New(k, w, h, nic.Options{
		FT:            cfg.FT,
		Retrans:       cfg.Retrans,
		Dropper:       dropper,
		Tracer:        tr,
		Metrics:       reg,
		Liveness:      cfg.Liveness,
		SkipIdleScans: skipIdle,
	})
}

// newCell builds cell i over hosts: its kernel, topology view, wire,
// metrics observer, tracer and NICs. The one-cell plan's cell is seeded
// cfg.Seed and runs the wormhole fabric over cfg.Net itself (chaos
// scenarios kill links through Fab and restore them through Net), tracing
// into cfg.Tracer. A cell of a larger plan is seeded
// parsim.ShardSeed(cfg.Seed, i) and runs a Pipe over its own replica of
// the network, tracing into a private ring.
func (c *Cluster) newCell(i int, hosts []topology.NodeID, one bool) *cell {
	cfg := &c.cfg
	cl := &cell{hosts: hosts, nics: make(map[topology.NodeID]*nic.NIC, len(hosts))}
	if one {
		cl.k = sim.New(cfg.Seed)
		cl.nw = cfg.Net
		c.K, c.Fab = cl.k, fabric.New(cl.k, cl.nw, cfg.Fabric)
		c.Fab.SetLazyWorms(!cfg.Eager)
		cl.wire, cl.tracer = c.Fab, cfg.Tracer
	} else {
		cl.k = sim.New(parsim.ShardSeed(cfg.Seed, i))
		cl.nw = cfg.Net.Clone()
		cl.wire, cl.tracer = fabric.NewPipe(cl.k, cl.nw, cfg.Fabric), trace.NewRing(shardTraceCap)
	}
	cl.obs = metrics.NewObserver(cfg.Metrics)
	// Rebind before any traffic so every wire event lands in the cell's
	// registry rather than the wire's private one.
	cl.wire.BindMetrics(cl.obs.Registry())
	cl.wire.SetTracer(cl.tracer)
	for _, h := range hosts {
		cl.nics[h] = cfg.newNIC(cl.k, cl.wire, h, cl.tracer, cl.obs.Registry(), one && !cfg.Eager)
		c.byHost[h] = i
	}
	return cl
}

// addHostServices gives the one-cell plan what needs a cell spanning
// every host: a VMMC endpoint per host, on-demand mappers with their
// remap managers, and the periodic metrics sampler.
func (c *Cluster) addHostServices() {
	cfg := &c.cfg
	cl := c.cells[0]
	c.Dir = vmmc.NewDirectory()
	c.eps = make(map[topology.NodeID]*vmmc.Endpoint, len(cfg.Hosts))
	for _, h := range cfg.Hosts {
		c.eps[h] = vmmc.NewEndpoint(cl.k, cl.nics[h], c.Dir)
	}
	if cfg.Mapper {
		if !cfg.FT {
			panic("core: on-demand mapping requires the retransmission protocol")
		}
		pol := cfg.Remap.Defaults()
		c.mappers = make(map[topology.NodeID]*mapping.Mapper, len(cfg.Hosts))
		c.remaps = make(map[topology.NodeID]*remapManager, len(cfg.Hosts))
		for _, h := range cfg.Hosts {
			n := cl.nics[h]
			m := mapping.New(cl.k, n, cfg.MapperCfg)
			c.mappers[h] = m
			rm := newRemapManager(c, h, n, m, pol, cfg.Seed*9176+int64(h)*104729+31)
			c.remaps[h] = rm
			n.SetOnPathStale(rm.trigger)
			n.SetOnNoRoute(rm.trigger)
			if cfg.Liveness != nil {
				n.SetOnSessionDown(rm.trigger)
			}
		}
	}
	if cfg.Metrics.SampleEvery > 0 {
		cl.obs.StartSampling(cl.k, cfg.Metrics.SampleEvery)
	}
}

// oneCell is the API's one guard: it returns the cluster's only cell, and
// panics, naming method, on a plan of several cells.
func (c *Cluster) oneCell(method string) *cell {
	if len(c.cells) != 1 {
		panic(fmt.Sprintf("core: %s needs the one-cell plan, whose kernel, registry, tracer and VMMC directory span every host; this cluster has %d cells", method, len(c.cells)))
	}
	return c.cells[0]
}

// Sharded reports whether the cluster runs a plan of several cells under
// the parallel engine.
func (c *Cluster) Sharded() bool { return c.eng != nil }

// Observer returns the live observability handle of the one-cell plan:
// its registry is the single place every subsystem (NIC, fabric,
// retransmission protocol, mapper, remap manager) records into, and its
// exporters render the collected telemetry. It panics on a plan of
// several cells, whose registries are per cell; use MergedObserver for a
// merged copy on any cluster.
func (c *Cluster) Observer() *metrics.Observer { return c.oneCell("Observer").obs }

// Metrics returns the cluster-wide metrics registry (shorthand for
// Observer().Registry()).
func (c *Cluster) Metrics() *metrics.Registry { return c.Observer().Registry() }

// InstallTracer wires tr into every layer of an already-built one-cell
// cluster — each NIC and the fabric — and remembers it for
// Tracer()/FlightRecorder(). Chaos campaigns use this to attach a tracer
// between cluster construction and traffic start; nil removes the current
// tracer everywhere. The cells of a larger plan trace into private rings
// (see TraceEvents), so it panics there.
func (c *Cluster) InstallTracer(tr trace.Tracer) {
	cl := c.oneCell("InstallTracer")
	cl.tracer = tr
	cl.wire.SetTracer(tr)
	for _, n := range cl.nics {
		n.SetTracer(tr)
	}
}

// Tracer returns the cluster-wide tracer: nil if tracing is off, and
// always nil on a plan of several cells.
func (c *Cluster) Tracer() trace.Tracer {
	if c.eng != nil {
		return nil
	}
	return c.cells[0].tracer
}

// FlightRecorder returns the cluster tracer as a flight recorder, or nil
// if the tracer is absent or of another kind.
func (c *Cluster) FlightRecorder() *trace.FlightRecorder {
	fr, _ := c.Tracer().(*trace.FlightRecorder)
	return fr
}

// NIC returns the NIC of host h, or nil if h is not a cluster host.
func (c *Cluster) NIC(h topology.NodeID) *nic.NIC {
	// A stranger maps to cell 0, whose NIC map does not hold it either.
	return c.cells[c.byHost[h]].nics[h]
}

// Endpoint returns the VMMC endpoint of host h. One-cell plan only.
func (c *Cluster) Endpoint(h topology.NodeID) *vmmc.Endpoint {
	c.oneCell("Endpoint")
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
// Requires Config.Mapper.
func (c *Cluster) SuspendRemap(h topology.NodeID) {
	rm := c.remaps[h]
	if rm == nil {
		panic("core: SuspendRemap on a cluster without Config.Mapper")
	}
	rm.suspend()
}

// ResumeRemap re-enables host h's failure recovery and replays every
// trigger held while suspended, in destination order.
func (c *Cluster) ResumeRemap(h topology.NodeID) {
	rm := c.remaps[h]
	if rm == nil {
		panic("core: ResumeRemap on a cluster without Config.Mapper")
	}
	rm.resume()
}

// SetLinkLoss makes topology link id gray: packets crossing it drop with
// probability rate from a deterministic per-(seed, link) stream. Every
// cell's wire gets the same stream parameters; each samples only the
// packets it carries. rate 0 clears the loss.
func (c *Cluster) SetLinkLoss(link int, rate float64) {
	for _, cl := range c.cells {
		cl.wire.SetLinkLoss(link, rate, c.cfg.Seed)
	}
}

// Host returns the i-th host's node ID.
func (c *Cluster) Host(i int) topology.NodeID { return c.Hosts[i] }

// EndpointAt returns the i-th host's endpoint. One-cell plan only.
func (c *Cluster) EndpointAt(i int) *vmmc.Endpoint { return c.Endpoint(c.Hosts[i]) }

// NICAt returns the i-th host's NIC.
func (c *Cluster) NICAt(i int) *nic.NIC { return c.NIC(c.Hosts[i]) }

// RunFor advances the whole simulation by d. Call it again to go on;
// Stop ends the run and terminates any still-parked processes. The
// one-cell plan runs its kernel directly, so events at the boundary
// instant execute; the parallel engine stops before them.
func (c *Cluster) RunFor(d time.Duration) {
	if c.eng != nil {
		c.eng.RunFor(d)
	} else {
		c.K.RunFor(d)
	}
}

// Stop terminates the simulation and all its processes. On a plan of
// several cells this also shuts the worker pool down; the cluster can
// still be inspected (Deliveries, DumpObservables, ...) but not resumed.
func (c *Cluster) Stop() {
	for _, cl := range c.cells {
		cl.k.Stop()
	}
	if c.eng != nil {
		c.eng.Shutdown()
	}
}

// StopSoon schedules a stop at the current instant; safe to call from
// process context (the stop executes once control returns to the kernel).
// Benchmarks call it when their workload completes so the run does not
// idle through periodic timer events until its time bound. One-cell plan
// only.
func (c *Cluster) StopSoon() {
	k := c.oneCell("StopSoon").k
	k.Immediately(func() { k.Stop() })
}

// Now returns the current simulated time: the kernel clock, or the time
// frontier all cells have reached.
func (c *Cluster) Now() sim.Time {
	if c.eng != nil {
		return c.eng.Now()
	}
	return c.K.Now()
}
