package sanft

import (
	"time"

	"sanft/internal/core"
	"sanft/internal/liveness"
	"sanft/internal/metrics"
	"sanft/internal/report"
	"sanft/internal/topology"
)

// Observability and reporting types.
type (
	// Observer is a cluster's observability handle: one registry every
	// subsystem records into, periodic simulated-time sampling, and
	// JSONL / Prometheus / summary exporters. Obtain it with
	// Cluster.Observer().
	Observer = metrics.Observer
	// MetricsRegistry holds every counter, gauge, and histogram of one
	// cluster, keyed by name{labels}.
	MetricsRegistry = metrics.Registry
	// MetricsConfig tunes sampling (interval, retention cap).
	MetricsConfig = metrics.Config
	// MetricsSample is one point of the collected time series.
	MetricsSample = metrics.Sample

	// RemapPolicy paces the recovery path (backoff, quarantine).
	RemapPolicy = core.RemapPolicy

	// Report is the common rendering contract for experiment and
	// campaign results; Row is one of its result rows; ReportTable the
	// standard implementation.
	Report      = report.Report
	Row         = report.Row
	ReportTable = report.Table
)

// Option mutates a cluster configuration. Options are applied in order,
// so later options override earlier ones.
type Option func(*Config)

// WithTopology wires the cluster over an explicit network. The host list
// may be nil to use every host node in the network.
func WithTopology(nw *Network, hosts []NodeID) Option {
	return func(c *Config) {
		c.Net = nw
		c.Hosts = hosts
	}
}

// WithStar wires n hosts to one full-crossbar switch — the
// micro-benchmark topology.
func WithStar(n int) Option {
	return func(c *Config) {
		c.Net, c.Hosts = topology.Star(n)
	}
}

// WithFaultTolerance enables the firmware retransmission protocol with
// whatever parameters are configured (zero fields take the paper's
// best-compromise defaults — see DefaultParams); combine with WithRetrans
// to tune them.
func WithFaultTolerance() Option {
	return func(c *Config) { c.FT = true }
}

// WithRetrans sets the retransmission-protocol parameters (queue size q,
// timer interval T, permanent-failure threshold, ...) without toggling
// the protocol itself — parameters and enablement are orthogonal. Note
// that the parameters matter even with the protocol off: in non-FT mode
// the queue size still bounds the send-buffer pool, which is how the
// no-fault-tolerance baseline is provisioned.
func WithRetrans(rc RetransConfig) Option {
	return func(c *Config) { c.Retrans = rc }
}

// WithErrorRate injects send-side drops at rate p (e.g. 1e-3), each NIC
// with its own deterministic schedule.
func WithErrorRate(p float64) Option {
	return func(c *Config) { c.ErrorRate = p }
}

// WithSeed fixes all randomness. New defaults to seed 1.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithMapper enables on-demand mapping (requires fault tolerance).
func WithMapper() Option {
	return func(c *Config) { c.Mapper = true }
}

// WithLiveness runs a BFD-style liveness session on every routed path
// (requires fault tolerance), with RFC 5880-style timer terms (1ms
// interval, multiplier 3): a dead path is declared down after three
// intervals of control silence — typically well before the fixed
// permanent-failure threshold — and the session-down event triggers the
// same remap/quarantine recovery as a stale path. The sessions also make
// the retransmission timeout adaptive: their RTT samples (and unambiguous
// ack timings) drive a Jacobson/Karn SRTT/RTTVAR estimator per
// destination, with exponential backoff while a path is unresponsive.
func WithLiveness() Option {
	return func(c *Config) { c.Liveness = &liveness.Config{} }
}

// WithSampling starts periodic metric sampling every `every` of simulated
// time (Config.Metrics.SampleEvery).
func WithSampling(every time.Duration) Option {
	return func(c *Config) { c.Metrics.SampleEvery = every }
}

// WithTracing wires tr as the cluster-wide tracer: every NIC protocol
// action, fabric hop event, VMMC message-lifecycle event, and remap
// lifecycle event is recorded through it. Typically a *TraceRing (plain
// ring buffer) or a *FlightRecorder. Zero cost when absent.
func WithTracing(tr Tracer) Option {
	return func(c *Config) { c.Tracer = tr }
}

// WithFlightRecorder wires fr as the cluster tracer. A flight recorder is
// a ring that additionally freezes a snapshot of its window whenever an
// anomaly fires (watchdog reset, unreachable verdict, quarantine), so the
// events leading up to a fault survive even after the ring wraps.
func WithFlightRecorder(fr *FlightRecorder) Option {
	return func(c *Config) { c.Tracer = fr }
}

// WithEngineProfiling enables the engine's wall-clock self-profiler:
// per-worker epoch accounting on a plan of several cells (busy /
// barrier-stall / steal / exchange time, claims, events executed) and
// per-cell kernel counters (scheduled/cancelled/executed, arena
// high-water mark). Read the collected profile with Cluster.EngineProfile
// after the run; render it with its WriteJSON, or derive its ratios with
// Summarize. Profiling observes wall clocks only and feeds nothing back,
// so results stay byte-identical to an unprofiled run.
func WithEngineProfiling() Option {
	return func(c *Config) { c.Profile = true }
}

// WithEngine selects the execution engine: EngineSequential (the
// default one-cell plan — one kernel over the wormhole fabric, full API)
// or EngineSharded (hosts partitioned into cells under the conservative
// parallel engine; outputs are byte-identical for every worker count).
// The frame-level API (StartFlows, Deliveries, ScheduleLinkFlaps,
// MergedObserver, ...) runs on either. Combine with WithShardPlan and
// WithWorkers to shape a sharded run.
func WithEngine(k EngineKind) Option {
	return func(c *Config) { c.Engine = k }
}

// WithShardPlan sets the host partition for sharded execution and
// implies WithEngine(EngineSharded). The plan is part of the
// experiment's identity — it decides which traffic crosses epoch
// barriers — so differential comparisons must hold it fixed. The zero
// plan is one host per shard.
func WithShardPlan(p ShardPlan) Option {
	return func(c *Config) {
		c.Engine = EngineSharded
		c.Plan = p
	}
}

// WithWorkers sets how many OS threads drive the cell kernels under
// EngineSharded. Any value — including the default 0 (= GOMAXPROCS) —
// produces byte-identical results; the setting only changes wall-clock
// time. The one-cell plan runs its kernel directly and ignores it.
func WithWorkers(n int) Option {
	return func(c *Config) { c.Workers = n }
}

// New builds a cluster from functional options:
//
//	c := sanft.New(
//		sanft.WithStar(8),
//		sanft.WithFaultTolerance(),
//		sanft.WithErrorRate(1e-3),
//		sanft.WithSampling(time.Millisecond),
//	)
//
// With no topology option, a two-host star is built; the default seed
// is 1. The same constructor builds sharded parallel clusters:
//
//	s := sanft.New(
//		sanft.WithStar(8),
//		sanft.WithEngine(sanft.EngineSharded), // or WithShardPlan(...)
//		sanft.WithWorkers(4),
//	)
func New(opts ...Option) *Cluster {
	cfg := Config{Seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return core.New(cfg)
}
