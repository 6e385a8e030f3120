// Package sanft is a simulation-based reproduction of "Tolerating Network
// Failures in System Area Networks" (Tang & Bilas, ICPP 2002).
//
// It provides:
//
//   - A deterministic discrete-event simulation of the paper's platform: a
//     Myrinet-like source-routed wormhole fabric with full-crossbar
//     switches, LANai-class NICs (firmware processor, SRAM send buffers,
//     PCI DMA), and the VMMC user-level communication layer — calibrated
//     to the paper's published constants (8µs 4-byte one-way latency
//     without fault tolerance, ~120 MB/s PCI-limited bandwidth).
//   - The paper's firmware-level retransmission protocol for transient
//     failures: per-destination-node queues, cumulative acks, piggyback
//     acks with sender-based feedback, one periodic timer, go-back-N.
//   - The paper's on-demand network mapping scheme for permanent
//     failures: decentralized BFS probing that discovers only the routes
//     it needs, with sequence-number generations and retransmission-based
//     deadlock recovery.
//   - The evaluation stack: micro-benchmarks (latency, ping-pong and
//     unidirectional bandwidth), a GeNIMA-style SVM substrate, and the
//     three SPLASH-2 applications (FFT, RadixLocal, WaterNSquared).
//   - Experiment harnesses that regenerate every figure and table of the
//     paper's evaluation (Fig3 … Fig9, Table3) plus ablations.
//
// The exported names below are aliases of the implementation packages, so
// the whole system is scriptable through this single import.
package sanft

import (
	"time"

	"sanft/internal/apps"
	"sanft/internal/core"
	"sanft/internal/enginestat"
	"sanft/internal/fabric"
	"sanft/internal/fault"
	"sanft/internal/mapping"
	"sanft/internal/microbench"
	"sanft/internal/nic"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/stats"
	"sanft/internal/svm"
	"sanft/internal/topology"
	"sanft/internal/trace"
	"sanft/internal/vmmc"
)

// Core system types.
type (
	// Cluster is a fully wired simulation instance: topology, fabric,
	// NICs, VMMC endpoints, optional mappers.
	Cluster = core.Cluster
	// Config describes a cluster build.
	Config = core.Config
	// RetransConfig holds the retransmission-protocol parameters
	// (Table 1: queue size, timer interval, ...).
	RetransConfig = retrans.Config
	// FabricConfig holds wire constants (link rate, watchdog, ...).
	FabricConfig = fabric.Config

	// Network is a SAN wiring diagram; NodeID identifies its nodes.
	Network = topology.Network
	NodeID  = topology.NodeID
	// Fig2Topology is the paper's four-switch mapping testbed.
	Fig2Topology = topology.Fig2
	// Route is a source route (output port per switch).
	Route = routing.Route

	// Proc is a simulated process; Kernel the event engine beneath a
	// cluster.
	Proc   = sim.Proc
	Kernel = sim.Kernel

	// Endpoint is a VMMC endpoint; Export and Import its buffer
	// handles; Notification a message-arrival notice.
	Endpoint     = vmmc.Endpoint
	Export       = vmmc.Export
	Import       = vmmc.Import
	Notification = vmmc.Notification

	// NIC is the network interface model; Mapper the on-demand mapper.
	NIC    = nic.NIC
	Mapper = mapping.Mapper
	// MapStats counts mapping work (Table 3's columns).
	MapStats = mapping.Stats

	// Breakdown is the five-stage latency decomposition of Figure 3.
	Breakdown = stats.Breakdown

	// LatencyResult and BandwidthResult are micro-benchmark rows.
	LatencyResult   = microbench.LatencyResult
	BandwidthResult = microbench.BandwidthResult

	// SVM types for building shared-memory applications.
	SVM          = svm.System
	SVMConfig    = svm.Config
	SVMWorker    = svm.Worker
	SVMBreakdown = svm.Breakdown

	// Application parameter/result types.
	AppResult   = apps.Result
	FFTParams   = apps.FFTParams
	RadixParams = apps.RadixParams
	WaterParams = apps.WaterParams

	// Dropper injects send-side errors (the paper's methodology).
	Dropper = fault.Dropper

	// Tracer receives packet-level protocol events; TraceRing is a
	// ring-buffer implementation; TraceEvent one recorded action.
	Tracer     = trace.Tracer
	TraceRing  = trace.Ring
	TraceEvent = trace.Event
	// TraceKind discriminates trace events (send, link-block, watchdog, ...).
	TraceKind = trace.Kind
	// FlightRecorder is a tracer that freezes ring snapshots on anomalies;
	// TraceSnapshot is one frozen window.
	FlightRecorder = trace.FlightRecorder
	TraceSnapshot  = trace.Snapshot
	// TraceSpan is the reconstructed end-to-end story of one message;
	// TraceSpanKey its (src, dst, message-ID) identity.
	TraceSpan    = trace.Span
	TraceSpanKey = trace.SpanKey
	// TraceRecovery is the reconstructed event window around one anomaly.
	TraceRecovery = trace.RecoveryTimeline

	// EngineProfile is the engine self-profiler's collected result
	// (enable with WithEngineProfiling, read with Cluster.EngineProfile,
	// render with its WriteJSON, derive ratios with its Summarize).
	EngineProfile = enginestat.Profile
)

// NewTraceRing returns a ring-buffer tracer holding up to n events; wire
// it with WithTracing (cluster-wide) or NIC.SetTracer (one NIC).
func NewTraceRing(n int) *TraceRing { return trace.NewRing(n) }

// NewFlightRecorder returns a flight-recorder tracer ringing the newest n
// events; wire it with WithFlightRecorder.
func NewFlightRecorder(n int) *FlightRecorder { return trace.NewFlightRecorder(n) }

// BuildSpans groups trace events into per-message spans (see TraceSpan).
func BuildSpans(events []TraceEvent) []*TraceSpan { return trace.BuildSpans(events) }

// DefaultParams returns the paper's best-compromise protocol parameters:
// a 32-buffer send queue and a 1 ms retransmission timer.
func DefaultParams() RetransConfig {
	return RetransConfig{QueueSize: 32, Interval: time.Millisecond}.Defaults()
}

// Sharded parallel execution types.
type (
	// EngineKind selects a cluster's execution engine; see WithEngine.
	EngineKind = core.EngineKind
	// ShardPlan partitions hosts into shards for EngineSharded; see
	// WithShardPlan.
	ShardPlan = core.ShardPlan
	// Flow is one directed traffic stream of a frame-level workload
	// (Cluster.StartFlows, on any engine).
	Flow = core.Flow
	// Delivery is one accepted data frame in a StartFlows run's merged
	// delivery order.
	Delivery = core.Delivery
)

// Engine kinds, re-exported for WithEngine.
const (
	EngineSequential = core.EngineSequential
	EngineSharded    = core.EngineSharded
)

// Star builds the micro-benchmark topology (n hosts, one switch).
func Star(n int) (*Network, []NodeID) { return topology.Star(n) }

// DoubleStar builds two switches with doubled trunks — the smallest
// topology with full path redundancy.
func DoubleStar(n int) (*Network, []NodeID) { return topology.DoubleStar(n) }

// NewFig2 builds the paper's Figure 2 mapping testbed.
func NewFig2() *Fig2Topology { return topology.NewFig2() }

// ShortestRoute computes a BFS shortest source route between two hosts.
func ShortestRoute(nw *Network, a, b NodeID) (Route, error) { return routing.Shortest(nw, a, b) }

// Latency runs the one-way latency micro-benchmark on a fresh cluster.
func Latency(c *Cluster, size, iters int) LatencyResult { return microbench.Latency(c, size, iters) }

// PingPongBandwidth runs the paper's "bidirectional" bandwidth test.
func PingPongBandwidth(c *Cluster, size, iters int) BandwidthResult {
	return microbench.PingPong(c, size, iters)
}

// UnidirectionalBandwidth runs the streaming bandwidth test.
func UnidirectionalBandwidth(c *Cluster, size, iters int) BandwidthResult {
	return microbench.Unidirectional(c, size, iters)
}

// NewSVM builds a shared-virtual-memory system over a cluster's hosts.
func NewSVM(c *Cluster, cfg SVMConfig) *SVM { return svm.New(c, c.Hosts, cfg) }

// RunFFT, RunRadix and RunWater execute the SPLASH-2 kernels.
func RunFFT(c *Cluster, p FFTParams) (AppResult, error)     { return apps.RunFFT(c, p) }
func RunRadix(c *Cluster, p RadixParams) (AppResult, error) { return apps.RunRadix(c, p) }
func RunWater(c *Cluster, p WaterParams) (AppResult, error) { return apps.RunWater(c, p) }

// PaperFFTParams, PaperRadixParams, PaperWaterParams return the Table 2
// problem sizes.
func PaperFFTParams() FFTParams     { return apps.PaperFFTParams() }
func PaperRadixParams() RadixParams { return apps.PaperRadixParams() }
func PaperWaterParams() WaterParams { return apps.PaperWaterParams() }
