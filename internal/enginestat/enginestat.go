// Package enginestat is the execution engine's self-observability layer:
// a low-overhead wall-clock profiler for the simulator itself, as opposed
// to internal/metrics and internal/trace, which observe the *simulated*
// network in simulated time.
//
// The profiler answers the questions the scaling work keeps asking: where
// does wall-clock time go inside an epoch (kernel execution vs barrier
// stall vs steal-loop overhead vs exchange/merge), how well is the
// lookahead window utilized (events per epoch, active shards per
// barrier), and how large did the kernel arenas grow. Per-goroutine
// timelines are the Go execution tracer's job (runtime/trace, go tool
// trace), not this package's.
//
// Design constraints, in order:
//
//   - Zero cost when off. Profiling is opt-in; a disabled engine pays
//     only nil checks on per-epoch (never per-event) paths, and a
//     profiled run is byte-identical to an unprofiled one — the profiler
//     reads wall clocks but never feeds anything back into simulation
//     state.
//   - Worker-local collection. Each engine worker writes its own
//     WorkerStat; nothing is shared during an epoch, and the stats are
//     read only after the engine quiesces.
//   - Deterministic rendering. A given Profile value renders to
//     byte-identical JSON: fixed field order, no map iteration, no
//     timestamps taken at render time.
//
// The package depends only on the standard library, so the engine layers
// (parsim, core) can feed it without cycles.
package enginestat

import (
	"encoding/json"
	"io"
	"time"
)

// epoch is the process-wide monotonic base for every wall-clock reading
// the profiler takes.
var epoch = time.Now()

// NowNS returns nanoseconds since the process profiling epoch, from the
// monotonic clock.
func NowNS() int64 { return int64(time.Since(epoch)) }

// Bucket names one of the four wall-clock buckets of a WorkerStat.
type Bucket uint8

const (
	// Busy is time executing shard kernel windows.
	Busy Bucket = iota
	// Stall is barrier time.
	Stall
	// Steal is claim-loop overhead.
	Steal
	// Exchange is the coordinator's time between windows.
	Exchange
)

// WorkerStat is one engine worker's wall-clock account of a profiled run.
// Worker 0 is the coordinating goroutine (a full epoch participant);
// workers 1..n-1 are the spinning helpers. Its methods are nil-safe, so
// the engine runs one epoch loop whether profiling is on or off.
type WorkerStat struct {
	Worker int `json:"worker"`

	// BusyNS is time spent executing shard kernel windows (RunBefore /
	// solo batches) — the only bucket that does simulation work.
	BusyNS int64 `json:"busy_ns"`
	// StallNS is barrier time: the coordinator waiting for helper acks,
	// and helpers spinning on the epoch generation between windows.
	StallNS int64 `json:"stall_ns"`
	// StealNS is claim-loop overhead: advancing the shared cursor and
	// bookkeeping around each claimed shard, outside kernel code.
	StealNS int64 `json:"steal_ns"`
	// ExchangeNS is coordinator-only: cross-shard event delivery,
	// outbox collection, inbox sorting, and epoch-window scanning.
	ExchangeNS int64 `json:"exchange_ns"`
	// AwakeNS is the wall-clock window the worker was accountable for:
	// the coordinator's time inside Run, a helper's time between wake
	// and park. Busy+Stall+Steal+Exchange equals AwakeNS exactly, because
	// every clock read closes one bucket and opens the next (Charge).
	AwakeNS int64 `json:"awake_ns"`

	// Claims counts shard windows this worker executed, Events the
	// simulation events they executed.
	Claims uint64 `json:"claims"`
	Events uint64 `json:"events"`

	// mark is the instant the last charge ended, woke the start of the
	// current awake window.
	mark, woke int64
}

// Wake opens the worker's awake window: the next charge runs from now.
func (w *WorkerStat) Wake() {
	if w == nil {
		return
	}
	w.mark = NowNS()
	w.woke = w.mark
}

// Charge adds the wall-clock since the worker's last mark to bucket b and
// moves the mark to now. It is the only clock read between Wake and Park,
// so consecutive charges chain and no instant of the awake window is
// counted twice or left out.
func (w *WorkerStat) Charge(b Bucket) {
	if w == nil {
		return
	}
	now := NowNS()
	d := now - w.mark
	w.mark = now
	switch b {
	case Busy:
		w.BusyNS += d
	case Stall:
		w.StallNS += d
	case Steal:
		w.StealNS += d
	default:
		w.ExchangeNS += d
	}
}

// Ran charges one claimed shard window that executed events to Busy.
func (w *WorkerStat) Ran(events uint64) {
	if w == nil {
		return
	}
	w.Charge(Busy)
	w.Claims++
	w.Events += events
}

// Park charges the time since the last mark to b, closes the awake window
// and returns its length (0 when w is nil).
func (w *WorkerStat) Park(b Bucket) int64 {
	if w == nil {
		return 0
	}
	w.Charge(b)
	d := w.mark - w.woke
	w.AwakeNS += d
	return d
}

// accounted returns the sum of the worker's explained buckets.
func (w *WorkerStat) accounted() int64 {
	return w.BusyNS + w.StallNS + w.StealNS + w.ExchangeNS
}

// add folds src's accounts into w (the Worker index is kept).
func (w *WorkerStat) add(src *WorkerStat) {
	w.BusyNS += src.BusyNS
	w.StallNS += src.StallNS
	w.StealNS += src.StealNS
	w.ExchangeNS += src.ExchangeNS
	w.AwakeNS += src.AwakeNS
	w.Claims += src.Claims
	w.Events += src.Events
}

// EngineStat is the epoch-loop-level account of a run. The engine keeps
// it whether profiling is on or not; only RunWallNS needs the profiler.
type EngineStat struct {
	Workers     int   `json:"workers"`
	Shards      int   `json:"shards"`
	LookaheadNS int64 `json:"lookahead_ns"`

	// RunWallNS is total wall-clock spent inside Engine.Run.
	RunWallNS int64 `json:"run_wall_ns"`

	// Epochs counts epoch windows; BarrierEpochs those that actually
	// synchronized more than one busy shard; SoloBatches the inline
	// single-busy-shard batches that bypassed the barrier protocol.
	Epochs        uint64 `json:"epochs"`
	BarrierEpochs uint64 `json:"barrier_epochs"`
	SoloBatches   uint64 `json:"solo_batches"`

	// Exchanged counts cross-shard events that crossed epoch barriers.
	Exchanged uint64 `json:"exchanged"`

	// WindowNS sums the simulated width of barrier epoch windows, and
	// ActiveShardSum the busy-shard count per barrier epoch — together
	// they give lookahead-window utilization (events per window, average
	// available parallelism).
	WindowNS       int64  `json:"window_ns"`
	ActiveShardSum uint64 `json:"active_shard_sum"`
}

// KernelStat is one shard kernel's event-machinery account. Heaped
// counts the scheduled events that entered the kernel's binary heap
// rather than its sorted front (sim.KernelStats.Heaped); Switches counts
// the handoffs of its event loop between goroutines (sim.Proc).
type KernelStat struct {
	Shard          int    `json:"shard"`
	Scheduled      uint64 `json:"scheduled"`
	Heaped         uint64 `json:"heaped"`
	Cancelled      uint64 `json:"cancelled"`
	Executed       uint64 `json:"executed"`
	Pending        int    `json:"pending"`
	ArenaHighWater int    `json:"arena_high_water"`
	Switches       uint64 `json:"switches"`
}

// Profile is the collected, serializable result of a profiled run:
// engine totals, per-worker wall-clock accounts and per-shard kernel
// counters.
type Profile struct {
	Engine  EngineStat   `json:"engine"`
	Workers []WorkerStat `json:"workers,omitempty"`
	Kernels []KernelStat `json:"kernels,omitempty"`
}

// MergeWorkers flattens per-worker stats into one total, the order-free
// aggregation the Summary fractions are derived from.
func MergeWorkers(ws []WorkerStat) WorkerStat {
	var t WorkerStat
	t.Worker = -1
	for i := range ws {
		t.add(&ws[i])
	}
	return t
}

// TotalEvents sums events executed across all shard kernels.
func (p *Profile) TotalEvents() uint64 {
	var t uint64
	for i := range p.Kernels {
		t += p.Kernels[i].Executed
	}
	return t
}

// Summary is the compact derived view of a Profile: ratios and peaks
// small enough to report beside one measurement (the benchmark reads its
// busy and stall fractions).
type Summary struct {
	Epochs          uint64  `json:"epochs"`
	BarrierEpochs   uint64  `json:"barrier_epochs"`
	SoloBatches     uint64  `json:"solo_batches"`
	Exchanged       uint64  `json:"exchanged"`
	Events          uint64  `json:"events"`
	EventsPerEpoch  float64 `json:"events_per_epoch"`
	AvgActiveShards float64 `json:"avg_active_shards"`
	BusyFrac        float64 `json:"busy_frac"`
	StallFrac       float64 `json:"stall_frac"`
	StealFrac       float64 `json:"steal_frac"`
	ExchangeFrac    float64 `json:"exchange_frac"`
	ArenaHighWater  int     `json:"arena_high_water"`
}

// round4 keeps derived ratios readable and their rendering byte-stable
// regardless of accumulated float noise in the last bits.
func round4(v float64) float64 {
	if v < 0 {
		return -round4(-v)
	}
	return float64(int64(v*1e4+0.5)) / 1e4
}

// Summarize derives the compact view.
func (p *Profile) Summarize() Summary {
	s := Summary{
		Epochs:        p.Engine.Epochs,
		BarrierEpochs: p.Engine.BarrierEpochs,
		SoloBatches:   p.Engine.SoloBatches,
		Exchanged:     p.Engine.Exchanged,
		Events:        p.TotalEvents(),
	}
	if p.Engine.Epochs > 0 {
		s.EventsPerEpoch = round4(float64(s.Events) / float64(p.Engine.Epochs))
	}
	if p.Engine.BarrierEpochs > 0 {
		s.AvgActiveShards = round4(float64(p.Engine.ActiveShardSum) / float64(p.Engine.BarrierEpochs))
	}
	t := MergeWorkers(p.Workers)
	if acc := t.accounted(); acc > 0 {
		s.BusyFrac = round4(float64(t.BusyNS) / float64(acc))
		s.StallFrac = round4(float64(t.StallNS) / float64(acc))
		s.StealFrac = round4(float64(t.StealNS) / float64(acc))
		s.ExchangeFrac = round4(float64(t.ExchangeNS) / float64(acc))
	}
	for i := range p.Kernels {
		if hw := p.Kernels[i].ArenaHighWater; hw > s.ArenaHighWater {
			s.ArenaHighWater = hw
		}
	}
	return s
}

// WriteJSON renders the profile as one indented JSON object. Field order
// is fixed by the struct definitions, so a given Profile value always
// renders to the same bytes.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}
