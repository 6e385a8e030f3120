// Package enginestat is the execution engine's self-observability layer:
// a low-overhead wall-clock profiler for the simulator itself, as opposed
// to internal/metrics and internal/trace, which observe the *simulated*
// network in simulated time.
//
// The profiler answers the questions the scaling work keeps asking: where
// does wall-clock time go inside an epoch (kernel execution vs barrier
// stall vs steal-loop overhead vs exchange/merge), how well is the
// lookahead window utilized (events per epoch, active shards per
// barrier), how hot are the frame/packet pools, and how large did the
// kernel arenas grow.
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
//     merged (plain commutative sums) only after the engine quiesces.
//   - Deterministic rendering. A given Profile value renders to
//     byte-identical text/JSON: fixed field order, no map iteration, no
//     timestamps taken at render time.
//
// The package deliberately depends only on the standard library and
// internal/report, so the engine layers (parsim, core, sim, proto,
// fabric) can feed it without cycles.
package enginestat

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"sanft/internal/report"
)

// epoch is the process-wide monotonic base for every wall-clock reading
// the profiler takes, so spans from different workers share one timeline.
var epoch = time.Now()

// NowNS returns nanoseconds since the process profiling epoch, from the
// monotonic clock.
func NowNS() int64 { return int64(time.Since(epoch)) }

// WorkerStat is one engine worker's wall-clock account of a profiled run.
// Worker 0 is the coordinating goroutine (a full epoch participant);
// workers 1..n-1 are the spinning helpers. All fields are plain sums, so
// merging stats is commutative and associative.
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
	// and park. The profiler's invariant (verified by test) is that
	// Busy+Stall+Steal+Exchange equals AwakeNS exactly: every clock read
	// closes one bucket and opens the next.
	AwakeNS int64 `json:"awake_ns"`

	// Claims counts shard windows this worker executed; StealAttempts
	// and StealHits count cursor claims and successful ones.
	Claims        uint64 `json:"claims"`
	StealAttempts uint64 `json:"steal_attempts"`
	StealHits     uint64 `json:"steal_hits"`
	// Wakes and Parks count the helper's spin/park state transitions.
	Wakes uint64 `json:"wakes"`
	Parks uint64 `json:"parks"`
	// Events counts simulation events executed by this worker.
	Events uint64 `json:"events"`
}

// accounted returns the sum of the worker's explained buckets.
func (w *WorkerStat) accounted() int64 {
	return w.BusyNS + w.StallNS + w.StealNS + w.ExchangeNS
}

// add folds src into w field-wise (Worker index is kept).
func (w *WorkerStat) add(src *WorkerStat) {
	w.BusyNS += src.BusyNS
	w.StallNS += src.StallNS
	w.StealNS += src.StealNS
	w.ExchangeNS += src.ExchangeNS
	w.AwakeNS += src.AwakeNS
	w.Claims += src.Claims
	w.StealAttempts += src.StealAttempts
	w.StealHits += src.StealHits
	w.Wakes += src.Wakes
	w.Parks += src.Parks
	w.Events += src.Events
}

// EngineStat is the epoch-loop-level account of a profiled run.
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

func (e *EngineStat) add(src *EngineStat) {
	if e.Workers == 0 {
		e.Workers, e.Shards, e.LookaheadNS = src.Workers, src.Shards, src.LookaheadNS
	}
	e.RunWallNS += src.RunWallNS
	e.Epochs += src.Epochs
	e.BarrierEpochs += src.BarrierEpochs
	e.SoloBatches += src.SoloBatches
	e.Exchanged += src.Exchanged
	e.WindowNS += src.WindowNS
	e.ActiveShardSum += src.ActiveShardSum
}

// KernelStat is one shard kernel's event-machinery account. Heaped
// counts the scheduled events that entered the kernel's binary heap
// rather than its sorted front (sim.KernelStats.Heaped); Switches counts
// the handoffs of its event loop between goroutines (sim.Proc); ByKind
// splits the executed events by what they were.
type KernelStat struct {
	Shard          int        `json:"shard"`
	Scheduled      uint64     `json:"scheduled"`
	Heaped         uint64     `json:"heaped"`
	Cancelled      uint64     `json:"cancelled"`
	Executed       uint64     `json:"executed"`
	Pending        int        `json:"pending"`
	ArenaHighWater int        `json:"arena_high_water"`
	Switches       uint64     `json:"switches"`
	ByKind         EventKinds `json:"by_kind"`
}

// EventKinds counts executed events by kind (sim.EventKind): retransmission
// timer ticks, resource (firmware, DMA) completions, worm steps through
// the wormhole fabric, Proc wake-ups, Pipe send completions and arrivals,
// and everything else.
type EventKinds struct {
	Tick     uint64 `json:"tick"`
	Resource uint64 `json:"resource"`
	Worm     uint64 `json:"worm"`
	Wake     uint64 `json:"wake"`
	Pipe     uint64 `json:"pipe"`
	Other    uint64 `json:"other"`
}

func (e *EventKinds) add(src *EventKinds) {
	e.Tick += src.Tick
	e.Resource += src.Resource
	e.Worm += src.Worm
	e.Wake += src.Wake
	e.Pipe += src.Pipe
	e.Other += src.Other
}

// PoolStat is the frame/packet pool traffic observed during a profiled
// run. Gets count pooled clones served; Misses count pool refills (fresh
// allocations), so HitRate = 1 - Misses/Gets. The counters are
// process-wide (the pools are shared), so overlapping profiled runs in
// one process see each other's traffic.
type PoolStat struct {
	FrameGets    uint64 `json:"frame_gets"`
	FrameMisses  uint64 `json:"frame_misses"`
	PacketGets   uint64 `json:"packet_gets"`
	PacketMisses uint64 `json:"packet_misses"`
}

func (p *PoolStat) add(src *PoolStat) {
	p.FrameGets += src.FrameGets
	p.FrameMisses += src.FrameMisses
	p.PacketGets += src.PacketGets
	p.PacketMisses += src.PacketMisses
}

func hitRate(gets, misses uint64) float64 {
	if gets == 0 {
		return 0
	}
	return round4(1 - float64(misses)/float64(gets))
}

// Profile is the collected, serializable result of a profiled run:
// engine totals, per-worker wall-clock accounts, per-shard kernel
// counters, pool traffic, and (when span recording was enabled) the
// wall-clock spans for the Perfetto export. SpansDropped counts the spans
// the per-worker caps turned away, so a truncated trace says so.
type Profile struct {
	Engine       EngineStat   `json:"engine"`
	Workers      []WorkerStat `json:"workers,omitempty"`
	Kernels      []KernelStat `json:"kernels,omitempty"`
	Pools        PoolStat     `json:"pools"`
	Spans        []Span       `json:"-"`
	SpansDropped uint64       `json:"spans_dropped,omitempty"`
}

// AddFrom folds src into p. Every field is a commutative sum (workers and
// kernels are matched by index, extending as needed), so aggregating
// profiles from many runs — or worker-local stats from one run — gives
// the same result in any order. Spans are concatenated and re-sorted at
// export time.
func (p *Profile) AddFrom(src *Profile) {
	p.Engine.add(&src.Engine)
	for i := range src.Workers {
		for len(p.Workers) <= i {
			p.Workers = append(p.Workers, WorkerStat{Worker: len(p.Workers)})
		}
		p.Workers[i].add(&src.Workers[i])
	}
	for i := range src.Kernels {
		for len(p.Kernels) <= i {
			p.Kernels = append(p.Kernels, KernelStat{Shard: len(p.Kernels)})
		}
		k, s := &p.Kernels[i], &src.Kernels[i]
		k.Scheduled += s.Scheduled
		k.Heaped += s.Heaped
		k.Cancelled += s.Cancelled
		k.Executed += s.Executed
		k.Pending += s.Pending
		if s.ArenaHighWater > k.ArenaHighWater {
			k.ArenaHighWater = s.ArenaHighWater
		}
		k.Switches += s.Switches
		k.ByKind.add(&s.ByKind)
	}
	p.Pools.add(&src.Pools)
	p.Spans = append(p.Spans, src.Spans...)
	p.SpansDropped += src.SpansDropped
}

// MergeWorkers flattens per-worker stats into one total, the order-free
// aggregation the commutativity test pins.
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
	StealHitRate    float64 `json:"steal_hit_rate"`
	FramePoolHit    float64 `json:"frame_pool_hit_rate"`
	PacketPoolHit   float64 `json:"packet_pool_hit_rate"`
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
	if t.StealAttempts > 0 {
		s.StealHitRate = round4(float64(t.StealHits) / float64(t.StealAttempts))
	}
	s.FramePoolHit = hitRate(p.Pools.FrameGets, p.Pools.FrameMisses)
	s.PacketPoolHit = hitRate(p.Pools.PacketGets, p.Pools.PacketMisses)
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

// ms renders nanoseconds as milliseconds with fixed precision.
func ms(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }

// WriteText renders the profile as a human-readable report: engine
// totals, a per-worker wall-clock table, kernel counters, and pool hit
// rates. Byte-stable for a given Profile value.
func (p *Profile) WriteText(w io.Writer) error {
	var b strings.Builder
	e := &p.Engine
	fmt.Fprintf(&b, "engine: workers=%d shards=%d lookahead=%s\n",
		e.Workers, e.Shards, time.Duration(e.LookaheadNS))
	fmt.Fprintf(&b, "  run wall      %s ms\n", ms(e.RunWallNS))
	fmt.Fprintf(&b, "  epochs        %d (%d barrier, %d solo batches)\n",
		e.Epochs, e.BarrierEpochs, e.SoloBatches)
	fmt.Fprintf(&b, "  exchanged     %d cross-shard events\n", e.Exchanged)
	sum := p.Summarize()
	fmt.Fprintf(&b, "  utilization   %.4g events/epoch, %.4g active shards/barrier\n",
		sum.EventsPerEpoch, sum.AvgActiveShards)
	b.WriteString(p.WorkerTable().String())
	if len(p.Kernels) > 0 {
		b.WriteString("kernels:\n")
		for i := range p.Kernels {
			k := &p.Kernels[i]
			fmt.Fprintf(&b, "  shard %-4d scheduled=%d heaped=%d cancelled=%d executed=%d pending=%d arena_high_water=%d switches=%d\n",
				k.Shard, k.Scheduled, k.Heaped, k.Cancelled, k.Executed, k.Pending, k.ArenaHighWater, k.Switches)
			e := &k.ByKind
			fmt.Fprintf(&b, "             by kind: tick=%d resource=%d worm=%d wake=%d pipe=%d other=%d\n",
				e.Tick, e.Resource, e.Worm, e.Wake, e.Pipe, e.Other)
		}
	}
	fmt.Fprintf(&b, "pools: frame gets=%d misses=%d hit=%.4g  packet gets=%d misses=%d hit=%.4g\n",
		p.Pools.FrameGets, p.Pools.FrameMisses, sum.FramePoolHit,
		p.Pools.PacketGets, p.Pools.PacketMisses, sum.PacketPoolHit)
	_, err := io.WriteString(w, b.String())
	return err
}

// WorkerTable renders the per-worker accounts through the shared report
// contract, so CLIs print the engine report the same way they print every
// other result table.
func (p *Profile) WorkerTable() *report.Table {
	t := &report.Table{
		Name: "engine wall-clock by worker",
		Header: []string{"worker", "busy_ms", "stall_ms", "steal_ms", "exchange_ms",
			"awake_ms", "claims", "steal_hit", "events"},
	}
	for i := range p.Workers {
		w := &p.Workers[i]
		hit := "-"
		if w.StealAttempts > 0 {
			hit = fmt.Sprintf("%.3f", float64(w.StealHits)/float64(w.StealAttempts))
		}
		t.Cells = append(t.Cells, []string{
			fmt.Sprint(w.Worker), ms(w.BusyNS), ms(w.StallNS), ms(w.StealNS),
			ms(w.ExchangeNS), ms(w.AwakeNS), fmt.Sprint(w.Claims), hit, fmt.Sprint(w.Events),
		})
	}
	return t
}
