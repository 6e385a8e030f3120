// Package parsim is a conservative (lookahead-based) parallel
// discrete-event engine with two levels of parallelism:
//
//   - Level 1, sharded execution (Engine): one simulation partitioned
//     into logical shards, each owning a sim.Kernel, executed in epoch
//     windows of one lookahead. Cross-shard events are exchanged at
//     epoch barriers and merged in deterministic (time, srcShard, seq)
//     order, so the result is byte-identical for every worker count —
//     the partition, not the scheduler, defines the semantics.
//   - Level 2, replica parallelism (Pool): independent seeded replicas
//     (chaos campaigns, proptest cases, sweep points) distributed over
//     OS workers by work stealing, with results gathered by replica
//     index so aggregation order is scheduling-independent.
//
// The conservative condition is the classic one: a shard executing the
// window [T, T+L) may only produce events for other shards at times
// ≥ T+L, where L is the lookahead — here the minimum cross-shard fabric
// traversal latency. The paper's own argument makes this safe to rely
// on: the retransmission protocol tolerates any packet delay or loss, so
// correctness never depends on sub-lookahead cross-host reaction times.
//
// The epoch loop is built for short lookaheads (a system-area fabric
// bounds L at a few hundred nanoseconds, so barriers dominate): the
// coordinating goroutine is itself a full epoch participant and keeps
// only workers-1 helper goroutines, helpers spin on an atomic epoch
// generation between back-to-back windows and park on a channel only
// across Run calls (so the per-epoch handoff is an atomic store, not a
// futex round-trip), the exchange buffers are reused across epochs
// without allocating, idle shards align their clocks inline without
// touching a helper, and stretches where only one shard has work at all
// batch many windows into one inline run that pauses only when a
// cross-shard event is actually posted.
package parsim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sanft/internal/enginestat"
	"sanft/internal/sim"
)

// Shard is one logical partition of a simulation: anything owning a
// kernel. The engine drives the kernel through epoch windows; all other
// shard state (NIC, fabric replica, buffers) stays private to the shard.
type Shard interface {
	Kernel() *sim.Kernel
}

// xev is one cross-shard event in flight between epochs.
type xev struct {
	at       sim.Time
	src, dst int
	seq      uint64
	fn       func()
}

// xevLess orders cross-shard events by (time, source shard, per-source
// sequence) — the deterministic merge rule. Two events can never compare
// equal: seq is unique per source.
func xevLess(a, b xev) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// xevSorter adapts an inbox to sort.Interface. The engine keeps one and
// rebinds its slice per sort, so restoring inbox order allocates nothing.
type xevSorter struct{ s []xev }

func (x *xevSorter) Len() int           { return len(x.s) }
func (x *xevSorter) Less(i, j int) bool { return xevLess(x.s[i], x.s[j]) }
func (x *xevSorter) Swap(i, j int)      { x.s[i], x.s[j] = x.s[j], x.s[i] }

// Port is a shard's handle for posting cross-shard events. Each shard
// holds its own port; posts go to a per-source outbox, so shards running
// on different workers never share a write destination.
type Port struct {
	e   *Engine
	src int
}

// Send schedules fn to run on shard dst's kernel at absolute time at.
// It must be called from shard src's execution (during an epoch) and at
// must be at least the current epoch's end — the conservative condition.
// Violations panic: they mean the claimed lookahead was wrong.
func (p *Port) Send(at sim.Time, dst int, fn func()) {
	e := p.e
	if dst < 0 || dst >= len(e.shards) {
		panic(fmt.Sprintf("parsim: send to unknown shard %d", dst))
	}
	if at < e.curEnd {
		panic(fmt.Sprintf("parsim: lookahead violation: shard %d sends event at %v inside epoch ending %v",
			p.src, at, e.curEnd))
	}
	e.seq[p.src]++
	e.outbox[p.src] = append(e.outbox[p.src], xev{at: at, src: p.src, dst: dst, seq: e.seq[p.src], fn: fn})
}

// Engine executes a set of shards under epoch barriers.
type Engine struct {
	shards    []Shard
	lookahead time.Duration
	workers   int

	outbox [][]xev  // per source shard, filled during an epoch
	inbox  [][]xev  // per destination shard, sorted by xevLess
	seq    []uint64 // per-source post counter

	now    sim.Time
	curEnd sim.Time

	// st is the epoch loop's own account (epochs, exchanged events,
	// barrier and solo counts), kept whether profiling is on or not.
	st enginestat.EngineStat

	// Persistent helper pool, started lazily on the first epoch that has
	// more than one busy shard. The coordinator participates in every
	// epoch itself, so the pool holds workers-1 goroutines. Awake helpers
	// spin on gen: each bump publishes one epoch (epochEnd, active, cursor
	// are written before the bump; the atomic establishes happens-before),
	// helpers claim shards through the atomic cursor and report through
	// doneN. Across Run calls helpers park on their start channel —
	// stopSpin flips them between the two states — so idle engines burn
	// nothing while in-Run epochs hand off with a single atomic store.
	start    []chan struct{}
	gen      atomic.Uint64
	doneN    atomic.Int64
	stopSpin atomic.Bool
	awake    bool    // coordinator-private: helpers are in spin state
	active   []int32 // shards with local events this epoch
	cursor   int64   // atomic work-stealing index into active
	epochEnd sim.Time

	panicMu  sync.Mutex
	panicVal any

	touched []bool // per-dst inbox dirty flags, reused across collects
	sorter  xevSorter

	// Wall-clock profiling (nil = off). Every worker charges its time
	// through its own WorkerStat, whose methods are nil-safe, so the
	// unprofiled engine runs the same loop and pays only nil checks on
	// per-epoch paths, never per event; the profiler reads clocks but
	// feeds nothing back, so a profiled run is byte-identical to an
	// unprofiled one.
	prof *enginestat.EngineProf
}

// NewEngine builds an engine over shards with the given lookahead and
// worker count (≤ 0 means GOMAXPROCS). The lookahead must be positive
// and must lower-bound every cross-shard event delay.
func NewEngine(shards []Shard, lookahead time.Duration, workers int) *Engine {
	if len(shards) == 0 {
		panic("parsim: no shards")
	}
	if lookahead <= 0 {
		panic("parsim: lookahead must be positive")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		shards:    shards,
		lookahead: lookahead,
		workers:   workers,
		outbox:    make([][]xev, len(shards)),
		inbox:     make([][]xev, len(shards)),
		seq:       make([]uint64, len(shards)),
		touched:   make([]bool, len(shards)),
		st:        enginestat.EngineStat{Workers: workers, Shards: len(shards), LookaheadNS: int64(lookahead)},
	}
}

// Port returns shard i's cross-shard send handle.
func (e *Engine) Port(i int) *Port { return &Port{e: e, src: i} }

// EnableProfiling turns on wall-clock profiling and returns the live
// recording area (idempotent: repeated calls return the same one). Must
// be called while the engine is quiescent — before the first Run or
// between Runs; the helper wake channel publishes it to the pool.
func (e *Engine) EnableProfiling() *enginestat.EngineProf {
	if e.prof == nil {
		e.prof = enginestat.NewEngineProf(e.workers, &e.st)
	}
	return e.prof
}

// Workers returns the worker count the engine executes epochs with.
func (e *Engine) Workers() int { return e.workers }

// Now returns the frontier the engine has advanced to. Individual shard
// clocks may lag it between calls; Run aligns them before returning.
func (e *Engine) Now() sim.Time { return e.now }

// Epochs returns how many epoch windows have executed.
func (e *Engine) Epochs() uint64 { return e.st.Epochs }

// Exchanged returns how many cross-shard events have crossed barriers.
func (e *Engine) Exchanged() uint64 { return e.st.Exchanged }

// Shutdown retires the persistent helper goroutines. The engine remains
// usable — the next multi-shard epoch restarts the pool — but callers
// that are done with the engine should Shutdown so idle helpers do not
// outlive it. Safe to call repeatedly, or without ever having run.
// Run always parks the pool before returning, so outside a Run call
// every helper is blocked on its start channel and close releases it.
func (e *Engine) Shutdown() {
	for _, c := range e.start {
		close(c)
	}
	e.start = nil
}

// nextWork returns the earliest pending activity across all shards:
// local kernel events and undelivered cross-shard arrivals.
func (e *Engine) nextWork() (sim.Time, bool) {
	var best sim.Time
	found := false
	note := func(t sim.Time) {
		if !found || t < best {
			best, found = t, true
		}
	}
	for i, s := range e.shards {
		if t, ok := s.Kernel().NextEvent(); ok {
			note(t)
		}
		if len(e.inbox[i]) > 0 {
			note(e.inbox[i][0].at)
		}
	}
	return best, found
}

// deliver schedules shard i's due inbox events (time < end) into its
// kernel, in (time, src, seq) order, and compacts the inbox in place.
func (e *Engine) deliver(i int, end sim.Time) {
	in := e.inbox[i]
	n := 0
	for n < len(in) && in[n].at < end {
		n++
	}
	if n == 0 {
		return
	}
	k := e.shards[i].Kernel()
	for j := 0; j < n; j++ {
		k.At(in[j].at, in[j].fn)
	}
	m := copy(in, in[n:])
	for j := m; j < len(in); j++ {
		in[j] = xev{} // drop closure refs in the vacated tail
	}
	e.inbox[i] = in[:m]
}

// ensureWorkers lazily starts the persistent pool. The coordinator is a
// full epoch participant, so only workers-1 helpers are needed, further
// capped at GOMAXPROCS-1 and shards-1: helpers beyond the cores that can
// run them (or the shards there are to claim) would only add per-epoch
// signalling cost, and the worker count never affects results — only
// wall-clock time.
func (e *Engine) ensureWorkers() {
	if e.start != nil {
		return
	}
	n := e.workers - 1
	if m := len(e.shards) - 1; n > m {
		n = m
	}
	if p := runtime.GOMAXPROCS(0) - 1; n > p {
		n = p
	}
	if n < 0 {
		n = 0
	}
	e.start = make([]chan struct{}, n)
	for g := 0; g < n; g++ {
		e.start[g] = make(chan struct{}, 1)
		go e.workerLoop(g)
	}
}

// spinYield bounds how hot a helper spins between epochs: every
// spinYield empty polls it yields the processor, so a helper waiting out
// a long inline (solo-shard) stretch never starves the coordinator.
const spinYield = 64

// workerLoop is one persistent helper. Parked state: blocked on the
// start channel (a token wakes it into spin state; close retires it).
// Spin state: poll gen, and on each bump claim busy shards off the
// shared cursor and report through doneN; when stopSpin is raised, ack
// through doneN and park again.
func (e *Engine) workerLoop(id int) {
	var lastGen uint64
	for range e.start[id] {
		// The wake token publishes e.prof (written while the helper was
		// parked): the channel send/receive is the happens-before edge. In
		// the other direction every stat write below is sequenced before a
		// doneN.Add, and the coordinator reads stats only after observing
		// the matching doneN — so the records are race-free by protocol.
		ws := e.prof.Worker(id + 1)
		ws.Wake()
		for spins := 0; ; {
			if e.stopSpin.Load() {
				ws.Park(enginestat.Stall)
				e.doneN.Add(1)
				break
			}
			if g := e.gen.Load(); g != lastGen {
				lastGen = g
				ws.Charge(enginestat.Stall)
				e.claimShards(ws)
				e.doneN.Add(1)
				spins = 0
				continue
			}
			if spins++; spins%spinYield == 0 {
				runtime.Gosched()
			}
		}
	}
}

// wakeWorkers moves every helper from parked to spin state. Called on
// the first barrier epoch of a Run; no-op while already awake.
func (e *Engine) wakeWorkers() {
	if e.awake {
		return
	}
	e.ensureWorkers()
	e.stopSpin.Store(false)
	e.doneN.Store(0)
	for _, c := range e.start {
		c <- struct{}{}
	}
	e.awake = true
}

// parkWorkers returns every helper to its start channel and waits for
// the acks, so that after it returns no helper touches engine state —
// Shutdown may close the channels, and an idle engine burns no CPU.
// Only called between epochs, when every helper is spinning idle.
func (e *Engine) parkWorkers() {
	if !e.awake {
		return
	}
	e.doneN.Store(0)
	e.stopSpin.Store(true)
	for e.doneN.Load() != int64(len(e.start)) {
		runtime.Gosched()
	}
	e.awake = false
}

// claimShards runs claimed shards to the published epoch end. A panic in
// shard code is captured (first wins) and re-raised by the coordinator
// after the barrier; the panicking worker stops claiming, the rest of
// the epoch's shards drain onto its peers.
//
// ws is the claiming worker's own record (nil when profiling is off):
// each iteration charges the cursor claim and its bookkeeping to Steal
// and the kernel window to Busy.
func (e *Engine) claimShards(ws *enginestat.WorkerStat) {
	defer func() {
		if r := recover(); r != nil {
			e.panicMu.Lock()
			if e.panicVal == nil {
				e.panicVal = r
			}
			e.panicMu.Unlock()
			ws.Charge(enginestat.Busy)
		}
	}()
	end := e.epochEnd
	for {
		i := int(atomic.AddInt64(&e.cursor, 1))
		if i >= len(e.active) {
			ws.Charge(enginestat.Steal)
			return
		}
		k := e.shards[e.active[i]].Kernel()
		ex0 := k.Executed()
		ws.Charge(enginestat.Steal)
		k.RunBefore(end)
		ws.Ran(k.Executed() - ex0)
	}
}

// runEpoch advances every shard kernel to end. Shards with no local
// events only need their clock aligned — done inline, off the helpers'
// plate. The busy shards are distributed over the coordinator plus the
// spinning helper pool by work stealing; with one busy shard (or one
// worker) the barrier is skipped entirely. The final state does not
// depend on the distribution: shards share no mutable state during an
// epoch, and everything they exchange goes through the sorted outbox
// merge afterwards.
func (e *Engine) runEpoch(end sim.Time) {
	e.active = e.active[:0]
	for i, s := range e.shards {
		if t, ok := s.Kernel().NextEvent(); ok && t < end {
			e.active = append(e.active, int32(i))
		} else {
			s.Kernel().RunBefore(end) // clock alignment only
		}
	}
	if len(e.active) > 1 {
		// Multi-shard epochs measure available parallelism regardless
		// of whether a helper pool actually ran them.
		e.st.BarrierEpochs++
		e.st.ActiveShardSum += uint64(len(e.active))
	}
	w0 := e.prof.Worker(0)
	w0.Charge(enginestat.Exchange) // busy scan + idle clock alignment
	if len(e.active) <= 1 || e.workers <= 1 {
		for _, i := range e.active {
			k := e.shards[i].Kernel()
			ex0 := k.Executed()
			k.RunBefore(end)
			w0.Ran(k.Executed() - ex0)
		}
		return
	}
	e.wakeWorkers()
	e.epochEnd = end
	atomic.StoreInt64(&e.cursor, -1)
	e.doneN.Store(0)
	e.gen.Add(1) // publish the epoch to the spinning helpers
	// Wake and epoch-publish overhead lands in the first steal segment.
	e.claimShards(w0)
	for e.doneN.Load() != int64(len(e.start)) {
		runtime.Gosched()
	}
	w0.Charge(enginestat.Stall)
	if e.panicVal != nil {
		p := e.panicVal
		e.panicVal = nil
		panic(p) // Run's deferred parkWorkers quiesces the helpers
	}
}

// collect moves every outbox event posted during the epoch into its
// destination inbox and restores the inbox sort order. All buffers are
// reused; steady-state exchange allocates nothing.
func (e *Engine) collect() {
	dirty := false
	for src := range e.outbox {
		out := e.outbox[src]
		for j, ev := range out {
			e.inbox[ev.dst] = append(e.inbox[ev.dst], ev)
			e.touched[ev.dst] = true
			dirty = true
			e.st.Exchanged++
			out[j].fn = nil // inbox owns the closure now
		}
		e.outbox[src] = out[:0]
	}
	if !dirty {
		return
	}
	for dst := range e.touched {
		if !e.touched[dst] {
			continue
		}
		e.touched[dst] = false
		e.sorter.s = e.inbox[dst]
		sort.Sort(&e.sorter)
		e.sorter.s = nil
	}
}

// soloShard reports whether exactly one shard has pending work before
// until and nothing is in flight between shards — the state where epoch
// barriers buy nothing.
func (e *Engine) soloShard(until sim.Time) (int, bool) {
	busy := -1
	for i, s := range e.shards {
		if len(e.inbox[i]) > 0 {
			return 0, false
		}
		// A stopped kernel still reports its pending events; it can make
		// no progress, so it must not be picked (the epoch loop skips it
		// window by window instead).
		if s.Kernel().Stopped() {
			continue
		}
		if t, ok := s.Kernel().NextEvent(); ok && t < until {
			if busy >= 0 {
				return 0, false
			}
			busy = i
		}
	}
	return busy, busy >= 0
}

// soloRun batches epoch windows for a lone busy shard: run it inline,
// event by event, until it either drains (or reaches until) or posts a
// cross-shard event. The first post re-establishes a real barrier —
// another shard has work from then on — so control returns to the epoch
// loop. The conservative bound is kept per event: an event executing at
// t may only post at ≥ t+lookahead, so curEnd advances with the clock.
// Each window of this batch would have run the same events in the same
// order under the barrier protocol; only the barrier count changes.
func (e *Engine) soloRun(i int, until sim.Time) {
	k := e.shards[i].Kernel()
	out := &e.outbox[i]
	for len(*out) == 0 && !k.Stopped() {
		t, ok := k.NextEvent()
		if !ok || t >= until {
			break
		}
		e.curEnd = t.Add(e.lookahead)
		if !k.Step() {
			break
		}
	}
	if now := k.Now(); now > e.now {
		e.now = now
	}
	e.st.Epochs++
}

// Run executes all shards up to (but excluding) time until, then aligns
// every shard clock to until. Epoch windows start at the earliest pending
// work — idle stretches are skipped in one jump, so the epoch count
// scales with event density, not simulated duration — and stretches with
// a single busy shard bypass the barrier protocol entirely.
func (e *Engine) Run(until sim.Time) {
	// The coordinator's account closes after the helpers have parked
	// (deferred first, so it runs last): by then every helper has written
	// its record and acked through doneN, so the run's totals are
	// complete. The final alignment and the park wait land in StallNS.
	w0 := e.prof.Worker(0)
	w0.Wake()
	defer func() { e.st.RunWallNS += w0.Park(enginestat.Stall) }()
	// Helpers must be parked whenever control is outside Run — on normal
	// return and when a panic (lookahead violation, shard code) unwinds —
	// so Shutdown can retire them and idle engines burn no CPU.
	defer e.parkWorkers()
	for e.now < until {
		if i, ok := e.soloShard(until); ok {
			w0.Charge(enginestat.Exchange) // the solo scan
			k := e.shards[i].Kernel()
			ex0 := k.Executed()
			e.soloRun(i, until)
			w0.Ran(k.Executed() - ex0)
			e.st.SoloBatches++
			e.collect()
			w0.Charge(enginestat.Exchange)
			continue
		}
		start, ok := e.nextWork()
		if !ok || start >= until {
			break
		}
		if start < e.now {
			start = e.now
		}
		end := start.Add(e.lookahead)
		if end > until {
			end = until
		}
		e.curEnd = end
		for i := range e.shards {
			e.deliver(i, end)
		}
		e.st.WindowNS += int64(end.Sub(start))
		e.runEpoch(end)
		e.collect()
		w0.Charge(enginestat.Exchange)
		e.now = end
		e.st.Epochs++
	}
	// Align clocks on the frontier: no events remain before until.
	e.curEnd = until
	e.runEpoch(until)
	e.now = until
}

// RunFor advances the engine by duration d.
func (e *Engine) RunFor(d time.Duration) { e.Run(e.now.Add(d)) }
