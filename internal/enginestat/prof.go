package enginestat

// EngineProf is the live recording area a profiled engine writes into:
// one WorkerStat (and optionally one SpanLog) per worker, plus the
// engine-level totals. Ownership discipline makes it race-free without
// locks: worker i writes only Worker(i)/Spans(i) while it is running an
// epoch, the engine-level fields are coordinator-only, and readers take a
// Snapshot only after the engine has quiesced (every helper write is
// sequenced before its barrier ack, which the coordinator observes
// before returning from Run).
type EngineProf struct {
	// Engine holds the epoch-loop totals; written by the coordinator only.
	Engine EngineStat

	workers []WorkerStat
	logs    []*SpanLog
}

// NewEngineProf sizes a recording area for the given worker count
// (worker 0 is the coordinator). Slots for helpers that never run — the
// engine caps its pool at GOMAXPROCS and shard count — simply stay zero.
func NewEngineProf(workers int) *EngineProf {
	if workers < 1 {
		workers = 1
	}
	p := &EngineProf{workers: make([]WorkerStat, workers)}
	for i := range p.workers {
		p.workers[i].Worker = i
	}
	return p
}

// Worker returns worker i's stat record. The record is owned by that
// worker while the engine runs.
func (p *EngineProf) Worker(i int) *WorkerStat { return &p.workers[i] }

// Spans returns worker i's span log, or nil when span recording is off
// (SpanLog.Record is nil-safe, so callers pass it through unconditionally).
func (p *EngineProf) Spans(i int) *SpanLog {
	if p.logs == nil {
		return nil
	}
	return p.logs[i]
}

// EnableSpans turns on per-worker span recording with a hard cap per
// worker (spans beyond it are dropped and counted). Call before the run
// being recorded.
func (p *EngineProf) EnableSpans(capPerWorker int) {
	p.logs = make([]*SpanLog, len(p.workers))
	for i := range p.logs {
		p.logs[i] = &SpanLog{cap: capPerWorker}
	}
}

// Snapshot copies the recorded stats into a standalone Profile. Only
// valid while the engine is quiescent (between Run calls).
func (p *EngineProf) Snapshot() *Profile {
	out := &Profile{Engine: p.Engine}
	out.Workers = append([]WorkerStat(nil), p.workers...)
	for _, lg := range p.logs {
		if lg != nil {
			out.Spans = append(out.Spans, lg.spans...)
			out.SpansDropped += lg.Dropped()
		}
	}
	return out
}
