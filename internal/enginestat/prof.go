package enginestat

// EngineProf is the live recording area a profiled engine writes into:
// one WorkerStat per worker, beside the engine-level totals the engine
// keeps itself. Ownership discipline makes it race-free without locks:
// worker i writes only Worker(i) while it is running an epoch, the
// engine totals are coordinator-only, and readers take a Snapshot only
// after the engine has quiesced (every helper write is sequenced before
// its barrier ack, which the coordinator observes before returning from
// Run).
type EngineProf struct {
	engine  *EngineStat
	workers []WorkerStat
}

// NewEngineProf sizes a recording area for the given worker count
// (worker 0 is the coordinator) over the engine's own totals. Slots for
// helpers that never run — the engine caps its pool at GOMAXPROCS and
// shard count — simply stay zero.
func NewEngineProf(workers int, engine *EngineStat) *EngineProf {
	if workers < 1 {
		workers = 1
	}
	p := &EngineProf{engine: engine, workers: make([]WorkerStat, workers)}
	for i := range p.workers {
		p.workers[i].Worker = i
	}
	return p
}

// Worker returns worker i's stat record, owned by that worker while the
// engine runs; nil when p is nil (profiling off), which every WorkerStat
// method accepts.
func (p *EngineProf) Worker(i int) *WorkerStat {
	if p == nil {
		return nil
	}
	return &p.workers[i]
}

// Snapshot copies the recorded stats into a standalone Profile. Only
// valid while the engine is quiescent (between Run calls).
func (p *EngineProf) Snapshot() *Profile {
	return &Profile{Engine: *p.engine, Workers: append([]WorkerStat(nil), p.workers...)}
}
