package core

import (
	"sanft/internal/enginestat"
	"sanft/internal/fabric"
	"sanft/internal/proto"
	"sanft/internal/sim"
)

// Engine self-observability wiring: Config.Profile turns on the
// wall-clock profiler (parsim worker accounting + kernel counters + pool
// traffic). It is a pure observer — it feeds nothing back into
// simulation state, so enabling it never changes results.

// enableProfiling arms every collection point. The packet and frame free
// lists count their traffic always, process-wide (they are shared), so
// the cluster remembers a construction-time baseline and EngineProfile
// reports deltas; clusters running concurrently in one process see
// combined pool traffic.
func (c *Cluster) enableProfiling() {
	c.profiled = true
	c.poolBase = readPools()
	for _, cl := range c.cells {
		cl.k.CountKinds()
	}
	if c.eng != nil {
		c.prof = c.eng.EnableProfiling()
	}
}

func readPools() enginestat.PoolStat {
	fg, fm := proto.PoolStats()
	pg, pm := fabric.PoolStats()
	return enginestat.PoolStat{FrameGets: fg, FrameMisses: fm, PacketGets: pg, PacketMisses: pm}
}

// ProfileSpans additionally records bounded per-worker wall-clock spans
// (shard windows, solo batches, barrier stalls, exchanges) for the
// Perfetto export, capped at capPerWorker spans per worker. Call before
// the run being recorded; a plan of several cells with profiling on,
// no-op otherwise.
func (c *Cluster) ProfileSpans(capPerWorker int) {
	if c.prof != nil {
		c.prof.EnableSpans(capPerWorker)
	}
}

// EngineProfile returns the profiler's collected state, or nil when the
// cluster was built without profiling: per-cell kernel counters and pool
// traffic since construction, plus, on a plan of several cells, engine
// totals and per-worker wall-clock accounts (the one-cell plan has no
// epoch loop to account). Call while the cluster is quiescent — between
// RunFor calls or after Stop.
func (c *Cluster) EngineProfile() *enginestat.Profile {
	if !c.profiled {
		return nil
	}
	var p *enginestat.Profile
	if c.prof != nil {
		p = c.prof.Snapshot()
	} else {
		p = &enginestat.Profile{}
		p.Engine.Workers = 1
		p.Engine.Shards = 1
	}
	for i, cl := range c.cells {
		p.Kernels = append(p.Kernels, kernelStat(i, cl.k))
	}
	cur := readPools()
	p.Pools = enginestat.PoolStat{
		FrameGets:    cur.FrameGets - c.poolBase.FrameGets,
		FrameMisses:  cur.FrameMisses - c.poolBase.FrameMisses,
		PacketGets:   cur.PacketGets - c.poolBase.PacketGets,
		PacketMisses: cur.PacketMisses - c.poolBase.PacketMisses,
	}
	return p
}

func kernelStat(shard int, k *sim.Kernel) enginestat.KernelStat {
	ks := k.Stats()
	n := &ks.ByKind
	return enginestat.KernelStat{
		Shard:          shard,
		Scheduled:      ks.Scheduled,
		Heaped:         ks.Heaped,
		Cancelled:      ks.Cancelled,
		Executed:       ks.Executed,
		Pending:        ks.Pending,
		ArenaHighWater: ks.ArenaHighWater,
		Switches:       ks.Switches,
		ByKind: enginestat.EventKinds{
			Tick:     n[sim.KindTick],
			Resource: n[sim.KindResource],
			Worm:     n[sim.KindWorm],
			Wake:     n[sim.KindWake],
			Pipe:     n[sim.KindPipe],
			Other:    n[sim.KindOther],
		},
	}
}
