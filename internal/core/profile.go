package core

import "sanft/internal/enginestat"

// EngineProfile returns the profiler's collected state, or nil when the
// cluster was built without Config.Profile: per-cell kernel counters,
// plus, on a plan of several cells, the epoch loop's totals and
// per-worker wall-clock accounts (the one-cell plan has no epoch loop to
// account). The profiler is a pure observer — it feeds nothing back into
// simulation state, so enabling it never changes results. Call while the
// cluster is quiescent — between RunFor calls or after Stop.
func (c *Cluster) EngineProfile() *enginestat.Profile {
	if !c.cfg.Profile {
		return nil
	}
	p := &enginestat.Profile{Engine: enginestat.EngineStat{Workers: 1, Shards: 1}}
	if c.prof != nil {
		p = c.prof.Snapshot()
	}
	for i, cl := range c.cells {
		ks := cl.k.Stats()
		p.Kernels = append(p.Kernels, enginestat.KernelStat{
			Shard:          i,
			Scheduled:      ks.Scheduled,
			Heaped:         ks.Heaped,
			Cancelled:      ks.Cancelled,
			Executed:       ks.Executed,
			Pending:        ks.Pending,
			ArenaHighWater: ks.ArenaHighWater,
			Switches:       ks.Switches,
		})
	}
	return p
}
