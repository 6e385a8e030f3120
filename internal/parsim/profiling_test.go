package parsim

import (
	"runtime"
	"testing"
	"time"

	"sanft/internal/enginestat"
	"sanft/internal/sim"
)

// profiledToyDump is toyDump with the profiler armed: the dump must be
// byte-identical to the unprofiled one (profiling only reads wall clocks)
// and the collected profile must be internally consistent.
func profiledToyDump(n, workers int, rootSeed int64) (string, *enginestat.Profile) {
	shards, e := buildToyRing(n, workers, rootSeed, 3)
	prof := e.EnableProfiling()
	e.Run(sim.Time(0).Add(time.Millisecond))
	out := ""
	for _, s := range shards {
		out += "shard " + s.log[0] + "\n" // prefix keeps dumps comparable below
	}
	return out, prof.Snapshot()
}

// TestProfilingPreservesDeterminism: enabling the profiler must not
// change any observable output, for any worker count, and the profiled
// dumps must agree across worker counts too.
func TestProfilingPreservesDeterminism(t *testing.T) {
	plain := func(n, workers int, rootSeed int64) string {
		shards, e := buildToyRing(n, workers, rootSeed, 3)
		e.Run(sim.Time(0).Add(time.Millisecond))
		out := ""
		for _, s := range shards {
			out += "shard " + s.log[0] + "\n"
		}
		return out
	}
	base := plain(5, 1, 42)
	for _, w := range []int{1, 2, 4} {
		got, _ := profiledToyDump(5, w, 42)
		if got != base {
			t.Fatalf("profiled dump (workers=%d) diverged from unprofiled baseline", w)
		}
	}
}

// TestProfileCollection checks the collected numbers against the engine's
// own counters: epochs and exchanged totals match, per-worker events sum
// to the kernels' executed totals, and the coordinator recorded wall
// clock.
func TestProfileCollection(t *testing.T) {
	shards, e := buildToyRing(5, 2, 42, 3)
	prof := e.EnableProfiling()
	e.Run(sim.Time(0).Add(time.Millisecond))
	p := prof.Snapshot()

	if p.Engine.Epochs != e.Epochs() {
		t.Fatalf("profile epochs %d != engine epochs %d", p.Engine.Epochs, e.Epochs())
	}
	if p.Engine.Exchanged != e.Exchanged() {
		t.Fatalf("profile exchanged %d != engine %d", p.Engine.Exchanged, e.Exchanged())
	}
	if p.Engine.Shards != 5 || p.Engine.Workers != 2 {
		t.Fatalf("engine shape: %+v", p.Engine)
	}
	if p.Engine.RunWallNS <= 0 {
		t.Fatal("no run wall-clock recorded")
	}

	var kernelEvents uint64
	for _, s := range shards {
		kernelEvents += s.k.Executed()
	}
	workerEvents := enginestat.MergeWorkers(p.Workers).Events
	if workerEvents != kernelEvents {
		t.Fatalf("worker events %d != kernel executed %d", workerEvents, kernelEvents)
	}

	w0 := &p.Workers[0]
	if w0.BusyNS <= 0 || w0.AwakeNS <= 0 || w0.Claims == 0 {
		t.Fatalf("coordinator account empty: %+v", w0)
	}

	// Second run through the same engine accumulates (profiles are
	// per-engine, not per-Run).
	e.Run(sim.Time(0).Add(2 * time.Millisecond))
	p2 := prof.Snapshot()
	if p2.Engine.RunWallNS <= p.Engine.RunWallNS {
		t.Fatal("second Run did not accumulate wall-clock")
	}
}

// TestProfilingIdempotent: EnableProfiling returns the same collector on
// repeat calls.
func TestProfilingIdempotent(t *testing.T) {
	_, e := buildToyRing(3, 2, 7, 1)
	a, b := e.EnableProfiling(), e.EnableProfiling()
	if a != b {
		t.Fatal("EnableProfiling returned a different collector on second call")
	}
}

// TestPoolProgress: the pool's progress tracker counts jobs and exposes a
// race-free snapshot usable from HTTP handlers.
func TestPoolProgress(t *testing.T) {
	prog := &Progress{}
	prog.Begin(10)
	p := Pool{Workers: 2, Progress: prog}
	p.Do(6, func(i int) { runtime.Gosched() })
	s := prog.Snapshot()
	if s.Done != 6 || s.Total != 10 {
		t.Fatalf("snapshot = %+v, want done=6 total=10", s)
	}
	if s.ElapsedMS < 0 || s.AvgJobMS < 0 || s.ETAMS < 0 {
		t.Fatalf("negative clocks: %+v", s)
	}
	// Externally timed jobs (bench sweeps) feed the same tracker.
	prog.JobDone(int64(2 * time.Millisecond))
	if got := prog.Snapshot().Done; got != 7 {
		t.Fatalf("JobDone not counted: done=%d", got)
	}
	// Begin re-arms.
	prog.Begin(3)
	if s := prog.Snapshot(); s.Done != 0 || s.Total != 3 {
		t.Fatalf("Begin did not reset: %+v", s)
	}
}
