package parsim

import (
	"fmt"
	"testing"
	"time"

	"sanft/internal/sim"
)

// toyShard is a minimal logical process: it records every message it
// receives, does some local RNG-driven work, and forwards tokens to a
// peer with at least the lookahead of delay.
type toyShard struct {
	id   int
	k    *sim.Kernel
	port *Port
	log  []string
}

func (s *toyShard) Kernel() *sim.Kernel { return s.k }

const toyLookahead = 100 * time.Nanosecond

// buildToyRing wires n toy shards in a ring: each token bounces around,
// gaining a hop count, with an RNG-chosen extra delay on top of the
// minimum. Returns the shards and the engine.
func buildToyRing(n, workers int, rootSeed int64, tokens int) ([]*toyShard, *Engine) {
	shards := make([]*toyShard, n)
	ishards := make([]Shard, n)
	for i := range shards {
		shards[i] = &toyShard{id: i, k: sim.New(ShardSeed(rootSeed, i))}
		ishards[i] = shards[i]
	}
	e := NewEngine(ishards, toyLookahead, workers)
	var hop func(s *toyShard, token, hops int)
	hop = func(s *toyShard, token, hops int) {
		s.log = append(s.log, fmt.Sprintf("t=%d token=%d hops=%d", s.k.Now(), token, hops))
		if hops >= 12 {
			return
		}
		// Local work: burn events and RNG between hops.
		jitter := time.Duration(s.k.Rand().Intn(300)) * time.Nanosecond
		s.k.After(jitter, func() {
			next := (s.id + 1) % n
			at := s.k.Now().Add(toyLookahead + time.Duration(s.k.Rand().Intn(50))*time.Nanosecond)
			s.port.Send(at, next, sim.HandlerFunc(func(any) { hop(shards[next], token, hops+1) }), nil)
		})
	}
	for i := range shards {
		s := shards[i]
		s.port = e.Port(i)
		for tk := 0; tk < tokens; tk++ {
			token := i*100 + tk
			start := time.Duration(tk) * 77 * time.Nanosecond
			s.k.After(start, func() { hop(s, token, 0) })
		}
	}
	return shards, e
}

// toyDump renders the full observable state of a toy run.
func toyDump(n, workers int, rootSeed int64) string {
	shards, e := buildToyRing(n, workers, rootSeed, 3)
	e.Run(sim.Time(0).Add(time.Millisecond))
	out := ""
	for _, s := range shards {
		out += fmt.Sprintf("shard %d clock=%d rand=%d\n", s.id, s.k.Now(), s.k.Rand().Int63())
		for _, l := range s.log {
			out += "  " + l + "\n"
		}
	}
	out += fmt.Sprintf("epochs>0=%v exchanged=%d\n", e.Epochs() > 0, e.Exchanged())
	return out
}

// TestEngineWorkerCountInvariance is the package-level determinism core:
// the same partition must produce byte-identical state for any worker
// count, including the cross-shard event count and every shard's RNG
// stream position.
func TestEngineWorkerCountInvariance(t *testing.T) {
	base := toyDump(5, 1, 42)
	if len(base) == 0 {
		t.Fatal("empty dump")
	}
	for _, w := range []int{2, 4, 8} {
		if got := toyDump(5, w, 42); got != base {
			t.Fatalf("workers=%d diverged from workers=1:\nbase:\n%s\ngot:\n%s", w, base, got)
		}
	}
	// And re-running with the same worker count is stable too.
	if got := toyDump(5, 4, 42); got != base {
		t.Fatal("repeat run with workers=4 diverged")
	}
	if toyDump(5, 1, 43) == base {
		t.Fatal("different seed produced identical dump; toy model is not exercising the RNG")
	}
}

// TestEngineExchangesEvents sanity-checks that the toy actually crosses
// shard boundaries (otherwise the invariance test proves nothing).
func TestEngineExchangesEvents(t *testing.T) {
	shards, e := buildToyRing(4, 2, 7, 2)
	e.Run(sim.Time(0).Add(time.Millisecond))
	if e.Exchanged() == 0 {
		t.Fatal("no cross-shard events exchanged")
	}
	if e.Epochs() == 0 {
		t.Fatal("no epochs executed")
	}
	total := 0
	for _, s := range shards {
		total += len(s.log)
	}
	// 4 shards × 2 tokens, each making 13 log entries (hops 0..12).
	if want := 4 * 2 * 13; total != want {
		t.Fatalf("logged %d hops, want %d", total, want)
	}
	if e.Now() != sim.Time(0).Add(time.Millisecond) {
		t.Fatalf("engine frontier %v, want 1ms", e.Now())
	}
	for _, s := range shards {
		if s.k.Now() != e.Now() {
			t.Fatalf("shard %d clock %v not aligned with frontier %v", s.id, s.k.Now(), e.Now())
		}
	}
}

// TestLookaheadViolationPanics: posting a cross-shard event inside the
// current epoch must panic loudly rather than silently corrupt causality.
func TestLookaheadViolationPanics(t *testing.T) {
	a := &toyShard{id: 0, k: sim.New(1)}
	b := &toyShard{id: 1, k: sim.New(2)}
	e := NewEngine([]Shard{a, b}, toyLookahead, 1)
	port := e.Port(0)
	a.k.After(10*time.Nanosecond, func() {
		// Arrival inside the epoch [10ns-window): lookahead violation.
		port.Send(a.k.Now(), 1, sim.HandlerFunc(func(any) {}), nil)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected lookahead-violation panic")
		}
	}()
	e.Run(sim.Time(0).Add(time.Microsecond))
}

// TestPortSendAllocs: a cross-shard event carries a handler bound once
// and its argument, as the shard-boundary hook posts a packet to the
// destination pipe's arrival handler, so posting one, exchanging it at
// the barrier and firing it on the destination kernel allocate nothing
// once the exchange buffers are warm. (Before: the hook posted a closure
// per packet.)
func TestPortSendAllocs(t *testing.T) {
	a := &toyShard{id: 0, k: sim.New(1)}
	b := &toyShard{id: 1, k: sim.New(2)}
	e := NewEngine([]Shard{a, b}, toyLookahead, 1)
	port := e.Port(0)
	type token struct{ hops int }
	tok := &token{}
	var got *token
	arrived := sim.HandlerFunc(func(arg any) { got = arg.(*token) })
	post := sim.HandlerFunc(func(arg any) {
		port.Send(a.k.Now().Add(toyLookahead), 1, arrived, arg)
	})
	cycle := func() {
		got = nil
		a.k.AtHandler(e.Now().Add(time.Nanosecond), post, tok)
		e.Run(e.Now().Add(4 * toyLookahead))
		if got != tok {
			t.Fatal("the posted event did not fire with its argument on the destination shard")
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("a posted cross-shard event allocates %.2f times, want 0", avg)
	}
}

// TestEngineIdleSkip: an engine whose only events are sparse must not
// execute epochs proportional to simulated time.
func TestEngineIdleSkip(t *testing.T) {
	s := &toyShard{id: 0, k: sim.New(1)}
	e := NewEngine([]Shard{s}, toyLookahead, 1)
	fired := 0
	for i := 0; i < 10; i++ {
		s.k.After(time.Duration(i)*time.Millisecond, func() { fired++ })
	}
	e.Run(sim.Time(0).Add(20 * time.Millisecond))
	if fired != 10 {
		t.Fatalf("fired %d of 10 events", fired)
	}
	// 20ms / 100ns lookahead would be 200k windows if idle time were
	// walked; event-driven skipping needs ~one window per event.
	if e.Epochs() > 100 {
		t.Fatalf("executed %d epochs for 10 sparse events; idle skipping is broken", e.Epochs())
	}
}

func TestPoolDeterministicGather(t *testing.T) {
	job := func(i int) string {
		// Deterministic per-index work with its own seeded RNG.
		k := sim.New(ShardSeed(99, i))
		return fmt.Sprintf("replica %d -> %d", i, k.Rand().Int63())
	}
	base := Map(Pool{Workers: 1}, 50, job)
	for _, w := range []int{2, 4, 16} {
		got := Map(Pool{Workers: w}, 50, job)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d replica %d: %q != %q", w, i, got[i], base[i])
			}
		}
	}
	if empty := Map(Pool{Workers: 3}, 0, job); len(empty) != 0 {
		t.Fatal("n=0 must return empty")
	}
}

func TestPoolPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate from pool worker")
		}
	}()
	Pool{Workers: 4}.Do(8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}
