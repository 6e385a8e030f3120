package main

import (
	"runtime"
	"time"
)

// The benchmark shares its machine with other tenants, and their load
// slows everything it runs: briefly (a descheduled thread) or for tens of
// seconds at a time (a contended core or memory system). Allocation- and
// cache-heavy code, which the simulator is, slows the most. Two defences
// follow from that:
//
//   - every cell phase is repeated in every pass, and the benchmark keeps
//     the lower quartile of each phase's times, which drops bursts;
//   - each pass also runs the reference loop below a few times, and the
//     pass's times are scaled by refNominal over the fastest of those,
//     which cancels a slowdown lasting the whole pass.
//
// The loop imitates the simulator's mix with code of its own, so no change
// to the repository can change its speed: an event heap, an indirect call
// per event, a write of a fresh record per event, a map update per event,
// and a goroutine handoff every eighth event. The records stream through
// a fixed arena rather than the Go heap, the map never grows, and the
// loop runs on one P, so neither the workload's threads nor its heap can
// change the loop's cost much.

// refNominal is the reference loop's duration on an idle 2-core
// Intel Xeon (2.1 GHz) VM; normalized times are seconds on that machine.
const refNominal = 9 * time.Millisecond

const refEvents = 55000

type refEvent struct {
	at int64
	id uint32
}

// refObj is one arena record, the size of a small simulator object.
type refObj struct {
	id   uint32
	at   int64
	next int32
	pad  [4]uint64
}

// refArena is the reference loop's private record store: about 4 MB,
// larger than a core's own caches, written sequentially the way fresh
// allocations are and read back at random.
var refArena = make([]refObj, 1<<16)

// refCursor rotates the arena region each run writes.
var refCursor int

// refSink keeps the loop's result live so the compiler cannot drop it.
var refSink uint32

// reference runs the loop on one P, whatever the workload's GOMAXPROCS,
// and returns its duration.
func reference() time.Duration {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	refLoop(refEvents / 8) // untimed: bring the arena back into cache after the workload
	t0 := time.Now()
	refLoop(refEvents)
	return time.Since(t0)
}

func refLoop(events int) {
	ping, pong := make(chan uint32), make(chan uint32)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	heap := make([]refEvent, 0, 256)
	push := func(e refEvent) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() refEvent {
		top := heap[0]
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < n && heap[l].at < heap[m].at {
				m = l
			}
			if l+1 < n && heap[l+1].at < heap[m].at {
				m = l + 1
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}
	state := make(map[uint32]uint32, 4096)
	for k := uint32(0); k < 4096; k++ {
		state[k] = 0
	}
	var acc uint32
	handlers := [4]func(e refEvent){
		func(e refEvent) { acc += e.id },
		func(e refEvent) { acc ^= e.id << 3 },
		func(e refEvent) { acc -= e.id >> 1 },
		func(e refEvent) { acc += uint32(e.at) },
	}
	for i := uint32(0); i < 64; i++ {
		push(refEvent{at: int64(i), id: i})
	}
	for done := 0; done < events; done++ {
		e := pop()
		handlers[e.id&3](e)
		slot := (refCursor + done) % len(refArena)
		refArena[slot] = refObj{id: e.id, at: e.at, next: int32(e.id % uint32(len(refArena)))}
		acc += refArena[refArena[slot].next].id
		state[e.id%4096] += acc
		if done%8 == 0 {
			ping <- acc
			acc = <-pong
		}
		push(refEvent{at: e.at + int64(e.id%97) + 1, id: e.id*31 + 7})
	}
	close(ping)
	for range pong {
	}
	refCursor += events
	refSink = acc
}
