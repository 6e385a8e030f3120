package sim

import (
	"fmt"
	"time"
)

// Resource models a serialized hardware unit — a processor, a DMA engine, a
// bus — as a FIFO single-server queue. Work items are submitted with a
// service time; the resource executes them one at a time in submission
// order and invokes each item's completion callback when its service time
// has elapsed.
//
// Resource accumulates busy time, so utilization can be reported after a
// run. In steady state submitting and completing work allocates nothing:
// waiting items sit in a head-indexed slice that is compacted in place,
// and completions are scheduled through one callback bound at
// construction.
type Resource struct {
	k    *Kernel
	name string

	busy bool
	// queue[head:] are the waiting items. The consumed prefix is
	// reclaimed once it reaches half the slice, so a resource that never
	// drains still keeps bounded memory.
	queue     []resWork
	head      int
	cur       resWork // the item in service
	finish    func()  // r.complete, bound once
	busyNS    time.Duration
	served    uint64
	lastStart Time
}

type resWork struct {
	service time.Duration
	done    func()
}

// NewResource returns an idle resource attached to kernel k.
func NewResource(k *Kernel, name string) *Resource {
	r := &Resource{k: k, name: name}
	r.finish = r.complete
	return r
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Submit enqueues a work item requiring the given service time. done runs
// (in event context) when the item completes. done may be nil.
func (r *Resource) Submit(service time.Duration, done func()) {
	if service < 0 {
		panic(fmt.Sprintf("sim: resource %s: negative service time %v", r.name, service))
	}
	w := resWork{service: service, done: done}
	if r.busy {
		r.queue = append(r.queue, w)
		return
	}
	r.start(w)
}

// SubmitBytes enqueues a transfer of n bytes at rate bytes/sec plus a fixed
// setup time; a convenience for modeling DMA engines and buses.
func (r *Resource) SubmitBytes(n int, rate float64, setup time.Duration, done func()) {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: resource %s: non-positive rate %v", r.name, rate))
	}
	xfer := time.Duration(float64(n) / rate * 1e9)
	r.Submit(setup+xfer, done)
}

func (r *Resource) start(w resWork) {
	r.busy = true
	r.cur = w
	r.lastStart = r.k.Now()
	r.k.After(w.service, r.finish)
}

// complete finishes the item in service and starts the next waiting one.
// The resource stays busy while done runs, so work submitted from done
// queues behind items already waiting.
func (r *Resource) complete() {
	w := r.cur
	r.cur = resWork{}
	r.busyNS += w.service
	r.served++
	if w.done != nil {
		w.done()
	}
	if r.head == len(r.queue) {
		r.busy = false
		return
	}
	next := r.queue[r.head]
	r.head++
	if 2*r.head >= len(r.queue) {
		n := copy(r.queue, r.queue[r.head:])
		clear(r.queue[n:])
		r.queue, r.head = r.queue[:n], 0
	}
	r.start(next)
}

// Busy reports whether the resource is currently serving an item.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen returns the number of items waiting (not including the one in
// service).
func (r *Resource) QueueLen() int { return len(r.queue) - r.head }

// Served returns the number of completed work items.
func (r *Resource) Served() uint64 { return r.served }

// BusyTime returns the total time the resource has spent serving items.
func (r *Resource) BusyTime() time.Duration { return r.busyNS }

// Utilization returns the fraction of simulated time the resource was busy,
// over the window from simulation start to now.
func (r *Resource) Utilization() float64 {
	now := r.k.Now()
	if now == 0 {
		return 0
	}
	return float64(r.busyNS) / float64(now)
}
