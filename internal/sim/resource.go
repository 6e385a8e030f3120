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
// waiting items sit in a Queue, completions are scheduled with the
// resource itself as their handler, and SubmitHandler takes a bound
// handler instead of a closure.
type Resource struct {
	k    *Kernel
	name string

	busy   bool
	queue  Queue[resWork]
	cur    resWork // the item in service
	busyNS time.Duration
	served uint64
}

// resourceDone is a Resource seen as the Handler of its completions.
type resourceDone Resource

func (d *resourceDone) Fire(any) { (*Resource)(d).complete() }

// resWork is one item: its service time and the h.Fire(arg) completion
// (h nil for none).
type resWork struct {
	service time.Duration
	h       Handler
	arg     any
}

// NewResource returns an idle resource attached to kernel k.
func NewResource(k *Kernel, name string) *Resource {
	return &Resource{k: k, name: name}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Submit enqueues a work item requiring the given service time. done runs
// (in event context) when the item completes. done may be nil.
func (r *Resource) Submit(service time.Duration, done func()) {
	var h Handler
	if done != nil {
		h = thunk(done)
	}
	r.SubmitHandler(service, h, nil)
}

// SubmitHandler is Submit with a bound handler: h.Fire(arg) runs when the
// item completes (h may be nil). It is the allocation-free entry point
// for per-packet firmware and DMA work.
func (r *Resource) SubmitHandler(service time.Duration, h Handler, arg any) {
	if service < 0 {
		panic(fmt.Sprintf("sim: resource %s: negative service time %v", r.name, service))
	}
	w := resWork{service: service, h: h, arg: arg}
	if r.busy {
		r.queue.Push(w)
		return
	}
	r.start(w)
}

// SubmitBytes enqueues a transfer of n bytes at rate bytes/sec plus a fixed
// setup time; a convenience for modeling DMA engines and buses.
func (r *Resource) SubmitBytes(n int, rate float64, setup time.Duration, done func()) {
	r.Submit(r.TransferTime(n, rate, setup), done)
}

// TransferTime is the service time SubmitBytes charges for n bytes at rate
// bytes/sec plus a fixed setup time, for callers that submit the transfer
// through SubmitHandler.
func (r *Resource) TransferTime(n int, rate float64, setup time.Duration) time.Duration {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: resource %s: non-positive rate %v", r.name, rate))
	}
	return setup + time.Duration(float64(n)/rate*1e9)
}

func (r *Resource) start(w resWork) {
	r.busy = true
	r.cur = w
	r.k.AtHandler(r.k.Now().Add(w.service), (*resourceDone)(r), nil)
}

// StartAsOf puts an item into service on an idle resource as if it had
// been submitted at instant begin, at or before now: it completes at
// begin+service, where Kernel.AtAsOf(begin+service, begin, key) puts the
// completion. A periodic job that starts on an idle resource at its own
// instant submits this way, so its completion runs where it would run
// however late the job is put into service. It panics on a busy resource.
func (r *Resource) StartAsOf(begin Time, service time.Duration, key uint64, h Handler, arg any) {
	if r.busy {
		panic(fmt.Sprintf("sim: resource %s: StartAsOf while busy", r.name))
	}
	if service < 0 {
		panic(fmt.Sprintf("sim: resource %s: negative service time %v", r.name, service))
	}
	r.busy = true
	r.cur = resWork{service: service, h: h, arg: arg}
	r.k.AtAsOf(begin.Add(service), begin, key, (*resourceDone)(r), nil)
}

// complete finishes the item in service and starts the next waiting one.
// The resource stays busy while done runs, so work submitted from done
// queues behind items already waiting.
func (r *Resource) complete() {
	w := r.cur
	r.cur = resWork{}
	r.busyNS += w.service
	r.served++
	if w.h != nil {
		w.h.Fire(w.arg)
	}
	if r.queue.Len() == 0 {
		r.busy = false
		return
	}
	r.start(r.queue.Pop())
}

// Busy reports whether the resource is currently serving an item.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen returns the number of items waiting (not including the one in
// service).
func (r *Resource) QueueLen() int { return r.queue.Len() }

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
