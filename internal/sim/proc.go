package sim

import (
	"fmt"
	"time"
)

// procKilled is the panic payload used to unwind a Proc goroutine when the
// kernel shuts down. It is recovered by the Proc's exit.
type procKilled struct{}

// Proc is a simulated process: a body running on a goroutine of its own
// (a carrier, see carrier) whose execution is interleaved with the event
// loop so that exactly one piece of simulation code runs at a time. A Proc
// advances virtual time only by calling Sleep, or by blocking on a
// Gate/Mailbox until another event wakes it.
//
// A parked Proc does not yield to a kernel goroutine: under Run, RunUntil
// or RunBefore it runs the event loop itself until an event wakes it
// (it returns without a goroutine switch), an event wakes another Proc
// (one switch to that Proc's goroutine), or the window ends (one switch
// back to the caller). Under a bare Step it hands back to the caller.
type Proc struct {
	k        *Kernel
	name     string
	fn       func(p *Proc)
	resume   chan struct{} // its carrier's channel: receives the loop when an event wakes this Proc or Stop unwinds it
	started  bool
	done     bool
	timedOut bool // the last WaitTimeout ended by its timeout

	prev, next *Proc // the kernel's spawn-ordered list of live Procs
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.Now() }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Spawn starts a simulated process running fn. The process begins
// executing at the current simulated time (via an immediate event), on a
// carrier goroutine that takes it up when that event runs; fn is strictly
// serialized with all other simulation code. On a stopped kernel Spawn
// returns a Proc that is already Done and starts nothing.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	if k.stopped {
		p.done = true
		return p
	}
	p.fn = fn
	if k.home == nil {
		k.home = make(chan struct{})
	}
	k.procs.push(p)
	k.AtHandler(k.now, (*procWake)(p), nil)
	return p
}

// carrier is a goroutine that runs Proc bodies one after another, so that
// a short-lived Proc does not grow a fresh goroutine stack. When a body
// ends and the event loop its exit runs starts a new Proc, the carrier
// runs that body itself, with no goroutine switch. Otherwise it waits in
// the kernel's idle pool (at most carrierPool carriers), where handTo
// starts the next new Proc on it with one channel send, or it ends. The
// Proc it runs waits on its channel while parked.
type carrier struct {
	wake chan struct{} // the resume channel of its Proc; closed to end an idle carrier
	next *Proc         // the Proc to start, written by the loop's holder before it sends on wake
}

// carrierPool caps a kernel's idle carriers. Goroutines started per pass
// of the fattree:16 SLO grid, whose 14,880 Procs are mostly one-op stream
// senders: 14,880 with no carriers, and with a pool of 0 (direct starts
// only) too; 931 with 1, 532 with 2, 513 with 4 and 503 unbounded. An
// unbounded pool kept up to 76 idle carriers with grown stacks on the
// chaos campaigns and raised their peak RSS by 21 % (10 benchmark pairs,
// 2-core Xeon VM); 4 raised it by 6 % and 2 by 2–3 %.
const carrierPool = 2

// run is the body of a carrier's goroutine: it runs p, then every Proc
// it starts directly or is handed from the pool, until it is retired.
func (c *carrier) run(p *Proc) {
	for p != nil {
		next, idle := c.body(p)
		if next == nil && idle {
			if _, ok := <-c.wake; ok {
				next, c.next = c.next, nil
			}
		}
		p = next
	}
}

// body runs p's body, then its exit, and reports what the carrier does
// next: run next, wait in the pool (idle), or end.
func (c *carrier) body(p *Proc) (next *Proc, idle bool) {
	returned := false
	defer func() { next, idle = c.exit(p, recover(), returned) }()
	p.fn(p)
	returned = true
	return nil, false
}

// exit retires p, whose body returned, panicked with r, or called
// runtime.Goexit (neither), then passes the loop on: to the next Proc an
// event wakes, or back to the caller. A panic other than procKilled is
// kept for the caller to re-raise. A Proc the loop starts runs next on
// this carrier; otherwise the carrier joins the idle pool while it still
// holds the loop, if the pool has room and the kernel runs on. After
// Goexit the goroutine is ending: it hands the loop on and no more.
func (c *carrier) exit(p *Proc, r any, returned bool) (next *Proc, idle bool) {
	k := p.k
	if r != nil {
		if _, ok := r.(procKilled); !ok {
			k.failure = r
		}
	}
	p.done = true
	p.fn = nil
	k.procs.remove(p)
	q := k.procLoop()
	live := returned || r != nil
	if live && q != nil && !q.started {
		k.cur = q
		q.started = true
		q.resume = c.wake
		return q, false
	}
	if live && !k.stopped && k.nidle < carrierPool {
		k.idle[k.nidle] = c
		k.nidle++
		idle = true
	}
	if q != nil {
		k.handTo(q)
	} else {
		k.goHome()
	}
	return nil, idle
}

// dispatch wakes the proc. It must be the last action of the event that
// calls it (procWake, procTimeout): the loop that fired the event then
// runs the proc, on this goroutine or by handing over to the proc's.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	if p.k.woken != nil {
		panic(fmt.Sprintf("sim: one event woke both %s and %s", p.k.woken.name, p.name))
	}
	p.k.woken = p
}

// park suspends the proc until an event dispatches it again. Must be
// called from the proc's own goroutine. On a stopped kernel it unwinds
// the proc at once.
func (p *Proc) park() {
	k := p.k
	if k.stopped {
		panic(procKilled{})
	}
	switch q := k.procLoop(); {
	case q == p:
		return // woken by its own event: no goroutine switch
	case q != nil:
		k.handTo(q)
	default:
		k.goHome()
	}
	<-p.resume
	if k.stopped {
		panic(procKilled{})
	}
}

// procWake is a Proc seen as the Handler of its own start and wake-ups
// (Spawn, Sleep, Gate.Signal, Gate.Broadcast): the event stores the Proc
// itself, so a wake-up allocates nothing, and Proc's own API stays free
// of Fire.
type procWake Proc

func (w *procWake) Fire(any) { (*Proc)(w).dispatch() }

// procTimeout is a Proc seen as the Handler of its WaitTimeout deadline;
// the event's argument is the Gate it waits on.
type procTimeout Proc

// Fire wakes the proc only if it is still queued on the gate; if a Signal
// raced with the timeout at this same instant, it has already been
// dispatched.
func (t *procTimeout) Fire(arg any) {
	p, g := (*Proc)(t), arg.(*Gate)
	for i, w := range g.waiters.Items() {
		if w == p {
			g.waiters.RemoveAt(i)
			p.timedOut = true
			p.dispatch()
			return
		}
	}
}

// Sleep suspends the process for duration d of simulated time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.k.AtHandler(p.k.Now().Add(d), (*procWake)(p), nil)
	p.park()
}

// Yield suspends the process and reschedules it at the current instant,
// after already pending events.
func (p *Proc) Yield() { p.Sleep(0) }

// Gate is a wait queue for Procs: a condition-variable analogue in virtual
// time. The zero value is ready to use.
type Gate struct {
	waiters Queue[*Proc]
}

// Wait parks the calling process until Signal or Broadcast wakes it.
func (g *Gate) Wait(p *Proc) {
	g.waiters.Push(p)
	p.park()
}

// WaitTimeout parks the calling process until woken or until d elapses.
// It reports true if the process was woken by Signal/Broadcast and false on
// timeout.
func (g *Gate) WaitTimeout(p *Proc, d time.Duration) bool {
	g.waiters.Push(p)
	p.timedOut = false
	timer := p.k.AtHandler(p.k.Now().Add(d), (*procTimeout)(p), g)
	p.park()
	timer.Cancel()
	return !p.timedOut
}

// Signal wakes the longest-waiting process, if any. The wakeup is scheduled
// as an immediate event, so it is safe to call from any simulation context.
func (g *Gate) Signal() {
	if g.waiters.Len() == 0 {
		return
	}
	p := g.waiters.Pop()
	p.k.AtHandler(p.k.Now(), (*procWake)(p), nil)
}

// Broadcast wakes every waiting process in FIFO order.
func (g *Gate) Broadcast() {
	for g.waiters.Len() > 0 {
		p := g.waiters.Pop()
		p.k.AtHandler(p.k.Now(), (*procWake)(p), nil)
	}
}

// Waiting returns the number of processes parked on the gate.
func (g *Gate) Waiting() int { return g.waiters.Len() }

// Mailbox is an unbounded FIFO queue of T with blocking receive, for
// communication between Procs (and from event context into Procs). The
// zero value is ready to use.
type Mailbox[T any] struct {
	queue Queue[T]
	gate  Gate
}

// Put appends v to the mailbox and wakes one waiting receiver. Safe to call
// from event context.
func (m *Mailbox[T]) Put(v T) {
	m.queue.Push(v)
	m.gate.Signal()
}

// Get blocks the calling process until a message is available and returns
// the oldest one.
func (m *Mailbox[T]) Get(p *Proc) T {
	for m.queue.Len() == 0 {
		m.gate.Wait(p)
	}
	return m.queue.Pop()
}

// GetTimeout is like Get but gives up after d. The second result reports
// whether a message was received.
func (m *Mailbox[T]) GetTimeout(p *Proc, d time.Duration) (T, bool) {
	deadline := p.Now().Add(d)
	var zero T
	for m.queue.Len() == 0 {
		remain := deadline.Sub(p.Now())
		if remain <= 0 {
			return zero, false
		}
		if !m.gate.WaitTimeout(p, remain) && m.queue.Len() == 0 {
			return zero, false
		}
	}
	return m.queue.Pop(), true
}

// Len returns the number of queued messages.
func (m *Mailbox[T]) Len() int { return m.queue.Len() }
