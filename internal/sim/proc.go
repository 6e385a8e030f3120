package sim

import (
	"fmt"
	"time"
)

// procKilled is the panic payload used to unwind a Proc goroutine when the
// kernel shuts down. It is recovered by the spawn wrapper.
type procKilled struct{}

// Proc is a simulated process: a goroutine whose execution is interleaved
// with the event loop so that exactly one piece of simulation code runs at a
// time. A Proc advances virtual time only by calling Sleep, or by blocking
// on a Gate/Mailbox until another event wakes it.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	yield  chan struct{}
	parked bool
	done   bool
	killed bool
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.Now() }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Spawn starts a simulated process running fn. The process begins executing
// at the current simulated time (via an immediate event). fn runs in its own
// goroutine but is strictly serialized with all other simulation code.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:      k,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	k.procs[p] = struct{}{}
	k.Immediately(func() {
		go func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(procKilled); !ok {
						panic(r) // real bug: propagate
					}
				}
				p.done = true
				delete(k.procs, p)
				p.yield <- struct{}{}
			}()
			<-p.resume
			fn(p)
		}()
		p.dispatch()
	})
	return p
}

// dispatch transfers control from the kernel to the proc goroutine and
// waits until it parks or finishes. Must be called from kernel context.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	p.parked = false
	p.resume <- struct{}{}
	<-p.yield
}

// park transfers control from the proc goroutine back to the kernel and
// blocks until some event dispatches the proc again. Must be called from
// the proc's own goroutine.
func (p *Proc) park() {
	p.parked = true
	p.yield <- struct{}{}
	<-p.resume
	if p.killed {
		panic(procKilled{})
	}
}

// procWake is a Proc seen as the Handler of its own wake-ups (Sleep,
// Gate.Signal, Gate.Broadcast): the event stores the Proc itself, so a
// wake-up allocates nothing, and Proc's own API stays free of Fire.
type procWake Proc

func (w *procWake) Fire(any) { (*Proc)(w).dispatch() }

// kill marks the proc for termination and runs it one final time so the
// goroutine unwinds. Called by Kernel.Stop for parked procs.
func (p *Proc) kill() {
	p.killed = true
	p.dispatch()
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
	timedOut := false
	timer := p.k.After(d, func() {
		// Wake p only if it is still queued; if a Signal raced with the
		// timeout at this same instant, p has already been dispatched.
		for i, w := range g.waiters.Items() {
			if w == p {
				g.waiters.RemoveAt(i)
				timedOut = true
				p.dispatch()
				return
			}
		}
	})
	p.park()
	timer.Cancel()
	return !timedOut
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

// Mailbox is an unbounded FIFO message queue with blocking receive, for
// communication between Procs (and from event context into Procs).
type Mailbox struct {
	queue Queue[any]
	gate  Gate
}

// Put appends v to the mailbox and wakes one waiting receiver. Safe to call
// from event context.
func (m *Mailbox) Put(v any) {
	m.queue.Push(v)
	m.gate.Signal()
}

// Get blocks the calling process until a message is available and returns
// the oldest one.
func (m *Mailbox) Get(p *Proc) any {
	for m.queue.Len() == 0 {
		m.gate.Wait(p)
	}
	return m.queue.Pop()
}

// GetTimeout is like Get but gives up after d. The second result reports
// whether a message was received.
func (m *Mailbox) GetTimeout(p *Proc, d time.Duration) (any, bool) {
	deadline := p.Now().Add(d)
	for m.queue.Len() == 0 {
		remain := deadline.Sub(p.Now())
		if remain <= 0 {
			return nil, false
		}
		if !m.gate.WaitTimeout(p, remain) && m.queue.Len() == 0 {
			return nil, false
		}
	}
	return m.queue.Pop(), true
}

// Len returns the number of queued messages.
func (m *Mailbox) Len() int { return m.queue.Len() }
