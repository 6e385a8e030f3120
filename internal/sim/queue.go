package sim

import "sync"

// Queue is a FIFO that pops in place: the waiting items are items[head:],
// and the consumed prefix is reclaimed once it reaches half the slice. A
// push and a pop in steady state allocate nothing, and a queue whose
// backlog never drains still keeps bounded memory. The zero value is an
// empty queue.
//
// Resource work, Gate waiters, Mailbox messages, the wormhole fabric's
// channel waiters and the NIC's transmit queue all use it, because a
// slice that pops with q = q[1:] regrows after every pop from the front.
type Queue[T any] struct {
	items []T
	head  int
}

// Len returns the number of waiting items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) { q.items = append(q.items, v) }

// PushFront puts vs at the front, in order, ahead of every waiting item.
// It reuses the consumed prefix when vs fits there and allocates a new
// backing array otherwise.
func (q *Queue[T]) PushFront(vs ...T) {
	if len(vs) <= q.head {
		q.head -= len(vs)
		copy(q.items[q.head:], vs)
		return
	}
	items := make([]T, 0, len(vs)+q.Len())
	q.items = append(append(items, vs...), q.items[q.head:]...)
	q.head = 0
}

// Pop removes and returns the oldest item. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.items[q.head]
	q.head++
	q.reclaim()
	return v
}

// Items returns the waiting items, oldest first. The slice aliases the
// queue and is valid until the next Push, PushFront, Pop or RemoveAt.
func (q *Queue[T]) Items() []T { return q.items[q.head:] }

// RemoveAt deletes the i-th waiting item (0 is the oldest), keeping the
// order of the rest.
func (q *Queue[T]) RemoveAt(i int) {
	i += q.head
	copy(q.items[i:], q.items[i+1:])
	var zero T
	q.items[len(q.items)-1] = zero
	q.items = q.items[:len(q.items)-1]
	q.reclaim()
}

// reclaim moves the waiting items to the front once the consumed prefix
// is at least half the slice, and zeroes the vacated slots, so consumed
// items stay reachable only until then.
func (q *Queue[T]) reclaim() {
	if 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
}

// FreeList keeps objects for reuse: Put hands one back, Get takes the
// newest back out, or returns nil when there is none. Unlike a sync.Pool
// it keeps every object until one is taken, garbage collections and the
// race detector included, so a steady get/put cycle allocates nothing
// under `go test -race` too. It is safe for concurrent use: the cells of
// the parallel engine and concurrent campaigns share one. It counts its
// own traffic (Stats). The zero value is an empty list.
type FreeList[T any] struct {
	mu           sync.Mutex
	items        []*T
	gets, misses uint64
}

// Get takes the object put back last, nil if there is none.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	l.gets++
	var x *T
	if n := len(l.items); n > 0 {
		x = l.items[n-1]
		l.items[n-1] = nil
		l.items = l.items[:n-1]
	} else {
		l.misses++
	}
	l.mu.Unlock()
	return x
}

// Stats returns how many times Get was called, and how many of those
// calls found the list empty.
func (l *FreeList[T]) Stats() (gets, misses uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gets, l.misses
}

// Put hands x back for reuse. The caller has cleared what x must not keep
// reachable, and uses x no more.
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	l.items = append(l.items, x)
	l.mu.Unlock()
}
