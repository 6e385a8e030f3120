package sim

import (
	"sync"
	"sync/atomic"
)

// FreeList keeps objects for reuse: Put and Return hand one back, Get
// takes the newest back out, or a new zero one when there is none. Unlike
// a sync.Pool it keeps every object until one is taken, garbage
// collections and the race detector included, so a steady get/put cycle
// allocates nothing under `go test -race` too.
//
// A list either belongs to one cell's kernel (Lists.Of) or to no cell
// (the zero value). A cell's list is drawn from only by that kernel's
// events, and Get and Put, which those events call, take no lock: a
// kernel runs one event at a time, and the handoffs between its
// goroutines order them. An object released on another cell goes back
// through Return, onto a return stack under a lock; Get takes that whole
// stack, in one swap, when its own stack runs dry. A list with no cell
// takes its lock on every call, so any goroutine may use it.
type FreeList[T any] struct {
	cell  bool // owned by one kernel: Get and Put run only on its events
	items []*T
	made  int // objects Get allocated because items was empty

	mu       sync.Mutex
	back     []*T        // a cell's list: objects other cells handed back
	returned atomic.Bool // back is not empty
}

// Get takes the object put back last, or allocates a new one. On a cell's
// list only that cell's events call it.
func (l *FreeList[T]) Get() *T {
	if !l.cell {
		l.mu.Lock()
		x := l.pop()
		l.mu.Unlock()
		return x
	}
	if len(l.items) == 0 && l.returned.Load() {
		l.mu.Lock()
		l.items, l.back = l.back, l.items
		l.returned.Store(false)
		l.mu.Unlock()
	}
	return l.pop()
}

// pop takes the newest object off the list's own stack, or allocates one.
func (l *FreeList[T]) pop() *T {
	n := len(l.items)
	if n == 0 {
		l.made++
		return new(T)
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// Put hands x back for reuse. On a cell's list only that cell's events
// call it; anything else uses Return. The caller has cleared what x must
// not keep reachable, and uses x no more.
func (l *FreeList[T]) Put(x *T) {
	if !l.cell {
		l.Return(x)
		return
	}
	l.items = append(l.items, x)
}

// Return hands x back for reuse from any goroutine, under the list's lock:
// onto a cell's return stack, or straight onto a list with no cell.
func (l *FreeList[T]) Return(x *T) {
	l.mu.Lock()
	if l.cell {
		l.back = append(l.back, x)
		l.returned.Store(true)
	} else {
		l.items = append(l.items, x)
	}
	l.mu.Unlock()
}

// Made returns how many objects Get has allocated because the list was
// empty. On a cell's list read it between runs, not from another cell.
func (l *FreeList[T]) Made() int {
	if !l.cell {
		l.mu.Lock()
		defer l.mu.Unlock()
	}
	return l.made
}

// Lists gives each kernel its own FreeList of one pooled type. Declare
// one as a package variable per type; its zero value is ready.
type Lists[T any] struct {
	shared FreeList[T] // the list of code with no cell
}

// Of returns k's list, made on first use, or the process-wide list with
// no cell when k is nil. Look it up once, when the component that draws
// from it is built.
func (ls *Lists[T]) Of(k *Kernel) *FreeList[T] {
	if k == nil {
		return &ls.shared
	}
	if l, ok := k.lists[ls].(*FreeList[T]); ok {
		return l
	}
	l := &FreeList[T]{cell: true}
	if k.lists == nil {
		k.lists = make(map[any]any)
	}
	k.lists[ls] = l
	return l
}
