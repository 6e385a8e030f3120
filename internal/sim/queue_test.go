package sim

import (
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestQueueFIFO drives a Queue through every operation against a plain
// slice model: order is kept across pops that reclaim the consumed
// prefix, front pushes that reuse it, move the waiting items up within
// the backing array or outgrow it, and removals.
func TestQueueFIFO(t *testing.T) {
	var q Queue[int]
	var model []int
	check := func(op string) {
		t.Helper()
		if got := q.Items(); !slices.Equal(got, model) || q.Len() != len(model) {
			t.Fatalf("after %s: queue %v (len %d), want %v", op, got, q.Len(), model)
		}
	}
	next := 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			model = append(model, next)
			next++
		}
		check("push")
		for i := 0; i < round%5 && len(model) > 0; i++ {
			if v := q.Pop(); v != model[0] {
				t.Fatalf("pop = %d, want %d", v, model[0])
			}
			model = model[1:]
		}
		check("pop")
		if round%3 == 0 {
			front := []int{-round, -round - 1, -round - 2, -round - 3}[:round%4+1]
			q.PushFront(front...)
			model = append(slices.Clone(front), model...)
			check("push front")
		}
		if round%4 == 0 && len(model) > 1 {
			i := round % len(model)
			q.RemoveAt(i)
			model = slices.Delete(model, i, i+1)
			check("remove")
		}
	}
	for len(model) > 0 {
		if v := q.Pop(); v != model[0] {
			t.Fatalf("drain pop = %d, want %d", v, model[0])
		}
		model = model[1:]
	}
	check("drain")
	for i, v := range q.items[:cap(q.items)] {
		if v != 0 {
			t.Fatalf("drained queue still holds item %d at slot %d", v, i)
		}
	}
}

// TestQueuePushFrontAllocs: a front push of more items than the consumed
// prefix holds moves the waiting items up within the backing array when
// they fit, as a go-back-N burst pushed ahead of a transmit queue does,
// and allocates nothing once the array has grown.
func TestQueuePushFrontAllocs(t *testing.T) {
	var q Queue[int]
	burst := make([]int, 16)
	for i := range burst {
		burst[i] = -i
	}
	cycle := func() {
		for i := 0; i < 8; i++ {
			q.Push(i)
		}
		q.Pop()
		q.PushFront(burst...)
		if got := q.Items(); !slices.Equal(got[:16], burst) || got[16] != 1 || q.Len() != 23 {
			t.Fatalf("front push left %v", got)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("a front push that fits allocates %.2f times, want 0", avg)
	}
}

// TestFreeList: Get returns the newest object put back, a new one when
// the list is empty, and Made counts those; concurrent users of a list
// with no cell each get back only objects nobody else holds.
func TestFreeList(t *testing.T) {
	var l FreeList[int]
	c := l.Get()
	if c == nil || l.Made() != 1 {
		t.Fatalf("an empty list returned %v and made %d objects, want a new one", c, l.Made())
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if l.Get() != b || l.Get() != a {
		t.Fatal("Get does not return the newest object first")
	}
	if x := l.Get(); x == a || x == b || l.Made() != 2 {
		t.Fatal("Get on an empty list did not allocate")
	}
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := l.Get()
				*x = g
				runtime.Gosched()
				if *x != g {
					t.Error("an object was handed to two users")
					return
				}
				*x = 0
				if i%2 == 0 {
					l.Put(x)
				} else {
					l.Return(x)
				}
			}
		}()
	}
	wg.Wait()
	if l.Made() > 6 {
		t.Fatalf("4 users made %d objects, want at most 6", l.Made())
	}
}
