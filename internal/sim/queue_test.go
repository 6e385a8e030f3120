package sim

import (
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestQueueFIFO drives a Queue through every operation against a plain
// slice model: order is kept across pops that reclaim the consumed
// prefix, front pushes that reuse it or outgrow it, and removals.
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
			front := []int{-round, -round - 1}[:round%2+1]
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

// TestFreeList: Get returns the newest object put back, nil when empty;
// concurrent users each get back only objects nobody else holds; Stats
// counts every Get and the ones that found the list empty.
func TestFreeList(t *testing.T) {
	var l FreeList[int]
	if l.Get() != nil {
		t.Fatal("an empty list returned an object")
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if l.Get() != b || l.Get() != a || l.Get() != nil {
		t.Fatal("Get does not return the newest object first")
	}
	if gets, misses := l.Stats(); gets != 4 || misses != 2 {
		t.Fatalf("Stats = %d gets, %d misses; want 4, 2", gets, misses)
	}
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := l.Get()
				if x == nil {
					x = new(int)
				}
				*x = g
				runtime.Gosched()
				if *x != g {
					t.Error("an object was handed to two users")
					return
				}
				*x = 0
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	if gets, _ := l.Stats(); gets != 4+4*1000 {
		t.Fatalf("Stats = %d gets, want %d", gets, 4+4*1000)
	}
}
