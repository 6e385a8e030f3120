package sim

import (
	"sync"
	"testing"
)

// TestFreeListCellOwnership: a kernel's list is its own and the nil
// kernel's is shared; objects other goroutines hand back through Return
// come out of Get once the owner's own stack runs dry, all of them in one
// swap, and no object is handed out while someone still holds it.
func TestFreeListCellOwnership(t *testing.T) {
	var ls Lists[int]
	k1, k2 := New(1), New(2)
	l := ls.Of(k1)
	if ls.Of(k1) != l || ls.Of(k2) == l || ls.Of(nil) != ls.Of(nil) || ls.Of(nil) == l {
		t.Fatal("Of does not give each kernel one list of its own")
	}
	a, b := l.Get(), l.Get()
	l.Return(a)
	l.Put(b)
	if l.Get() != b {
		t.Fatal("Get took the return stack before its own stack ran dry")
	}
	if l.Get() != a || l.Made() != 2 {
		t.Fatal("Get did not take the returned object")
	}
	l.Put(a)
	l.Put(b)

	// The owner draws and keeps some objects, and hands the rest to four
	// goroutines that return them.
	const rounds, users = 2000, 4
	out := make(chan *int, 64)
	var wg sync.WaitGroup
	for g := 0; g < users; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := range out {
				*x = 0
				l.Return(x)
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		x := l.Get()
		if *x != 0 {
			t.Fatal("an object was handed out while still held")
		}
		if i%3 == 0 {
			l.Put(x)
			continue
		}
		*x = i
		out <- x
	}
	close(out)
	wg.Wait()
	n := l.Made()
	for i := 0; i < n; i++ {
		l.Get()
	}
	if l.Made() != n {
		t.Fatalf("%d returned objects did not all come back: made %d", n, l.Made())
	}
}

// BenchmarkFreeListCycle is one get/put cycle on a cell's own list, which
// takes no lock, and on the list of code with no cell, which locks twice.
func BenchmarkFreeListCycle(b *testing.B) {
	var ls Lists[[64]byte]
	for _, c := range []struct {
		name string
		l    *FreeList[[64]byte]
	}{{"cell", ls.Of(New(1))}, {"shared", ls.Of(nil)}} {
		b.Run(c.name, func(b *testing.B) {
			c.l.Put(c.l.Get())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.l.Put(c.l.Get())
			}
		})
	}
}
