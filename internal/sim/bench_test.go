package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw event dispatch rate.
func BenchmarkEventThroughput(b *testing.B) {
	k := New(1)
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, fn)
		}
	}
	k.After(time.Microsecond, fn)
	b.ResetTimer()
	k.Run()
}

// BenchmarkHeapChurn measures scheduling with many pending events.
func BenchmarkHeapChurn(b *testing.B) {
	k := New(1)
	for i := 0; i < 1000; i++ {
		k.After(time.Duration(i+1)*time.Second, func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := k.After(time.Millisecond, func() {})
		t.Cancel()
	}
}

// BenchmarkProcHandoff measures a Proc's sleep and wake-up.
func BenchmarkProcHandoff(b *testing.B) {
	k := New(1)
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkGateHandoff measures one handoff between two Procs that pass
// control back and forth through a pair of gates.
func BenchmarkGateHandoff(b *testing.B) {
	k := New(1)
	var ga, gb Gate
	turn := 0
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			turn = 1
			gb.Signal()
			for turn == 1 {
				ga.Wait(p)
			}
		}
	})
	k.Spawn("b", func(p *Proc) {
		for {
			for turn == 0 {
				gb.Wait(p)
			}
			turn = 0
			ga.Signal()
		}
	})
	defer k.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkResource measures the FIFO-server fast path.
func BenchmarkResource(b *testing.B) {
	k := New(1)
	r := NewResource(k, "cpu")
	n := 0
	var submit func()
	submit = func() {
		n++
		if n < b.N {
			r.Submit(time.Microsecond, submit)
		}
	}
	r.Submit(time.Microsecond, submit)
	b.ResetTimer()
	k.Run()
}

// BenchmarkResourceSubmit measures steady-state Submit plus completion
// against a standing backlog, as a busy NIC firmware processor sees it.
func BenchmarkResourceSubmit(b *testing.B) {
	k := New(1)
	r := NewResource(k, "cpu")
	done := func() {}
	for i := 0; i < 8; i++ {
		r.Submit(time.Microsecond, done)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Submit(time.Microsecond, done)
		k.Step()
	}
}
