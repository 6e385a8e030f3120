package sim

import (
	"testing"
	"time"
)

// TestKernelStats pins the profiler-facing counter snapshot: scheduled
// splits exactly into cancelled + executed + pending, and the arena
// high-water mark reflects peak concurrent live events.
func TestKernelStats(t *testing.T) {
	k := New(1)
	fired := 0
	for i := 0; i < 8; i++ {
		k.After(time.Duration(i+1)*time.Microsecond, func() { fired++ })
	}
	tm := k.After(20*time.Microsecond, func() { fired++ })
	if !tm.Cancel() {
		t.Fatal("Cancel of pending timer failed")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel succeeded")
	}
	k.After(50*time.Microsecond, func() { fired++ })

	k.RunUntil(Time(0).Add(10 * time.Microsecond))
	s := k.Stats()
	if s.Scheduled != 10 {
		t.Fatalf("Scheduled = %d, want 10", s.Scheduled)
	}
	if s.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", s.Cancelled)
	}
	if s.Executed != 8 || fired != 8 {
		t.Fatalf("Executed = %d (fired %d), want 8", s.Executed, fired)
	}
	if s.Pending != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending)
	}
	if got := s.Cancelled + s.Executed + uint64(s.Pending); got != s.Scheduled {
		t.Fatalf("cancelled+executed+pending = %d, want scheduled = %d", got, s.Scheduled)
	}
	// 9 events were live at once (the cancelled slot was freed and reused
	// by the last schedule), so the arena never grew past 9 records.
	if s.ArenaHighWater != 9 {
		t.Fatalf("ArenaHighWater = %d, want 9", s.ArenaHighWater)
	}

	k.Run()
	s = k.Stats()
	if s.Pending != 0 || s.Executed != 9 {
		t.Fatalf("after drain: %+v", s)
	}
	if s.Switches != 0 {
		t.Fatalf("Switches = %d without a Proc, want 0", s.Switches)
	}

	// A Proc's start and finish are one switch each; a wake-up of its own
	// while it holds the loop is none, and a bare Step that wakes it is two.
	k.Spawn("p", func(p *Proc) {
		p.Sleep(time.Microsecond)
		p.Sleep(time.Microsecond)
	})
	k.Step()
	if s = k.Stats(); s.Switches != 2 {
		t.Fatalf("Switches = %d after a bare Step, want 2", s.Switches)
	}
	k.Run()
	if s = k.Stats(); s.Switches != 4 {
		t.Fatalf("Switches = %d after the run, want 4", s.Switches)
	}
}
