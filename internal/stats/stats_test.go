package stats

import (
	"strings"
	"testing"
	"time"
)

func TestBreakdownTotalAndString(t *testing.T) {
	b := Breakdown{
		HostSend: 1 * time.Microsecond,
		NICSend:  2 * time.Microsecond,
		Wire:     3 * time.Microsecond,
		NICRecv:  4 * time.Microsecond,
		HostRecv: 5 * time.Microsecond,
	}
	if b.Total() != 15*time.Microsecond {
		t.Fatalf("total = %v", b.Total())
	}
	s := b.String()
	for _, want := range []string{"host-send", "wire", "total=15µs"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestBreakdownAvg(t *testing.T) {
	var a BreakdownAvg
	if a.Mean() != (Breakdown{}) {
		t.Fatal("empty mean should be zero")
	}
	a.Add(Breakdown{HostSend: 2 * time.Microsecond})
	a.Add(Breakdown{HostSend: 4 * time.Microsecond})
	if a.Count() != 2 {
		t.Fatalf("count = %d", a.Count())
	}
	if got := a.Mean().HostSend; got != 3*time.Microsecond {
		t.Fatalf("mean host-send = %v, want 3µs", got)
	}
}

func TestBandwidth(t *testing.T) {
	// 100 MB over 1 second = 100 MB/s.
	if got := Bandwidth(100e6, time.Second); got != 100 {
		t.Fatalf("bandwidth = %v", got)
	}
	if got := Bandwidth(1000, 0); got != 0 {
		t.Fatalf("zero-duration bandwidth = %v, want 0", got)
	}
}
