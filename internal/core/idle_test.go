package core

import (
	"fmt"
	"testing"
	"time"

	"sanft/internal/topology"
)

// TestIdleHourEventBound runs a 16-host FT star with no traffic for a
// simulated hour, twice: every NIC stops its timer chain at its first
// idle tick, so the two hours execute a few events per NIC and allocate
// nothing, and the firmware gauges still count every scan the eager chain
// would have run — the closed form ticks × scanCost and ticks.
func TestIdleHourEventBound(t *testing.T) {
	const hosts = 16
	nw, hs := topology.Star(hosts)
	c := New(Config{Net: nw, Hosts: hs, FT: true, Seed: 1})
	defer c.Stop()
	allocs := testing.AllocsPerRun(1, func() { c.RunFor(time.Hour) })
	if allocs != 0 {
		t.Fatalf("an idle hour allocates %.0f times, want 0", allocs)
	}
	if n := c.K.Executed(); n > 2*hosts {
		t.Fatalf("two idle hours executed %d events on %d NICs, want at most %d", n, hosts, 2*hosts)
	}
	obs := c.Observer()
	obs.SampleNow(c.Now())
	g := obs.Samples()[len(obs.Samples())-1].Gauges
	const interval = time.Millisecond
	for _, h := range c.Hosts {
		cost := c.NIC(h).Cost()
		scan := cost.TimerScanCost + (hosts-1)*cost.TimerPerDestCost
		// Ticks fall at interval + phase + j·interval; a scan counts once
		// it has ended by now.
		first := interval + time.Duration(int64(h)%16)*(interval/16)
		ticks := int64((c.Now().Duration()-first-scan)/interval) + 1
		busy := g[fmt.Sprintf("nic.cpu.busy_ns{host=%d}", h)]
		disp := g[fmt.Sprintf("nic.cpu.dispatches{host=%d}", h)]
		if busy != float64(ticks*int64(scan)) || disp != float64(ticks) {
			t.Fatalf("host %d: busy_ns=%v dispatches=%v, want %d and %d",
				h, busy, disp, ticks*int64(scan), ticks)
		}
	}
}
