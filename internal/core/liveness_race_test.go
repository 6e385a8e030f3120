package core_test

// Session-down vs the fixed detectors: a liveness session, the
// permanent-failure (path-stale) detector, and the fabric watchdog all
// watch the same dead trunk, and each may fire first depending on when
// the link heals. The sweep below moves the heal instant across that
// window (mirroring TestRemapRacesWatchdogReset) and asserts that every
// interleaving keeps the protocol contract: the shared at-most-once
// guard must prevent a double remap for one fault, and no interleaving
// may lose an inject-done notification (which the buffer-conservation
// invariant would expose as a leaked NIC buffer).

import (
	"fmt"
	"testing"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/core"
	"sanft/internal/fabric"
	"sanft/internal/liveness"
	"sanft/internal/retrans"
	"sanft/internal/topology"
)

// TestSessionDownRacesWatchdogReset: trunk dies at 1ms on a single-trunk
// two-switch chain. Three detectors watch it: the liveness session
// (500µs interval × multiplier 3: ~2.5ms), the path-stale detector (~5ms)
// and the shortened fabric watchdog, which flushes a worm wedged for 3ms.
// The heal instant sweeps across that window. The session detects first
// at every instant and starts a remap, so the path-stale verdict lands
// inside it and the at-most-once guard absorbs it: no EvPathStale fires.
// The watchdog resets a worm at heal 2ms and 8ms (about 13ms into the
// run, while that remap still runs) and not at 3–6ms. The sweep must race
// it at least once, or it tests nothing the session alone does not; with
// the default 1ms session terms no instant does. Every point must satisfy
// the full oracle — complete delivery, no duplicate notifications, all
// NIC buffers reclaimed, no remap left running — with the cluster-wide
// mapping-run count bounded (a double-remap per fault would break it).
func TestSessionDownRacesWatchdogReset(t *testing.T) {
	heals := []int64{2, 3, 4, 5, 6, 8}
	ran, resets := 0, uint64(0)
	for _, healMS := range heals {
		t.Run(fmt.Sprintf("heal@%dms", healMS), func(t *testing.T) {
			ran++
			nw, rows := topology.Chain(2, 1, 1)
			var hosts []topology.NodeID
			for _, row := range rows {
				hosts = append(hosts, row...)
			}
			fc := fabric.DefaultConfig()
			fc.Watchdog = 3 * time.Millisecond
			c := core.New(core.Config{
				Net: nw, Hosts: hosts, FT: true,
				Retrans: retrans.Config{
					QueueSize:         16,
					Interval:          time.Millisecond,
					PermFailThreshold: 4 * time.Millisecond,
				},
				Liveness: &liveness.Config{DesiredMinTx: 500 * time.Microsecond},
				Mapper:   true,
				Remap: core.RemapPolicy{
					Backoff:         time.Millisecond,
					BackoffMax:      4 * time.Millisecond,
					JitterFrac:      -1,
					QuarantineAfter: 8,
				},
				Fabric: fc,
				Seed:   900 + healMS,
			})
			e := chaos.NewEngine(c, 900+healMS)
			r := chaos.Workload{
				Pairs: chaos.AllPairs(hosts),
				Msgs:  8, Bytes: 256, Gap: 200 * time.Microsecond,
			}.Start(e)

			trunk := nw.TrunkLinks()[0]
			c.K.After(time.Millisecond, func() { c.Fab.KillLink(trunk) })
			c.K.After(time.Duration(healMS)*time.Millisecond, func() {
				nw.RestoreLink(trunk)
			})

			c.RunFor(3 * time.Second)
			c.Stop()

			if vs := chaos.CheckInvariants(e, r, chaos.CheckOpts{MaxRemapAttempts: 6}); len(vs) != 0 {
				t.Fatalf("heal at %dms violated invariants: %v", healMS, vs)
			}
			reg := c.Metrics()
			resets += reg.CounterTotal("fabric.watchdog_resets")
			if healMS >= 4 {
				// The heal lands after the session detection time: the
				// session must have dropped and fed the recovery path.
				if reg.CounterTotal("liveness.session_down") == 0 {
					t.Fatal("no session-down despite outage outlasting the detection time")
				}
				if c.RemapStats.Attempts == 0 {
					t.Fatal("no remap attempted despite a detected outage")
				}
			}
			// Recovery must always bring every session back up.
			for _, h := range hosts {
				for _, d := range hosts {
					if h == d {
						continue
					}
					if s := c.NIC(h).Session(d); s == nil || s.State() != liveness.Up {
						t.Fatalf("session %d->%d not up after heal (state %v)", h, d, s.State())
					}
				}
			}
		})
	}
	if ran == len(heals) && resets == 0 {
		t.Fatal("no heal instant raced a watchdog reset")
	}
}
