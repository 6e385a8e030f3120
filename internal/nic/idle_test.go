package nic

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"sanft/internal/metrics"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// idleBench is a 2-host FT star with a 1 ms timer and no traffic, so host
// a's NIC is idle at every tick: with SkipIdleScans it stops its chain
// at its first tick, and every later scan is caught up by arithmetic.
type idleBench struct {
	k    *sim.Kernel
	n    *NIC
	host topology.NodeID
	obs  *metrics.Observer
	log  []string
}

const idleInterval = time.Millisecond

func newIdleBench(t *testing.T, skip bool) *idleBench {
	t.Helper()
	obs := metrics.NewObserver(metrics.Config{})
	r := newRig(t, 2, func(int) Options {
		o := ftOpts(8, idleInterval)
		o.SkipIdleScans = skip
		o.Metrics = obs.Registry()
		return o
	})
	a := r.hosts[0]
	return &idleBench{k: r.k, n: r.nics[a], host: a, obs: obs}
}

// tick returns the instant of host a's j-th timer tick (j = 0 is the
// first, one interval plus the host's phase after boot).
func (b *idleBench) tick(j int) sim.Time {
	phase := time.Duration(int64(b.host)%16) * (idleInterval / 16)
	return sim.Time(0).Add(idleInterval + phase + time.Duration(j)*idleInterval)
}

// gauges reads the firmware gauges through the metrics registry, the
// path every dump and sample takes.
func (b *idleBench) gauges() string {
	b.obs.SampleNow(b.k.Now())
	g := b.obs.Samples()[len(b.obs.Samples())-1].Gauges
	id := func(name string) string { return fmt.Sprintf("%s{host=%d}", name, b.host) }
	return fmt.Sprintf("busy_ns=%v dispatches=%v", g[id("nic.cpu.busy_ns")], g[id("nic.cpu.dispatches")])
}

// at schedules fn at instant when, scheduled itself at instant from (at
// or before when): where among the events of its instant fn runs depends
// on when it was scheduled.
func (b *idleBench) at(from, when sim.Time, fn func()) {
	if from == 0 {
		b.k.At(when, fn)
		return
	}
	b.k.At(from, func() { b.k.At(when, fn) })
}

// submit puts 2 µs of firmware work on the CPU, logging whether it had to
// queue and when it completes.
func (b *idleBench) submit() {
	b.n.fw(2*time.Microsecond, sim.HandlerFunc(func(any) {
		b.log = append(b.log, fmt.Sprintf("work done @%d", b.k.Now()))
	}), nil)
	b.log = append(b.log, fmt.Sprintf("submit @%d queued=%d", b.k.Now(), b.n.cpu.QueueLen()))
}

func (b *idleBench) read() {
	b.log = append(b.log, fmt.Sprintf("read @%d %s", b.k.Now(), b.gauges()))
}

// runIdleCase runs one scenario on the eager chain and on the skipping
// one and returns both logs, which must match line for line; the skipping
// chain must also have executed fewer events.
func runIdleCase(t *testing.T, end sim.Time, scenario func(b *idleBench)) []string {
	t.Helper()
	var logs [2][]string
	var events [2]uint64
	for i, skip := range []bool{false, true} {
		b := newIdleBench(t, skip)
		scenario(b)
		b.k.RunUntil(end)
		b.log = append(b.log, fmt.Sprintf("end @%d %s", b.k.Now(), b.gauges()))
		b.k.Stop()
		logs[i], events[i] = b.log, b.k.Executed()
	}
	if !reflect.DeepEqual(logs[0], logs[1]) {
		t.Fatalf("eager and skipping chains diverge:\neager:\n  %s\nskipping:\n  %s",
			strings.Join(logs[0], "\n  "), strings.Join(logs[1], "\n  "))
	}
	if events[1] >= events[0] {
		t.Fatalf("skipping chain executed %d events, eager %d: nothing skipped", events[1], events[0])
	}
	return logs[1]
}

// wantLine fails unless log holds a line starting with prefix.
func wantLine(t *testing.T, log []string, prefix string) {
	t.Helper()
	for _, l := range log {
		if strings.HasPrefix(l, prefix) {
			return
		}
	}
	t.Fatalf("no line %q in\n  %s", prefix, strings.Join(log, "\n  "))
}

// TestIdleElisionFirmwareTies puts firmware work exactly on a skipped
// tick, exactly at a skipped scan's end, strictly inside and just past a
// scan's service window. At a tie the work runs where an ordinary event
// scheduled when it was would run on the eager chain: ahead of the tick
// (or scan end) when scheduled before the eager chain scheduled that
// event, behind it otherwise.
func TestIdleElisionFirmwareTies(t *testing.T) {
	const c = 600 * time.Nanosecond // scan cost: 500 ns + one route
	const w = 2 * time.Microsecond  // the work's service time
	b0 := newIdleBench(t, true)
	if got := b0.n.scanCost(); got != c {
		t.Fatalf("scan cost %v, want %v", got, c)
	}
	T := b0.tick(5)
	prev := b0.tick(4)
	end := b0.tick(9)
	cases := []struct {
		name       string
		from, when sim.Time
		want       []string
	}{
		// The eager tick at T was scheduled at the tick before it: work
		// scheduled later finds the scan in service and waits for it...
		{"on a tick, scheduled after the previous tick", prev + 1, T,
			[]string{fmt.Sprintf("submit @%d queued=1", T), fmt.Sprintf("work done @%d", T.Add(c+w))}},
		// ...work scheduled earlier runs first, and the scan queues behind it.
		{"on a tick, scheduled before the previous tick", 0, T,
			[]string{fmt.Sprintf("submit @%d queued=0", T), fmt.Sprintf("work done @%d", T.Add(w))}},
		// The scan's end was scheduled at its tick.
		{"at a scan's end, scheduled before its tick", prev + 1, T.Add(c),
			[]string{fmt.Sprintf("submit @%d queued=1", T.Add(c)), fmt.Sprintf("work done @%d", T.Add(c+w))}},
		{"at a scan's end, scheduled after its tick", T, T.Add(c),
			[]string{fmt.Sprintf("submit @%d queued=0", T.Add(c)), fmt.Sprintf("work done @%d", T.Add(c+w))}},
		{"inside a scan's window", 0, T.Add(c / 2),
			[]string{fmt.Sprintf("submit @%d queued=1", T.Add(c/2)), fmt.Sprintf("work done @%d", T.Add(c+w))}},
		{"just past a scan's window", 0, T.Add(c + 1),
			[]string{fmt.Sprintf("submit @%d queued=0", T.Add(c+1)), fmt.Sprintf("work done @%d", T.Add(c+1+w))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := runIdleCase(t, end, func(b *idleBench) { b.at(tc.from, tc.when, b.submit) })
			for _, l := range tc.want {
				wantLine(t, log, l)
			}
		})
	}
}

// TestIdleElisionGaugeTies reads the nic.cpu gauges at the same instants:
// a scan counts once its end has run, ties placed as for work.
func TestIdleElisionGaugeTies(t *testing.T) {
	const c = 600 * time.Nanosecond
	b0 := newIdleBench(t, true)
	T, prev, end := b0.tick(5), b0.tick(4), b0.tick(9)
	// Scans of ticks 0..j-1 have ended: j dispatches and j scan costs.
	done := func(j int) string {
		return fmt.Sprintf("busy_ns=%d dispatches=%d", j*int(c), j)
	}
	cases := []struct {
		name       string
		from, when sim.Time
		scans      int
	}{
		{"on a tick", 0, T, 5},
		{"at a scan's end, scheduled before its tick", prev + 1, T.Add(c), 5},
		{"at a scan's end, scheduled after its tick", T, T.Add(c), 6},
		{"inside a scan's window", 0, T.Add(c / 2), 5},
		{"long after", 0, T.Add(idleInterval / 2), 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := runIdleCase(t, end, func(b *idleBench) {
				b.at(tc.from, tc.when, b.read)
				// A second read at the same instant changes nothing.
				b.at(tc.from, tc.when, b.read)
			})
			wantLine(t, log, fmt.Sprintf("read @%d %s", tc.when, done(tc.scans)))
			// At end the tick there has run and its scan is in service.
			wantLine(t, log, fmt.Sprintf("end @%d %s", end, done(9)))
		})
	}
}

// TestIdleElisionRouteChange removes a route inside a scan's window: the
// scan in service keeps the cost it started with, and later scans cost
// one route less.
func TestIdleElisionRouteChange(t *testing.T) {
	b0 := newIdleBench(t, true)
	T, end := b0.tick(5), b0.tick(9)
	const c0, c1 = 600 * time.Nanosecond, 500 * time.Nanosecond
	log := runIdleCase(t, end, func(b *idleBench) {
		b.at(0, T.Add(100), func() {
			for _, d := range b.n.Destinations() {
				b.n.RemoveRoute(d)
			}
			b.read()
		})
	})
	wantLine(t, log, fmt.Sprintf("read @%d busy_ns=%d dispatches=5", T.Add(100), 5*c0))
	wantLine(t, log, fmt.Sprintf("end @%d busy_ns=%d dispatches=9", end, 6*c0+3*c1))
}

// TestIdleElisionStop stops the kernel inside a scan's window: the scan
// never ends, on either chain.
func TestIdleElisionStop(t *testing.T) {
	b0 := newIdleBench(t, true)
	T, end := b0.tick(5), b0.tick(9)
	const c = 600 * time.Nanosecond
	log := runIdleCase(t, end, func(b *idleBench) {
		b.at(0, T.Add(c/2), func() { b.k.Stop() })
	})
	wantLine(t, log, fmt.Sprintf("end @%d busy_ns=%d dispatches=5", T.Add(c/2), 5*c))
}

// TestIdleElisionResumesOnTraffic sends a message from the idle NIC: the
// chain restarts for the retransmission queue, stops again once the ack
// has drained it, and the whole run matches the eager chain's.
func TestIdleElisionResumesOnTraffic(t *testing.T) {
	b0 := newIdleBench(t, true)
	T, end := b0.tick(5), b0.tick(30)
	log := runIdleCase(t, end, func(b *idleBench) {
		dst := topology.NodeID(int(b.host) + 1)
		b.at(0, T.Add(100), func() {
			b.k.Spawn("send", func(p *sim.Proc) {
				b.n.Send(p, dataFrame(dst, 1, make([]byte, 64)))
				b.log = append(b.log, fmt.Sprintf("sent @%d", p.Now()))
			})
		})
		for j := 5; j < 30; j += 3 {
			b.at(0, b.tick(j).Add(300), b.read)
		}
	})
	wantLine(t, log, "sent @")
}
