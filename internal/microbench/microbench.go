// Package microbench implements the paper's three micro-benchmarks
// (§5.1.4): a one-way latency test, a ping-pong ("bidirectional")
// bandwidth test, and a unidirectional bandwidth test in which the sender
// never waits for the receiver — measuring how fast data can be put onto
// the network.
//
// Each benchmark sends every message from one zero buffer, as a VMMC
// micro-benchmark sends one registered buffer repeatedly. Sharing it is
// safe because no layer writes a send buffer: VMMC frames, and the
// go-back-N clones of them, point into it until they are acknowledged,
// and the receiver copies the bytes into its export.
package microbench

import (
	"fmt"
	"time"

	"sanft/internal/core"
	"sanft/internal/sim"
	"sanft/internal/stats"
)

// LatencyResult is one row of the latency micro-benchmark.
type LatencyResult struct {
	Size      int
	OneWay    time.Duration
	Breakdown stats.Breakdown
}

// Latency measures average one-way latency for messages of the given size
// between the cluster's first two hosts, over iters ping-pong rounds
// (the first round is discarded as warm-up).
func Latency(c *core.Cluster, size, iters int) LatencyResult {
	a, b := c.EndpointAt(0), c.EndpointAt(1)
	expB := b.Export(fmt.Sprintf("lat-b-%d", size), maxInt(size, 1))
	expA := a.Export(fmt.Sprintf("lat-a-%d", size), maxInt(size, 1))
	buf := make([]byte, size)

	var agg stats.BreakdownAvg
	var sum time.Duration
	count := 0
	done := false

	c.K.Spawn("lat-a", func(p *sim.Proc) {
		imp, err := a.Import(b.Node(), fmt.Sprintf("lat-b-%d", size))
		if err != nil {
			panic(err)
		}
		for i := 0; i < iters; i++ {
			imp.Send(p, 0, buf, true)
			expA.WaitNotification(p)
		}
		done = true
		c.StopSoon()
	})
	c.K.Spawn("lat-b", func(p *sim.Proc) {
		imp, err := b.Import(a.Node(), fmt.Sprintf("lat-a-%d", size))
		if err != nil {
			panic(err)
		}
		for i := 0; i < iters; i++ {
			n := expB.WaitNotification(p)
			if i > 0 { // discard warm-up round
				agg.Add(n.Breakdown)
				sum += n.Latency
				count++
			}
			imp.Send(p, 0, buf, true)
		}
	})
	c.RunFor(time.Duration(iters+10) * 10 * time.Millisecond)
	c.Stop()
	if !done || count == 0 {
		panic(fmt.Sprintf("microbench: latency test did not complete (size %d)", size))
	}
	return LatencyResult{
		Size:      size,
		OneWay:    sum / time.Duration(count),
		Breakdown: agg.Mean(),
	}
}

// BandwidthResult is one row of a bandwidth micro-benchmark.
type BandwidthResult struct {
	Size int
	MBps float64
	// Messages is how many messages were measured.
	Messages int
}

// PingPong measures the paper's "bidirectional bandwidth": two processes
// bounce a message of the given size back and forth; bandwidth counts the
// bytes moved in both directions.
func PingPong(c *core.Cluster, size, iters int) BandwidthResult {
	a, b := c.EndpointAt(0), c.EndpointAt(1)
	name := fmt.Sprintf("pp-%d", size)
	expB := b.Export(name+"-b", size)
	expA := a.Export(name+"-a", size)
	buf := make([]byte, size)

	var start, end sim.Time
	count := 0
	c.K.Spawn("pp-a", func(p *sim.Proc) {
		imp, err := a.Import(b.Node(), name+"-b")
		if err != nil {
			panic(err)
		}
		start = p.Now()
		for i := 0; i < iters; i++ {
			imp.Send(p, 0, buf, true)
			expA.WaitNotification(p)
			count++
			end = p.Now()
		}
		c.StopSoon()
	})
	c.K.Spawn("pp-b", func(p *sim.Proc) {
		imp, err := b.Import(a.Node(), name+"-a")
		if err != nil {
			panic(err)
		}
		for i := 0; i < iters; i++ {
			expB.WaitNotification(p)
			imp.Send(p, 0, buf, true)
		}
	})
	// Generous bound: even at 1 MB/s the largest runs fit.
	c.RunFor(time.Duration(iters)*time.Second/10 + 10*time.Second)
	c.Stop()
	if count == 0 {
		return BandwidthResult{Size: size}
	}
	bytes := uint64(2) * uint64(size) * uint64(count)
	return BandwidthResult{Size: size, MBps: stats.Bandwidth(bytes, end.Sub(start)), Messages: count}
}

// Unidirectional measures one-way streaming bandwidth: the sender issues
// messages back to back without waiting for the receiver (it is throttled
// only by NIC send-buffer availability). Bandwidth is measured at the
// receiver between the first and last completed message.
func Unidirectional(c *core.Cluster, size, iters int) BandwidthResult {
	a, b := c.EndpointAt(0), c.EndpointAt(1)
	name := fmt.Sprintf("uni-%d", size)
	expB := b.Export(name, size)
	buf := make([]byte, size)

	var first, last sim.Time
	count := 0
	c.K.Spawn("uni-send", func(p *sim.Proc) {
		imp, err := a.Import(b.Node(), name)
		if err != nil {
			panic(err)
		}
		for i := 0; i < iters; i++ {
			imp.Send(p, 0, buf, true)
		}
	})
	c.K.Spawn("uni-recv", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			expB.WaitNotification(p)
			if count == 0 {
				first = p.Now()
			}
			count++
			last = p.Now()
		}
		c.StopSoon()
	})
	c.RunFor(time.Duration(iters)*time.Second/10 + 10*time.Second)
	c.Stop()
	if count < 2 {
		return BandwidthResult{Size: size, Messages: count}
	}
	// The first message's completion marks steady-state start.
	bytes := uint64(size) * uint64(count-1)
	return BandwidthResult{Size: size, MBps: stats.Bandwidth(bytes, last.Sub(first)), Messages: count}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
