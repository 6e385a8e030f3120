// Package stats holds the evaluation arithmetic that is not an event
// count: the five-stage latency breakdown of Figure 3 and the bandwidth
// conversion. Counters and histograms live in internal/metrics.
package stats

import (
	"fmt"
	"time"
)

// Breakdown is the paper's five-stage one-way latency decomposition
// (Figure 3): host send, NIC send firmware, wire, NIC receive firmware,
// host receive (DMA into host memory + notification).
type Breakdown struct {
	HostSend time.Duration
	NICSend  time.Duration
	Wire     time.Duration
	NICRecv  time.Duration
	HostRecv time.Duration
}

// Total returns the end-to-end one-way latency.
func (b Breakdown) Total() time.Duration {
	return b.HostSend + b.NICSend + b.Wire + b.NICRecv + b.HostRecv
}

func (b Breakdown) String() string {
	return fmt.Sprintf("host-send=%v nic-send=%v wire=%v nic-recv=%v host-recv=%v total=%v",
		b.HostSend, b.NICSend, b.Wire, b.NICRecv, b.HostRecv, b.Total())
}

// BreakdownAvg accumulates breakdowns and reports their mean.
type BreakdownAvg struct {
	sum   Breakdown
	count int
}

// Add accumulates one observation.
func (a *BreakdownAvg) Add(b Breakdown) {
	a.sum.HostSend += b.HostSend
	a.sum.NICSend += b.NICSend
	a.sum.Wire += b.Wire
	a.sum.NICRecv += b.NICRecv
	a.sum.HostRecv += b.HostRecv
	a.count++
}

// Count returns the number of observations.
func (a *BreakdownAvg) Count() int { return a.count }

// Mean returns the component-wise average breakdown.
func (a *BreakdownAvg) Mean() Breakdown {
	if a.count == 0 {
		return Breakdown{}
	}
	n := time.Duration(a.count)
	return Breakdown{
		HostSend: a.sum.HostSend / n,
		NICSend:  a.sum.NICSend / n,
		Wire:     a.sum.Wire / n,
		NICRecv:  a.sum.NICRecv / n,
		HostRecv: a.sum.HostRecv / n,
	}
}

// Bandwidth converts bytes over a duration to MB/s (decimal megabytes, as
// the paper reports).
func Bandwidth(bytes uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}
