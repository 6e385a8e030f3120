package sanft

import (
	"fmt"
	"io"
	"strings"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/core"
	"sanft/internal/trace"
)

// ChaosReport is the outcome of one chaos campaign run (re-exported for
// traced campaign runs; see RunTraced).
type ChaosReport = chaos.Report

// TraceSetup configures a traced run. The zero value runs the default
// workload: 8 hosts on one switch, each sending 4 messages of 1 KB to its
// ring neighbor, fault tolerance on, seed 1.
type TraceSetup struct {
	// Hosts is the cluster size (default 8). Ignored with Campaign set.
	Hosts int
	// Msgs is the number of messages per sender (default 4).
	Msgs int
	// Size is the message size in bytes (default 1024). Keep it at or
	// below the MTU (4096) for exact latency decompositions: multi-chunk
	// messages report the first chunk's breakdown against the whole
	// message's latency.
	Size int
	// Gap paces consecutive sends of one sender (default 50µs).
	Gap time.Duration
	// ErrorRate injects send-side drops (e.g. 1e-2) so retransmission
	// activity shows up in the trace. Default 0.
	ErrorRate float64
	// Seed drives all randomness. Same setup + same seed → byte-identical
	// timelines. Default 1.
	Seed int64
	// RingSize bounds the flight recorder (default 65536 events).
	RingSize int
	// Campaign, if set, runs the named chaos campaign (see internal/chaos)
	// with the flight recorder attached, instead of the workload above.
	Campaign string
	// Liveness enables per-path liveness sessions plus adaptive
	// retransmission for the traced run (campaign or workload), so
	// live-up/live-down events appear in the timeline.
	Liveness bool
}

func (ts TraceSetup) defaults() TraceSetup {
	if ts.Hosts == 0 {
		ts.Hosts = 8
	}
	if ts.Msgs == 0 {
		ts.Msgs = 4
	}
	if ts.Size == 0 {
		ts.Size = 1024
	}
	if ts.Gap == 0 {
		ts.Gap = 50 * time.Microsecond
	}
	if ts.Seed == 0 {
		ts.Seed = 1
	}
	if ts.RingSize == 0 {
		ts.RingSize = 65536
	}
	return ts
}

// MessageTrace is the per-message analysis row santrace prints: end-to-end
// latency with its host/NIC/wire decomposition (from the VMMC notification)
// and the fault-activity components derived from the message's span.
type MessageTrace struct {
	Src, Dst NodeID
	MsgID    uint64

	// Latency is end-to-end one-way latency (zero if the message never
	// completed). Host+NIC+Wire sum to it exactly for single-chunk
	// messages; Host/NIC/Wire are zero when no notification was captured
	// (campaign mode), in which case Latency comes from the span.
	Latency time.Duration
	Host    time.Duration // host send + host receive (PIO/DMA + notify)
	NIC     time.Duration // send + receive firmware
	Wire    time.Duration // injection to tail arrival

	// Blocked sums wormhole head-of-line blocking of the message's
	// packets; RetransWait sums time spent waiting for the periodic timer
	// to recover losses.
	Blocked     time.Duration
	RetransWait time.Duration
	Retransmits int
	Drops       int
	Complete    bool
}

// TraceResult is everything a traced run captured: the raw event stream,
// the reconstructed message spans, the merged per-message analysis, and
// the flight recorder (with any fault-triggered snapshots).
type TraceResult struct {
	Setup    TraceSetup
	Recorder *FlightRecorder
	Events   []TraceEvent
	Spans    []*TraceSpan
	Messages []MessageTrace
	// Chaos is the campaign report (nil in workload mode).
	Chaos *ChaosReport
}

// RunTraced builds a cluster with a flight recorder installed, drives
// either the default ring workload or a named chaos campaign through it,
// and returns the captured trace with per-message analysis.
func RunTraced(ts TraceSetup) (*TraceResult, error) {
	ts = ts.defaults()
	fr := NewFlightRecorder(ts.RingSize)
	res := &TraceResult{Setup: ts, Recorder: fr}
	notes := make(map[TraceSpanKey]Notification)
	if ts.Campaign != "" {
		v := chaos.Baseline()
		if ts.Liveness {
			v = chaos.AdaptiveLiveness()
		}
		camp, ok := chaos.FindWith(ts.Campaign, v)
		if !ok {
			return nil, fmt.Errorf("sanft: unknown chaos campaign %q", ts.Campaign)
		}
		res.Chaos = camp.RunInstrumented(ts.Seed, func(c *core.Cluster) {
			c.InstallTracer(fr)
		})
	} else {
		opts := []Option{
			WithStar(ts.Hosts),
			WithFaultTolerance(),
			WithErrorRate(ts.ErrorRate),
			WithSeed(ts.Seed),
			WithFlightRecorder(fr),
		}
		if ts.Liveness {
			opts = append(opts, WithLiveness())
		}
		c := New(opts...)
		runTraceWorkload(c, ts, notes)
	}
	res.Events = fr.Ring().Events()
	res.Spans = BuildSpans(res.Events)
	for _, sp := range res.Spans {
		m := MessageTrace{
			Src: sp.Key.Src, Dst: sp.Key.Dst, MsgID: sp.Key.Msg,
			Latency:     sp.Latency(),
			Blocked:     sp.Blocked,
			RetransWait: sp.RetransWait,
			Retransmits: sp.Retransmits,
			Drops:       sp.Drops,
			Complete:    sp.Complete(),
		}
		if n, ok := notes[sp.Key]; ok {
			m.Latency = n.Latency
			m.Host = n.Breakdown.HostSend + n.Breakdown.HostRecv
			m.NIC = n.Breakdown.NICSend + n.Breakdown.NICRecv
			m.Wire = n.Breakdown.Wire
		}
		res.Messages = append(res.Messages, m)
	}
	return res, nil
}

// runTraceWorkload drives the default workload: host i sends Msgs messages
// to its ring neighbor i+1, each awaited by the receiver's notification.
func runTraceWorkload(c *Cluster, ts TraceSetup, notes map[TraceSpanKey]Notification) {
	n := ts.Hosts
	exps := make([]*Export, n)
	for i := 0; i < n; i++ {
		exps[i] = c.EndpointAt(i).Export("santrace", ts.Size*ts.Msgs)
	}
	remaining := n
	for i := 0; i < n; i++ {
		i := i
		dst := (i + 1) % n
		c.K.Spawn(fmt.Sprintf("santrace-rx-%d", dst), func(p *Proc) {
			for m := 0; m < ts.Msgs; m++ {
				nt := exps[dst].WaitNotification(p)
				notes[TraceSpanKey{Src: nt.Src, Dst: c.Host(dst), Msg: nt.MsgID}] = nt
			}
			remaining--
			if remaining == 0 {
				c.StopSoon()
			}
		})
		c.K.Spawn(fmt.Sprintf("santrace-tx-%d", i), func(p *Proc) {
			imp, err := c.EndpointAt(i).Import(c.Host(dst), "santrace")
			if err != nil {
				panic(err)
			}
			data := make([]byte, ts.Size)
			for m := 0; m < ts.Msgs; m++ {
				imp.Send(p, m*ts.Size, data, true)
				p.Sleep(ts.Gap)
			}
		})
	}
	c.RunFor(30 * time.Second)
	c.Stop()
}

// TimelineText renders the deterministic text timeline: one line per
// event, in emission order. last > 0 keeps only the newest `last` events
// (the interesting tail of long campaigns); 0 keeps everything.
func (r *TraceResult) TimelineText(last int) string {
	ev := r.Events
	if last > 0 && len(ev) > last {
		ev = ev[len(ev)-last:]
	}
	var b strings.Builder
	if len(r.Events) > len(ev) {
		fmt.Fprintf(&b, "... %d earlier events elided ...\n", len(r.Events)-len(ev))
	}
	_ = trace.WriteTimeline(&b, ev)
	return b.String()
}

// WritePerfetto writes the full captured event stream as Chrome
// trace-event JSON, loadable in ui.perfetto.dev or chrome://tracing.
func (r *TraceResult) WritePerfetto(w io.Writer) error {
	return trace.WriteChromeTrace(w, r.Events)
}

// BreakdownReport renders the per-message latency table: end-to-end
// latency, its host/NIC/wire decomposition, and the blocking/retransmit
// components derived from the span.
func (r *TraceResult) BreakdownReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-4s %-4s %-12s %-12s %-12s %-12s %-12s %-12s %-4s %-5s\n",
		"src", "dst", "msg", "latency", "host", "nic", "wire", "blocked", "rtx-wait", "rtx", "drops")
	var complete int
	var sum time.Duration
	for _, m := range r.Messages {
		lat := m.Latency.String()
		if !m.Complete {
			lat = "incomplete"
		} else {
			complete++
			sum += m.Latency
		}
		fmt.Fprintf(&b, "%-4d %-4d %-4d %-12s %-12v %-12v %-12v %-12v %-12v %-4d %-5d\n",
			m.Src, m.Dst, m.MsgID, lat, m.Host, m.NIC, m.Wire,
			m.Blocked, m.RetransWait, m.Retransmits, m.Drops)
	}
	if complete > 0 {
		fmt.Fprintf(&b, "%d messages complete, mean latency %v\n",
			complete, sum/time.Duration(complete))
	}
	if complete < len(r.Messages) {
		fmt.Fprintf(&b, "%d messages incomplete\n", len(r.Messages)-complete)
	}
	return b.String()
}

// RecoveryReport reconstructs the event window around each anomaly
// (watchdog reset, unreachable verdict, quarantine): the trigger plus
// every related event within [-before, +after]. At most max anomalies are
// rendered (0 = no bound).
func (r *TraceResult) RecoveryReport(before, after time.Duration, max int) string {
	tls := trace.RecoveryTimelines(r.Events, before, after, max)
	if len(tls) == 0 && r.Recorder != nil {
		// On long runs the anomalies may have scrolled out of the live
		// ring; reconstruct from the frozen snapshots instead.
		tls = trace.RecoveryFromSnapshots(r.Recorder.Snapshots(), before, max)
	}
	if len(tls) == 0 {
		return "no anomalies observed\n"
	}
	var b strings.Builder
	for _, t := range tls {
		b.WriteString(t.String())
	}
	return b.String()
}
