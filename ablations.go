package sanft

import (
	"fmt"
	"time"

	"sanft/internal/core"
	"sanft/internal/mapping"
	"sanft/internal/microbench"
	"sanft/internal/report"
	"sanft/internal/retrans"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// ---------------------------------------------------------------------------
// Ablation 1 — on-demand partial mapping vs conventional full mapping
// ---------------------------------------------------------------------------

// MappingAblationRow compares the two schemes for one target distance.
type MappingAblationRow struct {
	Hops           int
	OnDemandProbes int
	OnDemandTime   time.Duration
	FullProbes     int
	FullTime       time.Duration
}

// RunMappingAblation measures, on the Figure 2 testbed, the on-demand
// mapper stopping at each target versus the conventional scheme that maps
// the entire network before routing anything (§4.2's motivating
// comparison).
func RunMappingAblation(opt Options) []MappingAblationRow {
	opt = opt.defaults()
	fullProbes, fullTime := func() (int, time.Duration) {
		f := topology.NewFig2()
		c := fig2Cluster(f, opt.Seed)
		m := mapping.New(c.K, c.NIC(f.Mapper), mapping.Config{})
		var st mapping.Stats
		c.K.Spawn("full-map", func(p *sim.Proc) {
			_, st = m.FullMap(p)
			c.StopSoon()
		})
		c.RunFor(time.Minute)
		c.Stop()
		return st.Total(), st.Elapsed
	}()
	var rows []MappingAblationRow
	for hop := 0; hop < 4; hop++ {
		f := topology.NewFig2()
		c := fig2Cluster(f, opt.Seed)
		m := mapping.New(c.K, c.NIC(f.Mapper), mapping.Config{})
		var st mapping.Stats
		target := f.Targets[hop]
		c.K.Spawn("on-demand", func(p *sim.Proc) {
			_, _, st, _ = m.MapTo(p, target)
			c.StopSoon()
		})
		c.RunFor(time.Minute)
		c.Stop()
		rows = append(rows, MappingAblationRow{
			Hops:           hop + 1,
			OnDemandProbes: st.Total(),
			OnDemandTime:   st.Elapsed,
			FullProbes:     fullProbes,
			FullTime:       fullTime,
		})
	}
	return rows
}

func fig2Cluster(f *topology.Fig2, seed int64) *core.Cluster {
	return core.New(core.Config{
		Net:     f.Net,
		Hosts:   f.Net.Hosts(),
		FT:      true,
		Retrans: retrans.Config{QueueSize: 32, Interval: time.Millisecond},
		Seed:    seed,
	})
}

// MappingAblationString renders the comparison.
func MappingAblationString(rows []MappingAblationRow) string {
	header := []string{"#hops", "on-demand-probes", "on-demand-time", "full-map-probes", "full-map-time"}
	var rs [][]string
	for _, r := range rows {
		rs = append(rs, []string{fmt.Sprint(r.Hops),
			fmt.Sprint(r.OnDemandProbes), r.OnDemandTime.String(),
			fmt.Sprint(r.FullProbes), r.FullTime.String()})
	}
	return "Ablation: on-demand partial mapping vs full network map\n" + report.Grid(header, rs)
}

// ---------------------------------------------------------------------------
// Ablation 2 — piggybacked vs always-explicit acknowledgments
// ---------------------------------------------------------------------------

// AckAblationResult compares two-way-traffic cost with and without
// piggybacking.
type AckAblationResult struct {
	Size                int
	WithPiggyback       float64 // ping-pong MB/s
	WithoutPiggyback    float64
	PiggybackedAcks     uint64
	ExplicitAcksWith    uint64
	ExplicitAcksWithout uint64
}

// RunAckAblation measures ping-pong bandwidth and ack traffic with
// piggybacking on (the paper's optimization) and off.
func RunAckAblation(size int, opt Options) AckAblationResult {
	opt = opt.defaults()
	n := opt.iters(size, 0)
	res := AckAblationResult{Size: size}

	run := func(noPiggy bool) (float64, uint64, uint64) {
		nw, hosts := topology.Star(2)
		c := core.New(core.Config{
			Net: nw, Hosts: hosts, FT: true,
			Retrans: retrans.Config{QueueSize: 32, Interval: time.Millisecond, NoPiggyback: noPiggy},
			Seed:    opt.Seed,
		})
		bw := microbench.PingPong(c, size, n).MBps
		piggy := c.NICAt(0).Counters().Get("acks-piggybacked") + c.NICAt(1).Counters().Get("acks-piggybacked")
		explicit := c.NICAt(0).Counters().Get("acks-sent") + c.NICAt(1).Counters().Get("acks-sent")
		return bw, piggy, explicit
	}
	var piggy uint64
	res.WithPiggyback, piggy, res.ExplicitAcksWith = run(false)
	res.PiggybackedAcks = piggy
	res.WithoutPiggyback, _, res.ExplicitAcksWithout = run(true)
	return res
}

func (r AckAblationResult) String() string {
	return fmt.Sprintf(
		"Ablation: piggybacked acks (size %d, ping-pong)\n"+
			"  with piggyback:    %.1f MB/s (%d piggybacked, %d explicit acks)\n"+
			"  without piggyback: %.1f MB/s (%d explicit acks)\n",
		r.Size, r.WithPiggyback, r.PiggybackedAcks, r.ExplicitAcksWith,
		r.WithoutPiggyback, r.ExplicitAcksWithout)
}

// ---------------------------------------------------------------------------
// Ablation 3 — sender-based feedback vs fixed ack period
// ---------------------------------------------------------------------------

// FeedbackAblationRow compares the adaptive policy against a fixed
// ack-every-N policy at one error rate: bandwidth and acknowledgment
// traffic.
type FeedbackAblationRow struct {
	Queue        int
	ErrorRate    float64
	Adaptive     float64 // unidirectional MB/s
	AdaptiveAcks uint64  // explicit acks sent by the receiver
	FixedN       int
	Fixed        float64
	FixedAcks    uint64
}

// RunFeedbackAblation probes what sender-based feedback actually buys.
//
// Findings (recorded in EXPERIMENTS.md):
//
//  1. Under saturating one-way traffic the sender is permanently
//     buffer-starved, so BOTH policies converge to an ack per packet
//     (the out-of-buffers escape dominates); ack volume differences only
//     appear off-saturation. Either way, explicit-ack volume is not a
//     bandwidth bottleneck at these packet sizes.
//  2. Feedback is NOT what causes the Figure 8 q=128 collapse under
//     errors: after a drop the sender keeps streaming until the QUEUE
//     fills regardless of ack policy, so post-drop waste is bounded by
//     queue headroom and the policies degrade identically. The queue
//     size itself is the mechanism.
//  3. What feedback buys is safety without tuning: with a tiny queue a
//     long fixed period would deadlock the sender against its own
//     buffer pool; the starvation escape (out of buffers → immediate
//     ack) is what adaptive feedback provides built-in.
func RunFeedbackAblation(size int, queues []int, rates []float64, opt Options) []FeedbackAblationRow {
	opt = opt.defaults()
	if queues == nil {
		queues = []int{32, 128}
	}
	if rates == nil {
		rates = []float64{0, 1e-2}
	}
	var rows []FeedbackAblationRow
	for _, q := range queues {
		for _, rate := range rates {
			n := opt.iters(size, rate)
			fixedN := 32
			run := func(fixed int) (float64, uint64) {
				nw, hosts := topology.Star(2)
				c := core.New(core.Config{
					Net: nw, Hosts: hosts, FT: true,
					Retrans:   retrans.Config{QueueSize: q, Interval: time.Millisecond, FixedAckEvery: fixed},
					ErrorRate: rate,
					Seed:      opt.Seed,
				})
				bw := microbench.Unidirectional(c, size, n).MBps
				acks := c.NICAt(1).Counters().Get("acks-sent")
				return bw, acks
			}
			row := FeedbackAblationRow{Queue: q, ErrorRate: rate, FixedN: fixedN}
			row.Adaptive, row.AdaptiveAcks = run(0)
			row.Fixed, row.FixedAcks = run(fixedN)
			rows = append(rows, row)
		}
	}
	return rows
}

// FeedbackAblationString renders the comparison.
func FeedbackAblationString(rows []FeedbackAblationRow) string {
	header := []string{"queue", "err-rate", "adaptive-MB/s", "adaptive-acks", "fixed-N", "fixed-MB/s", "fixed-acks"}
	var rs [][]string
	for _, r := range rows {
		rs = append(rs, []string{fmt.Sprint(r.Queue), fmt.Sprintf("%g", r.ErrorRate),
			fmt.Sprintf("%.1f", r.Adaptive), fmt.Sprint(r.AdaptiveAcks),
			fmt.Sprint(r.FixedN), fmt.Sprintf("%.1f", r.Fixed), fmt.Sprint(r.FixedAcks)})
	}
	return "Ablation: sender-based feedback vs fixed ack period (unidirectional)\n" + report.Grid(header, rs)
}
