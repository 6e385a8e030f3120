package sanft

import (
	"fmt"
	"time"

	"sanft/internal/core"
	"sanft/internal/fault"
	"sanft/internal/microbench"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// This file holds the extension experiments: directions the paper names
// but leaves unexplored. §4.2: "since deadlock-free routes are not needed,
// the quality of the routes may be improved ... we do not investigate this
// any further"; §5.1.3: "we do not experiment with bursty errors".

// ---------------------------------------------------------------------------
// Extension 1 — route quality: shortest paths vs UP*/DOWN*
// ---------------------------------------------------------------------------

// RouteQualityRow summarizes route lengths on one topology.
type RouteQualityRow struct {
	Topology string
	Pairs    int
	// MeanShortest and MeanUpDown are average route lengths (switch
	// hops); Inflated counts pairs where UP*/DOWN* is strictly longer.
	MeanShortest float64
	MeanUpDown   float64
	Inflated     int
	// WorstStretch is the maximum UP*/DOWN*-to-shortest length ratio.
	WorstStretch float64
}

// RunRouteQuality quantifies the paper's §4.2 remark that dropping the
// deadlock-freedom requirement can improve route quality: it compares
// shortest-path routes (what the on-demand mapper installs) against
// UP*/DOWN* routes (what conventional full-map schemes must use) across
// several topologies.
func RunRouteQuality(seed int64) []RouteQualityRow {
	type topo struct {
		name  string
		build func() *topology.Network
	}
	topos := []topo{
		{"fig2", func() *topology.Network { return topology.NewFig2().Net }},
		{"ring6", func() *topology.Network { nw, _ := topology.Ring(6, 2); return nw }},
		{"random", func() *topology.Network {
			nw, _ := topology.Random(12, 6, 8, 3.4, seed)
			return nw
		}},
	}
	var out []RouteQualityRow
	for _, tp := range topos {
		nw := tp.build()
		ud, err := routing.NewUpDown(nw, topology.None)
		if err != nil {
			continue
		}
		row := RouteQualityRow{Topology: tp.name, WorstStretch: 1}
		var sumS, sumU int
		hosts := nw.Hosts()
		for _, a := range hosts {
			for _, b := range hosts {
				if a == b {
					continue
				}
				rs, err1 := routing.Shortest(nw, a, b)
				ru, err2 := ud.Route(a, b)
				if err1 != nil || err2 != nil {
					continue
				}
				row.Pairs++
				sumS += len(rs)
				sumU += len(ru)
				if len(ru) > len(rs) {
					row.Inflated++
					if s := float64(len(ru)) / float64(len(rs)); s > row.WorstStretch {
						row.WorstStretch = s
					}
				}
			}
		}
		if row.Pairs > 0 {
			row.MeanShortest = float64(sumS) / float64(row.Pairs)
			row.MeanUpDown = float64(sumU) / float64(row.Pairs)
		}
		out = append(out, row)
	}
	return out
}

// RouteQualityReport renders the comparison as the shared Report form.
func RouteQualityReport(rows []RouteQualityRow) *ReportTable {
	t := &ReportTable{
		Name:   "Extension: route quality — shortest (on-demand) vs UP*/DOWN* (full-map)",
		Header: []string{"topology", "pairs", "mean-shortest", "mean-up*/down*", "inflated-pairs", "worst-stretch"},
	}
	for _, r := range rows {
		t.Cells = append(t.Cells, []string{r.Topology, fmt.Sprint(r.Pairs),
			fmt.Sprintf("%.2f", r.MeanShortest), fmt.Sprintf("%.2f", r.MeanUpDown),
			fmt.Sprint(r.Inflated), fmt.Sprintf("%.2f", r.WorstStretch)})
	}
	return t
}

// ---------------------------------------------------------------------------
// Extension 2 — bursty vs uniform errors at equal rate
// ---------------------------------------------------------------------------

// BurstErrorRow compares the protocol under uniform and bursty loss of
// the same long-run rate.
type BurstErrorRow struct {
	Rate     float64
	BurstLen int
	Uniform  float64 // unidirectional MB/s
	Bursty   float64
}

// RunBurstErrors tests the paper's §5.1.3 assertion that "high, uniform
// error rates are a more stressful test" than bursts: at equal long-run
// rate, correlated drops cost the go-back-N protocol one recovery cycle
// for a whole burst, while uniform drops pay one cycle per packet.
func RunBurstErrors(size int, rates []float64, burstLen int, opt Options) []BurstErrorRow {
	opt = opt.defaults()
	if rates == nil {
		rates = []float64{1e-3, 1e-2}
	}
	if burstLen == 0 {
		burstLen = 8
	}
	var out []BurstErrorRow
	for _, rate := range rates {
		n := opt.iters(size, rate)
		run := func(dropper func() fault.Dropper) float64 {
			nw, hosts := topology.Star(2)
			c := core.New(core.Config{
				Net: nw, Hosts: hosts, FT: true,
				Retrans: retrans.Config{QueueSize: 32, Interval: time.Millisecond},
				Seed:    opt.Seed,
			})
			// Install the custom dropper on the sender's NIC by rebuilding
			// with core's hook: core only knows rates, so wire directly.
			c.NICAt(0).SetDropper(dropper())
			return microbench.Unidirectional(c, size, n).MBps
		}
		out = append(out, BurstErrorRow{
			Rate:     rate,
			BurstLen: burstLen,
			Uniform:  run(func() fault.Dropper { return fault.NewRandom(rate, opt.Seed) }),
			Bursty:   run(func() fault.Dropper { return fault.NewBurst(rate, burstLen, opt.Seed) }),
		})
	}
	return out
}

// BurstErrorReport renders the comparison as the shared Report form.
func BurstErrorReport(rows []BurstErrorRow) *ReportTable {
	t := &ReportTable{
		Name:   "Extension: uniform vs bursty errors at equal long-run rate (unidirectional)",
		Header: []string{"rate", "burst-len", "uniform-MB/s", "bursty-MB/s"},
	}
	for _, r := range rows {
		t.Cells = append(t.Cells, []string{fmt.Sprintf("%g", r.Rate), fmt.Sprint(r.BurstLen),
			fmt.Sprintf("%.1f", r.Uniform), fmt.Sprintf("%.1f", r.Bursty)})
	}
	return t
}

// ---------------------------------------------------------------------------
// Extension 3 — protocol state scaling: per-node vs per-connection
// ---------------------------------------------------------------------------

// StateScalingRow reports the retransmission-state footprint for one
// cluster size.
type StateScalingRow struct {
	Nodes        int
	ProcsPerNode int
	// PerNodeQueues is what this system allocates (the paper's choice):
	// one queue per remote NODE.
	PerNodeQueues int
	// PerConnQueues is what a per-connection design would need: one per
	// remote PROCESS pair.
	PerConnQueues int
}

// RunStateScaling quantifies §4.1.1's scalability argument: "using
// retransmission queues per pair of user processes would result in high
// resource requirement in the firmware."
func RunStateScaling(procsPerNode int, sizes []int) []StateScalingRow {
	if procsPerNode == 0 {
		procsPerNode = 2
	}
	if sizes == nil {
		sizes = []int{4, 8, 16, 32, 64, 128}
	}
	var out []StateScalingRow
	for _, n := range sizes {
		out = append(out, StateScalingRow{
			Nodes:         n,
			ProcsPerNode:  procsPerNode,
			PerNodeQueues: n - 1,
			PerConnQueues: (n - 1) * procsPerNode * procsPerNode,
		})
	}
	return out
}

// StateScalingReport renders the comparison as the shared Report form.
func StateScalingReport(rows []StateScalingRow) *ReportTable {
	t := &ReportTable{
		Name:   "Extension: firmware retransmission-state scaling (§4.1.1)",
		Header: []string{"nodes", "procs/node", "per-node-queues", "per-connection-queues"},
	}
	for _, r := range rows {
		t.Cells = append(t.Cells, []string{fmt.Sprint(r.Nodes), fmt.Sprint(r.ProcsPerNode),
			fmt.Sprint(r.PerNodeQueues), fmt.Sprint(r.PerConnQueues)})
	}
	return t
}

// ---------------------------------------------------------------------------
// Extension 4 — VI reliability levels
// ---------------------------------------------------------------------------

// ReliabilityLevelRow measures one of the Virtual Interface
// specification's reliability levels (discussed in the paper's related
// work: VI NICs need only implement unreliable delivery; the paper shows
// reliable delivery is cheap in firmware).
type ReliabilityLevelRow struct {
	Level     string
	Latency4B time.Duration
	UniMBps   float64
}

// RunReliabilityLevels compares the three VI levels on this platform:
// unreliable delivery (no protocol), reliable delivery (ack at NIC
// accept — the paper's scheme), and reliable reception (ack only after
// the data reaches host memory).
func RunReliabilityLevels(opt Options) []ReliabilityLevelRow {
	opt = opt.defaults()
	n := opt.iters(65536, 0)
	build := func(ft, rr bool) *core.Cluster {
		nw, hosts := topology.Star(2)
		return core.New(core.Config{
			Net: nw, Hosts: hosts, FT: ft,
			Retrans: retrans.Config{QueueSize: 32, Interval: time.Millisecond, ReliableReception: rr},
			Seed:    opt.Seed,
		})
	}
	row := func(name string, ft, rr bool) ReliabilityLevelRow {
		lat := microbench.Latency(build(ft, rr), 4, 20)
		bw := microbench.Unidirectional(build(ft, rr), 65536, n)
		return ReliabilityLevelRow{Level: name, Latency4B: lat.OneWay, UniMBps: bw.MBps}
	}
	return []ReliabilityLevelRow{
		row("unreliable-delivery", false, false),
		row("reliable-delivery", true, false),
		row("reliable-reception", true, true),
	}
}

// ReliabilityLevelsReport renders the comparison as the shared Report form.
func ReliabilityLevelsReport(rows []ReliabilityLevelRow) *ReportTable {
	t := &ReportTable{
		Name:   "Extension: VI reliability levels",
		Header: []string{"level", "4B-latency", "uni-64K-MB/s"},
	}
	for _, r := range rows {
		t.Cells = append(t.Cells, []string{r.Level, r.Latency4B.String(), fmt.Sprintf("%.1f", r.UniMBps)})
	}
	return t
}

// ---------------------------------------------------------------------------
// Extension 5 — cluster scalability: all-to-all aggregate throughput
// ---------------------------------------------------------------------------

// ScalabilityRow reports one cluster size's aggregate all-to-all
// throughput.
type ScalabilityRow struct {
	Hosts     int
	Aggregate float64 // MB/s summed over all receivers
	PerHost   float64
	// Retransmissions counts protocol retransmissions (should stay ~0
	// with no errors: contention alone must not trigger the timer).
	Retransmissions uint64
}

// RunScalability measures aggregate all-to-all bandwidth on a single
// crossbar as the cluster grows — the paper's receive-buffer argument
// (§5.1.1) asserts a receiver is never overwhelmed because each sender is
// guaranteed a buffer; here we check the protocol itself adds no
// congestion collapse: aggregate throughput should scale with host count
// until the crossbar's per-port limit binds.
func RunScalability(sizes []int, msgBytes, msgsPerPair int, opt Options) []ScalabilityRow {
	opt = opt.defaults()
	if sizes == nil {
		sizes = []int{2, 4, 8, 16}
	}
	if msgBytes == 0 {
		msgBytes = 65536
	}
	if msgsPerPair == 0 {
		msgsPerPair = 8
	}
	var out []ScalabilityRow
	for _, n := range sizes {
		nw, hosts := topology.Star(n)
		c := core.New(core.Config{
			Net: nw, Hosts: hosts, FT: true,
			Retrans: retrans.Config{QueueSize: 32, Interval: time.Millisecond},
			Seed:    opt.Seed,
		})
		var start, end sim.Time
		remaining := n * (n - 1) * msgsPerPair
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst {
					continue
				}
				src, dst := src, dst
				name := fmt.Sprintf("in-%d", src)
				exp := c.Endpoint(dst).Export(name, msgBytes)
				c.K.Spawn(fmt.Sprintf("recv-%d-%d", src, dst), func(p *sim.Proc) {
					for i := 0; i < msgsPerPair; i++ {
						exp.WaitNotification(p)
						remaining--
						end = p.Now()
						if remaining == 0 {
							c.StopSoon()
						}
					}
				})
				c.K.Spawn(fmt.Sprintf("send-%d-%d", src, dst), func(p *sim.Proc) {
					imp, err := c.Endpoint(src).Import(dst, name)
					if err != nil {
						panic(err)
					}
					for i := 0; i < msgsPerPair; i++ {
						imp.Send(p, 0, make([]byte, msgBytes), true)
					}
				})
			}
		}
		start = 0
		c.RunFor(5 * time.Minute)
		c.Stop()
		var retrans uint64
		for i := range hosts {
			retrans += c.NICAt(i).Counters().Get("pkts-retransmitted")
		}
		elapsed := end.Sub(start)
		bytes := uint64(n) * uint64(n-1) * uint64(msgsPerPair) * uint64(msgBytes)
		row := ScalabilityRow{Hosts: n, Retransmissions: retrans}
		if elapsed > 0 {
			row.Aggregate = float64(bytes) / elapsed.Seconds() / 1e6
			row.PerHost = row.Aggregate / float64(n)
		}
		out = append(out, row)
	}
	return out
}

// ScalabilityReport renders the scaling table as the shared Report form.
func ScalabilityReport(rows []ScalabilityRow) *ReportTable {
	t := &ReportTable{
		Name:   "Extension: all-to-all scalability on one crossbar (no errors)",
		Header: []string{"hosts", "aggregate-MB/s", "per-host-MB/s", "retransmissions"},
	}
	for _, r := range rows {
		t.Cells = append(t.Cells, []string{fmt.Sprint(r.Hosts), fmt.Sprintf("%.1f", r.Aggregate),
			fmt.Sprintf("%.1f", r.PerHost), fmt.Sprint(r.Retransmissions)})
	}
	return t
}

// ExtensionReports runs every extension experiment with its defaults and
// returns the reports in presentation order — the single entry point
// cmd/sanbench renders (text or JSON) through report.Write.
func ExtensionReports(opt Options) []Report {
	opt = opt.defaults()
	return []Report{
		RouteQualityReport(RunRouteQuality(opt.Seed)),
		BurstErrorReport(RunBurstErrors(65536, nil, 8, opt)),
		StateScalingReport(RunStateScaling(2, nil)),
		ReliabilityLevelsReport(RunReliabilityLevels(opt)),
		ScalabilityReport(RunScalability(nil, 0, 0, opt)),
	}
}
