package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"sanft"
	"sanft/internal/chaos"
	"sanft/internal/core"
	"sanft/internal/mapping"
	"sanft/internal/microbench"
	"sanft/internal/parsim"
	"sanft/internal/report"
	"sanft/internal/retrans"
	"sanft/internal/stats"
	"sanft/internal/topology"
	wl "sanft/internal/workload"
)

// workload is one benchmark workload: one pass of its work, and the
// number of OS threads its engine can use. Why each was chosen is in
// BENCHMARK.json and README.md.
type workload struct {
	name string
	// procs is the GOMAXPROCS the workload runs under: 1 for the
	// sequential engine, whose sim.Proc handoffs only get slower and
	// noisier when they migrate between OS threads, and the sharded
	// engine's worker count otherwise.
	procs int
	run   func(p *pass)
}

// threads caps procs at the machine's CPU count.
func (w *workload) threads() int { return min(w.procs, runtime.NumCPU()) }

var workloads = []*workload{
	{
		name:  "paper-figs",
		procs: 1,
		run:   runPaperFigs,
	},
	{
		name:  "sanload-ft16",
		procs: 1,
		run:   runSanload,
	},
	{
		name:  "flapstorm-1k",
		procs: flapWorkers,
		run:   runFlapstorm,
	},
	{
		name:  "chaos-suite",
		procs: 1,
		run:   runChaosSuite,
	},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// scaled shrinks a full-size count for scale < 1, never below floor.
func scaled(full int, scale float64, floor int) int {
	return max(floor, int(float64(full)*scale+0.5))
}

// ---------------------------------------------------------------------------
// paper-figs: Fig. 3 and the Fig. 8 grid on 2-host stars.
// ---------------------------------------------------------------------------

const fig3Iters = 30

var (
	fig8Queues = []int{2, 8, 32, 128}
	fig8Rates  = []float64{1e-2, 1e-3, 1e-4}
	fig8Sizes  = []int{1024, 4096, 65536, 1 << 20}
)

// fig8Iters is the Fig. 8 iteration-count rule of the root package
// (Options.iters): enough bytes for a stable bandwidth estimate and enough
// packets for minDrops drops, capped at maxMsgs. The benchmark runs it
// with minDrops 1 and at most 400 messages per cell.
func fig8Iters(size int, rate float64, maxMsgs int) int {
	const minDrops, minMsgs = 1, 10
	chunks := max(1, (size+4095)/4096)
	n := max(minMsgs, (8<<20)/size)
	if rate > 0 {
		n = max(n, int(math.Ceil(minDrops/rate/float64(chunks))))
	}
	return min(n, maxMsgs)
}

// twoNode mirrors the root package's per-cell micro-benchmark cluster.
func twoNode(ft bool, q int, rate float64, seed int64) *core.Cluster {
	nw, hosts := topology.Star(2)
	return core.New(core.Config{
		Net: nw, Hosts: hosts, FT: ft,
		Retrans:   retrans.Config{QueueSize: q, Interval: time.Millisecond},
		ErrorRate: rate,
		Seed:      seed,
	})
}

func runPaperFigs(p *pass) {
	maxMsgs := scaled(400, p.scale, 20)

	latency := func(label string, ft bool) stats.Breakdown {
		p.begin(label)
		c := twoNode(ft, 32, 0, p.seed)
		p.enter(phaseSimulate)
		r := microbench.Latency(c, 4, fig3Iters)
		p.enter(phaseAudit)
		p.addCluster(c)
		p.msgs += 2 * fig3Iters
		p.check(r.OneWay > 0, "%s: no latency measured", label)
		return r.Breakdown
	}
	fig3 := sanft.Fig3Result{NoFT: latency("fig3/noft", false), FT: latency("fig3/ft", true)}
	overhead := fig3.FT.Total() - fig3.NoFT.Total()
	p.check(overhead == 2*time.Microsecond, "fig3: FT overhead %v, paper reports 2.0us", overhead)

	// bandwidth runs one ping-pong or unidirectional cell and returns MB/s.
	bandwidth := func(label string, uni, ft bool, q int, rate float64, size, n int) float64 {
		p.begin(label)
		c := twoNode(ft, q, rate, p.seed)
		p.enter(phaseSimulate)
		var r microbench.BandwidthResult
		var msgs int
		if uni {
			r = microbench.Unidirectional(c, size, n)
			msgs = r.Messages
		} else {
			r = microbench.PingPong(c, size, n)
			msgs = 2 * r.Messages
		}
		p.enter(phaseAudit)
		p.addCluster(c)
		p.msgs += uint64(msgs)
		p.check(r.Messages == n, "%s: %d of %d messages", label, r.Messages, n)
		return r.MBps
	}
	var sweep sanft.SweepResult
	for _, size := range fig8Sizes {
		n := fig8Iters(size, 0, maxMsgs)
		label := fmt.Sprintf("fig8/noft/%d", size)
		sweep.Baseline = append(sweep.Baseline, sanft.SweepCell{
			Size:     size,
			PingPong: bandwidth(label+"/pp", false, false, 32, 0, size, n),
			Uni:      bandwidth(label+"/uni", true, false, 32, 0, size, n),
		})
	}
	uni1M := map[int]float64{}
	for _, q := range fig8Queues {
		for _, rate := range fig8Rates {
			for _, size := range fig8Sizes {
				n := fig8Iters(size, rate, maxMsgs)
				label := fmt.Sprintf("fig8/q%d/%g/%d", q, rate, size)
				cell := sanft.SweepCell{Timer: time.Millisecond, Queue: q, ErrorRate: rate, Size: size}
				cell.PingPong = bandwidth(label+"/pp", false, true, q, rate, size, n)
				cell.Uni = bandwidth(label+"/uni", true, true, q, rate, size, n)
				if rate == 1e-2 && size == 1<<20 {
					uni1M[q] = cell.Uni
				}
				sweep.Cells = append(sweep.Cells, cell)
			}
		}
	}
	p.end()
	// The paper's Fig. 8 shape: under heavy loss a very deep send queue
	// loses more to go-back-N than it gains in pipelining.
	p.check(uni1M[128] < uni1M[32], "fig8: uni(q=128, 1e-2, 1MB) %.1f MB/s not below uni(q=32) %.1f MB/s",
		uni1M[128], uni1M[32])
	fmt.Fprint(p.digest, fig3.String(), sweep.String())
}

// ---------------------------------------------------------------------------
// sanload-ft16: the production traffic grid on fattree:16.
// ---------------------------------------------------------------------------

const (
	sanloadTopo    = "fattree:16"
	sanloadHosts   = 16
	sanloadClients = 16
	sanloadRate    = 20000 // open-loop offered load, ops/s
)

var sanloadFaults = []string{"none", "linkflap"}

// sanloadHorizon sizes the simulated span so every operation completes
// before the run stops: the open loop needs ops/rate, the closed loop
// about as long (think 0.8ms per client over ops/clients ops), and the
// tail covers the linkflap schedule's 38ms plus retransmission drain. An
// operation still in flight at the horizon would read as a leaked buffer
// to the invariant oracle.
func sanloadHorizon(ops int) time.Duration {
	return time.Duration(1.25*float64(ops)/sanloadRate*float64(time.Second)) + 100*time.Millisecond
}

// strideHosts picks n hosts spread evenly across the list (copied from
// internal/workload).
func strideHosts(all []topology.NodeID, n int) []topology.NodeID {
	if n <= 0 || n >= len(all) {
		return all
	}
	stride := len(all) / n
	out := make([]topology.NodeID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, all[i*stride])
	}
	return out
}

// serverSplit picks how many of n hosts serve (copied from
// internal/workload): about a third, at least one, and two for KV so puts
// replicate.
func serverSplit(spec wl.Spec, n int) int {
	nSrv := n / 3
	if nSrv < 1 {
		nSrv = 1
	}
	if spec.Proto == wl.ProtoKV && nSrv < 2 && n >= 3 {
		nSrv = 2
	}
	return nSrv
}

// maxSwitchRadix returns the largest switch radix in the fabric (copied
// from internal/workload).
func maxSwitchRadix(nw *topology.Network) int {
	r := 0
	for _, id := range nw.Switches() {
		if k := nw.Node(id).Radix(); k > r {
			r = k
		}
	}
	if r == 0 {
		r = 16
	}
	return r
}

func runSanload(p *pass) {
	ops := scaled(3600, p.scale, 64)
	horizon := sanloadHorizon(ops)
	i := 0
	for _, proto := range []wl.Proto{wl.ProtoRPC, wl.ProtoKV, wl.ProtoStream} {
		for _, mode := range []wl.Mode{wl.ModeOpen, wl.ModeClosed} {
			for _, fault := range sanloadFaults {
				seed := parsim.ShardSeed(p.seed, i)
				i++
				spec := wl.Spec{
					Proto: proto, Mode: mode, Seed: seed,
					Clients: sanloadClients, Ops: ops, Rate: sanloadRate,
					Think: 800 * time.Microsecond, Pipeline: 1,
					SLO: report.SLO{Latency: time.Millisecond, Window: 50 * time.Millisecond},
				}
				label := fmt.Sprintf("%s/%s", spec.Scenario(), fault)
				p.begin(label)
				b, err := topology.ParseSpec(sanloadTopo)
				if err != nil {
					p.check(false, "%s: %v", label, err)
					continue
				}
				hosts := strideHosts(b.Hosts, sanloadHosts)
				c := core.New(core.Config{
					Net: b.Net, Hosts: hosts, FT: true,
					Retrans: retrans.Config{
						QueueSize:         16,
						Interval:          time.Millisecond,
						PermFailThreshold: 8 * time.Millisecond,
					},
					Mapper:    true,
					MapperCfg: mapping.Config{MaxRadix: maxSwitchRadix(b.Net)},
					Seed:      seed,
				})
				e := chaos.NewEngine(c, seed)
				nSrv := serverSplit(spec, len(hosts))
				servers, clients := hosts[:nSrv], hosts[nSrv:]
				d := wl.Attach(e, spec, clients, servers)
				if err := wl.InstallFault(e, fault, clients[0], servers[0]); err != nil {
					c.Stop()
					p.check(false, "%s: %v", label, err)
					continue
				}
				p.enter(phaseSimulate)
				c.RunFor(horizon)
				c.Stop()
				p.enter(phaseAudit)
				res := d.Result(sanloadTopo, fault, horizon)
				vios := chaos.CheckInvariants(e, d.Run(), chaos.CheckOpts{MaxRemapAttempts: 400})
				p.check(len(vios) == 0 && res.Completed == uint64(ops) && res.Errors == 0,
					"%s seed %d: %d/%d ops completed, %d errors, violations %v",
					label, seed, res.Completed, ops, res.Errors, vios)
				p.addCluster(c)
				p.msgs += uint64(d.Run().Delivered())
				p.ops += res.Completed
				js, err := json.Marshal(res)
				if err != nil {
					p.check(false, "%s: %v", label, err)
				}
				p.digest.Write(js)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// flapstorm-1k: a 1024-host flap storm on the sharded engine.
// ---------------------------------------------------------------------------

const (
	flapTopo    = "fattree:16"
	flapShards  = 16
	flapWorkers = 2
	flapGap     = 100 * time.Microsecond
	flapBytes   = 256
	flapWindow  = 20 * time.Millisecond
	flapHorizon = 60 * time.Millisecond
	flapSlice   = 5 * time.Millisecond
)

func runFlapstorm(p *pass) {
	msgs := scaled(200, p.scale, 4)
	events := scaled(400, p.scale, 8)
	label := fmt.Sprintf("%s/seed%d", flapTopo, p.seed)
	// Construction is sequential code: it runs on one P, as the sequential
	// workloads do, and the engine's run gets the workers' Ps back.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	p.begin(label)
	built, err := topology.ParseSpec(flapTopo)
	if err != nil {
		p.check(false, "%s: %v", label, err)
		return
	}
	hosts := built.Hosts
	c := core.New(core.Config{
		Net: built.Net, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize: 16,
			Interval:  time.Millisecond,
			// No mapper on the sharded engine: retransmission alone rides
			// out every (healing) fault, so the permanent-failure verdict
			// sits past the end of the run.
			PermFailThreshold: 4 * flapHorizon,
		},
		Engine:  core.EngineSharded,
		Plan:    core.ShardPlan{HostsPerShard: (len(hosts) + flapShards - 1) / flapShards},
		Workers: flapWorkers,
		Seed:    p.seed,
		Profile: p.traced,
	})
	ids := make([]int, len(built.Trunks))
	for i, l := range built.Trunks {
		ids[i] = l.ID
	}
	sched := chaos.FlapStormSchedule(ids, p.seed, events, flapWindow, time.Millisecond, 4*time.Millisecond)
	for i := range sched {
		sched[i].At += 2 * time.Millisecond // past startup, so first frames route cleanly
	}
	c.ScheduleLinkFlaps(sched)
	flows := chaos.ScaleFlows(hosts, 0)
	c.StartFlows(flows, msgs, flapBytes, flapGap)
	// The run is timed in slices, so a burst of interference spoils one
	// slice rather than the whole run.
	runtime.GOMAXPROCS(procs)
	p.enter(phaseSimulate)
	for t := flapSlice; t <= flapHorizon; t += flapSlice {
		c.RunFor(flapSlice)
		if t < flapHorizon {
			p.enter(phaseSimulate)
		}
	}
	c.Stop()
	p.enter(phaseAudit)

	// Exactly-once audit over the merged delivery log: sort the
	// (src, dst, msg) keys, then every flow must show msgs 1..msgs once.
	ds := c.Deliveries()
	keys := make([][3]uint64, len(ds))
	buf := make([]byte, 0, 48)
	for i, d := range ds {
		keys[i] = [3]uint64{uint64(d.Src), uint64(d.Dst), d.Msg}
		buf = buf[:0]
		for _, x := range [...]uint64{uint64(d.At), uint64(d.Src), uint64(d.Dst), d.Msg, uint64(d.Gen), d.Seq} {
			buf = binary.LittleEndian.AppendUint64(buf, x)
		}
		p.digest.Write(buf)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	want := make(map[[2]uint64]bool, len(flows))
	for _, f := range flows {
		want[[2]uint64{uint64(f.Src), uint64(f.Dst)}] = true
	}
	distinct, dups, stray := 0, 0, 0
	for i, k := range keys {
		switch {
		case i > 0 && k == keys[i-1]:
			dups++
		case !want[[2]uint64{k[0], k[1]}] || k[2] < 1 || k[2] > uint64(msgs):
			stray++
		default:
			distinct++
		}
	}
	expected := len(flows) * msgs
	p.check(distinct == expected && dups == 0 && stray == 0,
		"%s: %d of %d (flow, msg) pairs delivered, %d duplicates, %d stray", label, distinct, expected, dups, stray)
	fmt.Fprintf(p.digest, "epochs=%d exchanged=%d executed=%d\n", c.Epochs(), c.Exchanged(), c.TotalExecuted())
	p.addCluster(c)
	p.msgs += uint64(distinct)
	if prof := c.EngineProfile(); prof != nil {
		s := prof.Summarize()
		p.busy, p.stall = s.BusyFrac, s.StallFrac
	}
}

// ---------------------------------------------------------------------------
// chaos-suite: every baseline campaign at consecutive seeds.
// ---------------------------------------------------------------------------

func runChaosSuite(p *pass) {
	seeds := int64(scaled(2, p.scale, 1))
	for _, camp := range chaos.Campaigns() {
		for s := p.seed; s < p.seed+seeds; s++ {
			label := fmt.Sprintf("%s/seed%d", camp.Name, s)
			p.begin(label)
			var c *core.Cluster
			// The hook fires once the campaign's cluster is built, before
			// its traffic and faults: the end of setup.
			rep := camp.RunInstrumented(s, func(cl *core.Cluster) {
				c = cl
				p.enter(phaseSimulate)
			})
			p.enter(phaseAudit)
			p.check(rep.Passed(), "%s: %v", label, rep.Violations)
			if c != nil {
				p.addCluster(c)
			}
			p.msgs += uint64(rep.Delivered)
			fmt.Fprintf(p.digest, "%s seed=%d delivered=%d dups=%d remaps=%d attempts=%d mttr_p50=%d mttr_p99=%d violations=%v\n",
				camp.Name, s, rep.Delivered, rep.Duplicates, rep.Remaps, rep.RemapStats.Attempts,
				rep.MTTRp50, rep.MTTRp99, rep.Violations)
		}
	}
}
