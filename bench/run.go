package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"sanft/internal/core"
	"sanft/internal/metrics"
)

// phase names the parts of a cell the benchmark times apart.
type phase int

const (
	phaseSetup    phase = iota // topology, cluster and traffic construction
	phaseSimulate              // the simulation itself
	phaseAudit                 // invariant checks, digests, counter reads
	numPhases
)

var phaseNames = [numPhases]string{"setup", "simulate", "audit"}

// span is one timed interval of a pass: a whole cell ("cell") or one of
// its phases. The phases of a cell share its id, so a span file can be
// regrouped into cells.
type span struct {
	Cell    int    `json:"cell"`
	Pass    int    `json:"pass"`
	Name    string `json:"name"`
	Label   string `json:"label"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Traced  bool   `json:"traced"`
}

// simCounts are simulated counts summed over a pass's clusters.
type simCounts struct {
	events, epochs, exchanged                          uint64
	sent, retransmitted, acksSent, piggybacked, stalls uint64
	accepted                                           uint64
	injected, dropped, probes, remaps                  uint64
}

// goStats are process-wide runtime counters, read around each simulate
// phase so their deltas charge the simulation and nothing else.
type goStats struct {
	allocBytes, mallocs, gcCycles, gcCPU, totalCPU float64
}

var goSampleNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGo() goStats {
	s := make([]rtmetrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return goStats{v[0], v[1], v[2], v[3], v[4]}
}

func (g goStats) sub(o goStats) goStats {
	return goStats{g.allocBytes - o.allocBytes, g.mallocs - o.mallocs,
		g.gcCycles - o.gcCycles, g.gcCPU - o.gcCPU, g.totalCPU - o.totalCPU}
}

func (g goStats) add(o goStats) goStats {
	return goStats{g.allocBytes + o.allocBytes, g.mallocs + o.mallocs,
		g.gcCycles + o.gcCycles, g.gcCPU + o.gcCPU, g.totalCPU + o.totalCPU}
}

// rusage returns the process's user+system CPU seconds and its peak
// resident set in MB.
func rusage() (cpu, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, float64(ru.Maxrss) / 1024
}

// segment is one timed phase of one cell.
type segment struct {
	ph        phase
	wall, cpu float64 // seconds
}

// refEvery spaces the reference-loop samples within a pass.
const refEvery = 250 * time.Millisecond

// pass is one execution of a workload's whole unit of work at one seed.
// The workload marks its cells and phases, feeds its clusters' counters
// and its outputs' digest, and reports each unit's verdict through it.
// Every pass at one seed does the same work, so its segments line up
// with every other pass's.
type pass struct {
	seed   int64
	scale  float64
	traced bool

	index  int
	epoch  time.Time
	spans  []span
	nextID *int

	label     string
	cell      int
	open      bool
	cellStart time.Time
	ph        phase
	phStart   time.Time
	cpuStart  float64
	goAtSim   goStats

	segs     []segment
	refs     []time.Duration
	lastRef  time.Time
	wall     time.Duration
	speed    float64 // refNominal over this pass's fastest reference run
	goSim    goStats
	sim      simCounts
	msgs     uint64
	ops      uint64
	units    int
	failed   int
	busy     float64
	stall    float64
	digest   hash.Hash
	digestHx string
	profile  []byte
}

// begin starts a new cell (closing the previous one) in its setup phase.
func (p *pass) begin(label string) {
	p.end()
	p.sampleRef()
	*p.nextID++
	p.cell, p.label, p.open = *p.nextID, label, true
	p.cellStart = time.Now()
	p.startPhase(phaseSetup, p.cellStart)
}

// enter closes the current phase of the open cell and starts ph. A
// long phase may enter itself again to split into several segments.
func (p *pass) enter(ph phase) {
	p.closePhase(time.Now())
	p.sampleRef()
	p.startPhase(ph, time.Now())
}

// end closes the open cell, if any.
func (p *pass) end() {
	if !p.open {
		return
	}
	now := time.Now()
	p.closePhase(now)
	p.record("cell", p.cellStart, now)
	p.open = false
}

func (p *pass) startPhase(ph phase, now time.Time) {
	p.ph, p.phStart = ph, now
	p.cpuStart, _ = rusage()
	if ph == phaseSimulate {
		p.goAtSim = readGo()
	}
}

func (p *pass) closePhase(now time.Time) {
	if p.ph == phaseSimulate {
		p.goSim = p.goSim.add(readGo().sub(p.goAtSim))
	}
	cpu, _ := rusage()
	p.segs = append(p.segs, segment{ph: p.ph, wall: now.Sub(p.phStart).Seconds(), cpu: cpu - p.cpuStart})
	p.record(phaseNames[p.ph], p.phStart, now)
}

// sampleRef runs the reference loop between segments, at most once per
// refEvery of workload time. Its time belongs to no phase.
func (p *pass) sampleRef() {
	if !p.lastRef.IsZero() && time.Since(p.lastRef) < refEvery {
		return
	}
	p.refs = append(p.refs, reference())
	p.lastRef = time.Now()
}

func (p *pass) record(name string, start, end time.Time) {
	p.spans = append(p.spans, span{
		Cell: p.cell, Pass: p.index, Name: name, Label: p.label,
		StartNS: start.Sub(p.epoch).Nanoseconds(), DurNS: end.Sub(start).Nanoseconds(),
		Traced: p.traced,
	})
}

// check counts one unit of work (a cell, a campaign run, a seed, a shape
// assertion) and whether it passed.
func (p *pass) check(ok bool, format string, args ...any) {
	p.units++
	if !ok {
		p.failed++
		fmt.Fprintf(os.Stderr, "bench: FAIL %s\n", fmt.Sprintf(format, args...))
	}
}

// addCluster sums a finished cluster's simulated counts into the pass.
func (p *pass) addCluster(c *core.Cluster) {
	var reg *metrics.Registry
	if c.Sharded() {
		p.sim.events += c.TotalExecuted()
		p.sim.epochs += c.Epochs()
		p.sim.exchanged += c.Exchanged()
		reg = c.MergedObserver().Registry()
	} else {
		p.sim.events += c.K.Executed()
		reg = c.Metrics()
	}
	for _, h := range c.Hosts {
		ctr := c.NIC(h).Counters()
		p.sim.sent += ctr.Get("pkts-sent")
		p.sim.retransmitted += ctr.Get("pkts-retransmitted")
		p.sim.acksSent += ctr.Get("acks-sent")
		p.sim.piggybacked += ctr.Get("acks-piggybacked")
		p.sim.stalls += ctr.Get("send-buffer-stall")
		p.sim.accepted += ctr.Get("pkts-accepted")
	}
	p.sim.injected += reg.CounterTotal("fabric.pkts_injected")
	p.sim.dropped += reg.CounterTotal("fabric.pkts_dropped")
	p.sim.probes += reg.CounterTotal("mapping.host_probes") + reg.CounterTotal("mapping.switch_probes")
	p.sim.remaps += uint64(c.RemapStats.Attempts)
}

// runOpts are the settings of one child run: one workload at one seed.
type runOpts struct {
	seed         int64
	seconds      float64
	trace        bool
	scale        float64
	outDir       string
	updateGolden bool
}

// result is the benchmark's output contract for one run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs passes of w until the time budget is spent, then
// checks determinism and goldens and assembles the metrics. A traced run
// alternates untraced and traced passes, so the per-layer numbers and the
// tracing overhead come from one process.
func runWorkload(w *workload, o runOpts) (result, string) {
	prev := runtime.GOMAXPROCS(w.threads())
	defer runtime.GOMAXPROCS(prev)

	epoch := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	var passes []*pass
	var spans []span
	nextID := 0
	minPasses := 1
	if o.trace {
		minPasses = 2
	}
	for i := 0; ; i++ {
		if i >= minPasses && time.Since(epoch) >= budget {
			break
		}
		p := &pass{
			seed: o.seed, scale: o.scale, traced: o.trace && i%2 == 1,
			index: i, epoch: epoch, nextID: &nextID,
			digest: sha256.New(),
		}
		runPass(w, p)
		spans = append(spans, p.spans...)
		p.spans = nil
		passes = append(passes, p)
	}

	res := result{Correct: true}
	digest := passes[0].digestHx
	for _, p := range passes {
		res.Attempted += p.units
		res.Failed += p.failed
		if p.digestHx != digest {
			fmt.Fprintf(os.Stderr, "bench: FAIL %s pass %d digest %s differs from pass 0 (%s)\n",
				w.name, p.index, p.digestHx, digest)
			res.Failed += p.units - p.failed
		}
	}
	if want, pinned := goldenDigest(w.name, o.seed); pinned && o.scale == 1 && !o.updateGolden && want != digest {
		fmt.Fprintf(os.Stderr, "bench: FAIL %s seed %d digest %s, golden %s\n", w.name, o.seed, digest, want)
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0

	var plain, traced []*pass
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	if o.trace {
		res.Metrics = layerMetrics(plain, traced, o.scale)
		if err := writeTraceFiles(o.outDir, w.name, o.seed, spans, traced); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
	} else {
		res.Metrics = endToEndMetrics(plain)
	}
	return res, digest
}

// runPass executes one pass, under a CPU profile when it is traced.
func runPass(w *workload, p *pass) {
	var prof bytes.Buffer
	if p.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintf(os.Stderr, "bench: cpu profile: %v\n", err)
		}
	}
	t0 := time.Now()
	w.run(p)
	p.end()
	p.sampleRef()
	p.wall = time.Since(t0)
	if p.traced {
		pprof.StopCPUProfile()
		p.profile = prof.Bytes()
	}
	p.digestHx = hex.EncodeToString(p.digest.Sum(nil))
	best := p.refs[0]
	for _, r := range p.refs {
		best = min(best, r)
	}
	p.speed = float64(refNominal) / float64(best)
	fmt.Fprintf(os.Stderr, "bench: %s pass %d: %.3fs wall, fastest reference run %v\n",
		w.name, p.index, p.wall.Seconds(), best)
}

// segmentTime sums, over the segments whose phase keep accepts, the
// lower quartile of each segment's time across the passes, at reference
// speed: wall seconds, or CPU seconds when cpu is set. The lower quartile
// keeps a segment's quick runs, dropping bursts of interference as well
// as the odd run whose reference was slowed more than the segment.
func segmentTime(ps []*pass, keep func(phase) bool, cpu bool) float64 {
	if len(ps) == 0 {
		return 0
	}
	n := len(ps[0].segs)
	for _, p := range ps {
		n = min(n, len(p.segs))
	}
	total := 0.0
	xs := make([]float64, len(ps))
	for i := 0; i < n; i++ {
		if !keep(ps[0].segs[i].ph) {
			continue
		}
		for j, p := range ps {
			xs[j] = p.segs[i].wall * p.speed
			if cpu {
				xs[j] = p.segs[i].cpu * p.speed
			}
		}
		q1, _, _ := quartiles(xs)
		total += q1
	}
	return total
}

func anyPhase(phase) bool { return true }

func only(ph phase) func(phase) bool { return func(x phase) bool { return x == ph } }

// endToEndMetrics summarise the untraced passes.
func endToEndMetrics(ps []*pass) map[string]metricValue {
	_, peak := rusage()
	v := map[string]float64{
		"wall_s":      segmentTime(ps, anyPhase, false),
		"cpu_s":       segmentTime(ps, anyPhase, true),
		"setup_s":     segmentTime(ps, only(phaseSetup), false),
		"msgs_per_s":  ratio(float64(ps[0].msgs), segmentTime(ps, only(phaseSimulate), false)),
		"peak_rss_mb": peak,
	}
	return withUnits(endToEnd, v)
}

// layerMetrics combines the counts of the untraced passes with the
// profile, spans and engine profile of the traced ones.
func layerMetrics(plain, traced []*pass, scale float64) map[string]metricValue {
	v := profileFractions(traced)
	for ph := phase(0); ph < numPhases; ph++ {
		v["phase."+phaseNames[ph]+"_s"] = segmentTime(traced, only(ph), false)
	}
	v["bench.trace_overhead_frac"] = ratio(segmentTime(traced, anyPhase, false), segmentTime(plain, anyPhase, false)) - 1
	v["parsim.busy_frac"] = medianOf(traced, func(p *pass) float64 { return p.busy })
	v["parsim.stall_frac"] = medianOf(traced, func(p *pass) float64 { return p.stall })

	simulate := segmentTime(plain, only(phaseSimulate), false)
	first := plain[0]
	c := func(f func(s *simCounts) uint64) float64 {
		return medianOf(plain, func(p *pass) float64 { return float64(f(&p.sim)) })
	}
	perEvent := func(f func(p *pass) float64) float64 {
		return medianOf(plain, func(p *pass) float64 { return ratio(f(p), float64(p.sim.events)) })
	}
	v["sim.events"] = c(func(s *simCounts) uint64 { return s.events })
	v["sim.host_ns_per_event"] = ratio(simulate*1e9, float64(first.sim.events))
	v["sim.allocs_per_event"] = perEvent(func(p *pass) float64 { return p.goSim.mallocs })
	v["sim.bytes_per_event"] = perEvent(func(p *pass) float64 { return p.goSim.allocBytes })
	v["parsim.epochs"] = c(func(s *simCounts) uint64 { return s.epochs })
	v["parsim.exchanged"] = c(func(s *simCounts) uint64 { return s.exchanged })
	v["parsim.events_per_epoch"] = medianOf(plain, func(p *pass) float64 {
		if p.sim.epochs == 0 {
			return 0
		}
		return float64(p.sim.events) / float64(p.sim.epochs)
	})
	v["nic.pkts_sent"] = c(func(s *simCounts) uint64 { return s.sent })
	v["nic.pkts_retransmitted"] = c(func(s *simCounts) uint64 { return s.retransmitted })
	v["nic.acks_sent"] = c(func(s *simCounts) uint64 { return s.acksSent })
	v["nic.acks_piggybacked"] = c(func(s *simCounts) uint64 { return s.piggybacked })
	v["nic.send_buffer_stalls"] = c(func(s *simCounts) uint64 { return s.stalls })
	// Every data frame is accepted exactly once when delivery completes, so
	// accepted + retransmitted counts first sends plus retransmissions.
	v["retrans.useful_frac"] = medianOf(plain, func(p *pass) float64 {
		return ratio(float64(p.sim.accepted), float64(p.sim.accepted+p.sim.retransmitted))
	})
	v["fabric.pkts_injected"] = c(func(s *simCounts) uint64 { return s.injected })
	v["fabric.pkts_dropped"] = c(func(s *simCounts) uint64 { return s.dropped })
	v["mapping.probes"] = c(func(s *simCounts) uint64 { return s.probes })
	v["core.remap_attempts"] = c(func(s *simCounts) uint64 { return s.remaps })
	v["workload.ops_completed"] = float64(first.ops)
	v["workload.host_us_per_op"] = ratio(simulate*1e6, float64(first.ops))
	v["go.alloc_bytes"] = medianOf(plain, func(p *pass) float64 { return p.goSim.allocBytes })
	v["go.mallocs"] = medianOf(plain, func(p *pass) float64 { return p.goSim.mallocs })
	v["go.gc_cycles"] = medianOf(plain, func(p *pass) float64 { return p.goSim.gcCycles })
	v["go.gc_cpu_frac"] = medianOf(plain, func(p *pass) float64 { return ratio(p.goSim.gcCPU, p.goSim.totalCPU) })

	for name, x := range runMicroLoops(scale) {
		v[name] = x
	}
	return withUnits(perLayer(), v)
}

// withUnits attaches units to exactly the metrics defs names, in the
// shape the output contract wants; a metric without a value is 0.
func withUnits(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

// writeTraceFiles keeps a traced run's spans (JSONL) and the profile of
// its last traced pass under dir for later inspection.
func writeTraceFiles(dir, name string, seed int64, spans []span, traced []*pass) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace files: %w", err)
	}
	var b bytes.Buffer
	for _, s := range spans {
		fmt.Fprintf(&b, `{"cell":%d,"pass":%d,"name":%q,"label":%q,"start_ns":%d,"dur_ns":%d,"traced":%t}`+"\n",
			s.Cell, s.Pass, s.Name, s.Label, s.StartNS, s.DurNS, s.Traced)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.WriteFile(base+".spans.jsonl", b.Bytes(), 0o644); err != nil {
		return fmt.Errorf("trace files: %w", err)
	}
	if n := len(traced); n > 0 {
		if err := os.WriteFile(base+".cpu.pprof", traced[n-1].profile, 0o644); err != nil {
			return fmt.Errorf("trace files: %w", err)
		}
	}
	return nil
}

func medianOf(ps []*pass, f func(p *pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which the benchmark's acceptance rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
