// Command sanchaos runs seed-driven chaos campaigns against the simulated
// platform and prints a degradation report per campaign: faults injected,
// delivery outcome, remap pacing, delivery-stall (MTTR) statistics, and
// any violated invariants. Same seed, same campaign → byte-identical
// event log.
//
// Every campaign runs with a flight recorder attached: when an invariant
// check fails, the recorder's fault-triggered snapshots (the trace events
// leading up to each anomaly and to the violation itself) are dumped with
// the report, so a failing campaign ships its own post-mortem.
//
// Usage:
//
//	sanchaos                          # run every campaign
//	sanchaos -campaign partition-heal # run one campaign
//	sanchaos -seed 42 -events         # different schedule, print event log
//	sanchaos -reps 16 -workers 4      # 16 seeds per campaign, 4 OS threads
//	sanchaos -liveness                # baseline vs liveness variant, side by side
//	sanchaos -list                    # list campaigns
//
// Scale tier — thousand-host datacenter fabrics on the sharded engine:
//
//	sanchaos -topo fattree:8 -scenario flapstorm   # correlated flap burst, exactly-once audit
//	sanchaos -topo fattree:16 -scenario flapstorm  # same at 1024 hosts
//	sanchaos -topo dragonfly:4,4,4 -scenario gray  # lossy-but-up trunks
//	sanchaos -scenario stalemap                    # sequential stale-map divergence campaign
//
// -topo takes a topology spec (fattree:K, dragonfly:A,P,H,
// torus:HP,D1,D2,...). flapstorm and gray run on the sharded parallel
// engine — -workers then sets the engine's OS-thread count, and results
// are byte-identical for any value. stalemap needs the on-demand mapper
// and therefore runs the sequential stale-map campaign, without -topo.
//
// -liveness runs every selected campaign twice — once under the paper's
// fixed-timer baseline and once with per-path liveness sessions plus
// RTT-adaptive retransmission — and reports both, so the mttr_p50/mttr_p99
// columns (also present in -json output) compare detection+recovery time
// directly.
//
// -reps runs each campaign under reps consecutive seeds (seed..seed+reps-1);
// -workers drives the (campaign, seed) grid through the parallel campaign
// pool (internal/parsim). Every replica is an independent deterministic
// simulation; reports are gathered by grid index and printed in campaign,
// then seed, order — identical output for any worker count.
//
// Exit status is nonzero if any campaign violates an invariant, and 2 for
// a flag the selected mode does not read (say -events under flapstorm).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/core"
	"sanft/internal/enginestat"
	"sanft/internal/metrics"
	"sanft/internal/parsim"
	"sanft/internal/report"
	"sanft/internal/trace"
)

var (
	campaign = flag.String("campaign", "all", "campaign name, or \"all\"")
	seed     = flag.Int64("seed", 1, "campaign seed (drives fault schedule and traffic)")
	reps     = flag.Int("reps", 1, "replicas per campaign: seeds seed..seed+reps-1")
	workers  = flag.Int("workers", 1, "campaign pool workers (0 = GOMAXPROCS)")
	liveness = flag.Bool("liveness", false,
		"run each campaign under both the baseline and the liveness/adaptive variant")
	events = flag.Bool("events", false, "print the full event log per campaign")
	asJSON = flag.Bool("json", false, "emit one JSON object per campaign instead of text")
	list   = flag.Bool("list", false, "list available campaigns and exit")
	topo   = flag.String("topo", "fattree:8",
		"scale-run topology spec: fattree:K | dragonfly:A,P,H | torus:HP,D1,D2,...")
	scenario = flag.String("scenario", "",
		"scale scenario: flapstorm | gray (sharded, on -topo) | stalemap (sequential campaign)")
	flows    = flag.Int("flows", 0, "scale-run flow count (0 = one per host)")
	httpAddr = flag.String("http", "",
		"serve live telemetry on this address during the grid: Prometheus /metrics (cumulative across finished runs), /progress, /debug/pprof")
	httpHold = flag.Duration("http-hold", 0,
		"with -http: keep the telemetry server up this long after the grid finishes (final scrape window)")
)

// modeFlags lists, per mode, every flag that mode reads.
var modeFlags = map[string][]string{
	"list":     {"list"},
	"campaign": {"campaign", "seed", "reps", "workers", "liveness", "events", "json", "http", "http-hold"},
	"scale":    {"scenario", "topo", "seed", "reps", "workers", "flows", "json"},
	"stalemap": {"scenario", "seed", "reps", "events", "json"},
}

// mode names the run the parsed flags select: -list, a sharded scale
// scenario on -topo, the sequential stale-map campaign, or the campaign
// grid (the default).
func mode() string {
	switch {
	case *list:
		return "list"
	case *scenario == "stalemap":
		return "stalemap"
	case *scenario != "":
		return "scale"
	}
	return "campaign"
}

// strayFlags returns the flags set in fs that mode does not read. The
// campaign grid reads -http-hold only alongside -http.
func strayFlags(fs *flag.FlagSet, mode string) []string {
	var out []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(modeFlags[mode], f.Name) {
			out = append(out, "-"+f.Name)
		}
	})
	if mode == "campaign" && *httpAddr == "" && *httpHold != 0 {
		out = append(out, "-http-hold")
	}
	return out
}

func main() {
	flag.Parse()
	m := mode()
	if stray := strayFlags(flag.CommandLine, m); len(stray) > 0 {
		fmt.Fprintf(os.Stderr, "sanchaos: %s not read in %s mode\n", strings.Join(stray, ", "), m)
		os.Exit(2)
	}

	all := chaos.Campaigns()
	if m == "list" {
		for _, c := range all {
			fmt.Printf("%-16s %s\n", c.Name, c.About)
		}
		return
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *reps < 1 {
		*reps = 1
	}
	if m != "campaign" {
		os.Exit(runScale(*scenario, *topo, *seed, *reps, *workers, *flows, *events, *asJSON))
	}

	// One campaign list per protocol variant. With -liveness the grid holds
	// the baseline and the liveness build of every selected campaign,
	// interleaved per campaign so the two reports print adjacent.
	variants := []chaos.Variant{chaos.Baseline()}
	if *liveness {
		variants = append(variants, chaos.AdaptiveLiveness())
	}
	var todo []chaos.Campaign
	if *campaign == "all" {
		for i := range all {
			for _, v := range variants {
				c, _ := chaos.FindWith(all[i].Name, v)
				todo = append(todo, c)
			}
		}
	} else {
		for _, v := range variants {
			c, ok := chaos.FindWith(*campaign, v)
			if !ok {
				fmt.Fprintf(os.Stderr, "sanchaos: unknown campaign %q (try -list)\n", *campaign)
				os.Exit(2)
			}
			todo = append(todo, c)
		}
	}

	// The (campaign, seed) grid, in output order. The pool may execute it
	// in any order; reports are gathered by index so printing below is
	// deterministic.
	type job struct {
		c    chaos.Campaign
		seed int64
	}
	var jobs []job
	for _, c := range todo {
		for r := 0; r < *reps; r++ {
			jobs = append(jobs, job{c, *seed + int64(r)})
		}
	}

	// Live telemetry (-http): campaign clusters are built and torn down per
	// job, so /metrics serves a cumulative registry — each finished run's
	// metrics merge into it (on the worker goroutine, while that cluster is
	// quiescent) and the merged Prometheus render is republished. /progress
	// tracks the grid through the pool's Progress hook.
	var srv *enginestat.Server
	var agg *metrics.Observer
	var aggMu sync.Mutex
	pool := parsim.Pool{Workers: *workers}
	if *httpAddr != "" {
		var err error
		srv, err = enginestat.NewServer(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sanchaos: telemetry listen on %s: %v\n", *httpAddr, err)
			os.Exit(1)
		}
		agg = metrics.NewObserver(metrics.Config{})
		prog := &parsim.Progress{}
		prog.Begin(len(jobs))
		pool.Progress = prog
		srv.SetProgress(prog.Snapshot)
		fmt.Fprintf(os.Stderr, "sanchaos: telemetry on http://%s (/metrics /progress /debug/pprof)\n", srv.Addr())
	}

	start := time.Now()
	reports := parsim.Map(pool, len(jobs), func(i int) *chaos.Report {
		var cl *core.Cluster
		rep := jobs[i].c.RunInstrumented(jobs[i].seed, func(c *core.Cluster) {
			cl = c
			c.InstallTracer(trace.NewFlightRecorder(8192))
		})
		if srv != nil && cl != nil {
			publishMerged(srv, agg, &aggMu, cl)
		}
		return rep
	})

	failed := 0
	for _, rep := range reports {
		if err := report.Write(os.Stdout, rep, *asJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *events && !*asJSON {
			fmt.Println("  event log:")
			fmt.Println(indent(rep.EventLog))
		}
		if !rep.Passed() {
			failed++
			if rep.FlightDump != "" && !*asJSON {
				fmt.Println("  flight recorder (post-mortem):")
				fmt.Println(indent(rep.FlightDump))
			}
		}
		if !*asJSON {
			fmt.Println()
		}
	}
	if !*asJSON {
		fmt.Printf("%d/%d campaign runs passed (%d workers, %v wall time)\n",
			len(jobs)-failed, len(jobs), *workers, time.Since(start).Round(time.Millisecond))
	}
	if srv != nil {
		if *httpHold > 0 {
			fmt.Fprintf(os.Stderr, "sanchaos: holding telemetry server %v for a final scrape\n", *httpHold)
			time.Sleep(*httpHold)
		}
		srv.Close()
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runScale drives the scale tier: flapstorm and gray build a sharded
// thousand-host cluster from the -topo spec and audit exactly-once
// delivery; stalemap needs the on-demand mapper, so it dispatches to the
// sequential stale-map campaign. Returns the process exit code.
func runScale(scenario, topo string, seed int64, reps, workers, flows int, events, asJSON bool) int {
	if scenario == "stalemap" {
		c, _ := chaos.Find("stale-map")
		failed := 0
		for r := 0; r < reps; r++ {
			rep := c.RunInstrumented(seed+int64(r), func(cl *core.Cluster) {
				cl.InstallTracer(trace.NewFlightRecorder(8192))
			})
			if err := report.Write(os.Stdout, rep, asJSON); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if events && !asJSON {
				fmt.Println("  event log:")
				fmt.Println(indent(rep.EventLog))
			}
			if !rep.Passed() {
				failed++
				if rep.FlightDump != "" && !asJSON {
					fmt.Println("  flight recorder (post-mortem):")
					fmt.Println(indent(rep.FlightDump))
				}
			}
			if !asJSON {
				fmt.Println()
			}
		}
		if failed > 0 {
			return 1
		}
		return 0
	}
	failed := 0
	for r := 0; r < reps; r++ {
		rep, err := chaos.RunScale(chaos.ScaleOpts{
			Topo: topo, Scenario: scenario, Seed: seed + int64(r),
			Workers: workers, Flows: flows,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sanchaos: %v\n", err)
			return 2
		}
		if asJSON {
			if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		} else {
			fmt.Println(rep.String())
		}
		if !rep.Passed() {
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// publishMerged folds one finished (quiescent) campaign cluster's metrics
// into the cumulative registry and republishes the Prometheus render. The
// mutex serializes pool workers; HTTP handlers only ever see the published
// snapshot, never the registry itself.
func publishMerged(srv *enginestat.Server, agg *metrics.Observer, mu *sync.Mutex, cl *core.Cluster) {
	mu.Lock()
	defer mu.Unlock()
	agg.Registry().MergeFrom(cl.MergedObserver().Registry())
	var buf bytes.Buffer
	if err := agg.WritePrometheus(&buf); err == nil {
		srv.PublishMetrics(buf.Bytes())
	}
}

func indent(s string) string {
	out := "    "
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += "    "
		}
	}
	return out
}
