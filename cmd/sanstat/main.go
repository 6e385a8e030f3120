// Command sanstat exports the simulator's metrics time series. It runs
// either a chaos campaign (instrumented through RunInstrumented) or a
// plain all-pairs workload on a star, samples the metrics registry on a
// fixed simulated-time cadence, and writes the result in one of three
// formats:
//
//	jsonl    one JSON object per sample (the deterministic dump:
//	         identical seeds produce byte-identical output)
//	prom     Prometheus text exposition of the final registry state
//	summary  human-readable digest (counters, gauges, histograms)
//
// Usage:
//
//	sanstat                               # link-flap campaign, JSONL
//	sanstat -campaign partition-heal -format summary
//	sanstat -workload -hosts 4 -rate 0.01 -format prom
//	sanstat -sample 500us -seed 42
//	sanstat -liveness -format summary    # liveness sessions on: liveness.* series
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sanft"
	"sanft/internal/chaos"
	"sanft/internal/core"
)

func main() {
	campaign := flag.String("campaign", "link-flap", "chaos campaign to instrument (see sanchaos -list)")
	workload := flag.Bool("workload", false, "run a plain all-pairs star workload instead of a campaign")
	hosts := flag.Int("hosts", 4, "star size for -workload")
	rate := flag.Float64("rate", 0.01, "injected error rate for -workload")
	msgs := flag.Int("msgs", 20, "messages per host pair for -workload")
	seed := flag.Int64("seed", 1, "simulation seed")
	sample := flag.Duration("sample", time.Millisecond, "sampling interval (simulated time)")
	format := flag.String("format", "jsonl", "output format: jsonl, prom or summary")
	liveness := flag.Bool("liveness", false,
		"enable per-path liveness sessions + adaptive retransmission (exports liveness.* series)")
	flag.Parse()

	var obs *sanft.Observer
	if *workload {
		obs = runWorkload(*hosts, *rate, *msgs, *seed, *sample, *liveness)
	} else {
		obs = runCampaign(*campaign, *seed, *sample, *liveness)
	}

	var err error
	switch *format {
	case "jsonl":
		err = obs.WriteJSONL(os.Stdout)
	case "prom":
		err = obs.WritePrometheus(os.Stdout)
	case "summary":
		_, err = fmt.Print(obs.Summary())
	default:
		fmt.Fprintf(os.Stderr, "sanstat: unknown format %q (want jsonl, prom or summary)\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runCampaign executes the named chaos campaign with periodic sampling
// attached before any traffic or faults, plus one final sample after the
// cluster quiesces.
func runCampaign(name string, seed int64, every time.Duration, liveness bool) *sanft.Observer {
	v := chaos.Baseline()
	if liveness {
		v = chaos.AdaptiveLiveness()
	}
	c, ok := chaos.FindWith(name, v)
	if !ok {
		fmt.Fprintf(os.Stderr, "sanstat: unknown campaign %q (try sanchaos -list)\n", name)
		os.Exit(2)
	}
	var clu *core.Cluster
	var obs *sanft.Observer
	c.RunInstrumented(seed, func(cl *core.Cluster) {
		clu = cl
		obs = cl.Observer()
		obs.StartSampling(cl.K, every)
	})
	obs.SampleNow(clu.Now())
	return obs
}

// runWorkload drives an all-pairs message exchange on a lossy star — the
// micro-benchmark view of the registry, no faults beyond injected drops.
func runWorkload(hosts int, rate float64, msgs int, seed int64, every time.Duration, liveness bool) *sanft.Observer {
	opts := []sanft.Option{
		sanft.WithStar(hosts),
		sanft.WithFaultTolerance(),
		sanft.WithErrorRate(rate),
		sanft.WithSeed(seed),
		sanft.WithSampling(every),
	}
	if liveness {
		opts = append(opts, sanft.WithLiveness())
	}
	c := sanft.New(opts...)
	for i := 0; i < hosts; i++ {
		for j := 0; j < hosts; j++ {
			if i == j {
				continue
			}
			src, dst := i, j
			name := fmt.Sprintf("in-%d", src)
			exp := c.EndpointAt(dst).Export(name, 4096)
			c.K.Spawn(fmt.Sprintf("recv-%d-%d", src, dst), func(p *sanft.Proc) {
				for m := 0; m < msgs; m++ {
					exp.WaitNotification(p)
				}
			})
			c.K.Spawn(fmt.Sprintf("send-%d-%d", src, dst), func(p *sanft.Proc) {
				imp, err := c.EndpointAt(src).Import(c.Host(dst), name)
				if err != nil {
					panic(err)
				}
				for m := 0; m < msgs; m++ {
					imp.Send(p, 0, make([]byte, 1024), true)
				}
			})
		}
	}
	c.RunFor(10 * time.Second)
	c.Stop()
	obs := c.Observer()
	obs.SampleNow(c.Now())
	return obs
}
