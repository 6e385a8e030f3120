// Command sanload runs the production traffic tier: open- and
// closed-loop load generators (RPC, replicated KV, chunked streaming)
// over VMMC, across a topology × workload × fault grid, and reports the
// outcome as a per-scenario SLO table — latency quantiles, goodput,
// error rate, and SLO-minutes lost — plus a delta table restating what
// each fault cost relative to the fault-free baseline.
//
// Every replica is an independent deterministic simulation driven
// through the parsim pool: the same seed produces byte-identical tables
// for any -workers value, and each replica's run is audited by the
// chaos invariant oracle (complete delivery, exactly-once notification,
// no leaked buffers, bounded remapping) once it has stopped admitting
// operations at -dur and drained.
//
// Usage:
//
//	sanload                                    # rpc+kv+stream, open+closed, none+linkflap on fattree:16
//	sanload -topos fattree:4 -dur 300ms        # quick local run
//	sanload -protos kv -modes open -reps 4     # narrow the grid, more replicas
//	sanload -faults none,linkflap,gray,drop    # full fault sweep
//	sanload -workers 4                         # pool parallelism (identical output)
//	sanload -json                              # unified report JSON (two objects: SLO + delta)
//
// Exit status is nonzero if any replica violates an invariant.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"sanft/internal/parsim"
	"sanft/internal/report"
	"sanft/internal/workload"
)

func main() {
	topos := flag.String("topos", "fattree:16",
		"comma-separated topology specs (fattree:K | dragonfly:A,P,H | torus:HP,D1,D2,...)")
	protos := flag.String("protos", "rpc,kv,stream", "comma-separated protocols")
	modes := flag.String("modes", "open,closed", "comma-separated generator modes")
	faults := flag.String("faults", "none,linkflap",
		fmt.Sprintf("comma-separated fault scenarios %v", workload.FaultNames))
	baseline := flag.String("baseline", "none", "fault the delta table compares against")
	seed := flag.Int64("seed", 1, "grid seed (replica seeds derive from it)")
	reps := flag.Int("reps", 1, "replicas per grid cell")
	workers := flag.Int("workers", 1, "pool workers (0 = GOMAXPROCS); output is identical for any value")
	dur := flag.Duration("dur", 500*time.Millisecond, "simulated span per replica")
	hosts := flag.Int("hosts", 9, "hosts driven per replica, strided across the topology")

	clients := flag.Int("clients", 8, "logical clients per replica")
	ops := flag.Int("ops", 400, "total operations per replica")
	rate := flag.Float64("rate", 20000, "open-loop aggregate offered load (ops/s)")
	think := flag.Duration("think", 2*time.Millisecond, "closed-loop mean think time")
	pipeline := flag.Int("pipeline", 1, "closed-loop per-client outstanding window")
	val := flag.Int("val", 256, "value/request size in bytes")
	chunks := flag.Int("chunks", 4, "stream transfer length in chunks")
	timeout := flag.Duration("timeout", 250*time.Millisecond, "operation deadline")

	sloLat := flag.Duration("slo-latency", time.Millisecond, "SLO per-operation latency bound")
	sloWin := flag.Duration("slo-window", 50*time.Millisecond, "SLO judgment window")

	asJSON := flag.Bool("json", false, "emit unified report JSON instead of text")
	flag.Parse()

	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	var specs []workload.Spec
	for _, ps := range splitList(*protos) {
		proto, err := workload.ParseProto(ps)
		if err != nil {
			fatal(err)
		}
		for _, ms := range splitList(*modes) {
			mode, err := workload.ParseMode(ms)
			if err != nil {
				fatal(err)
			}
			specs = append(specs, workload.Spec{
				Proto:    proto,
				Mode:     mode,
				Clients:  *clients,
				Ops:      *ops,
				Rate:     *rate,
				Think:    *think,
				Pipeline: *pipeline,
				ValBytes: *val,
				Chunks:   *chunks,
				Timeout:  *timeout,
				SLO:      report.SLO{Latency: *sloLat, Window: *sloWin},
			})
		}
	}

	start := time.Now()
	g, err := workload.RunGrid(workload.GridOpts{
		Topos:  splitList(*topos),
		Specs:  specs,
		Faults: splitList(*faults),
		Seed:   *seed,
		Reps:   *reps,
		Dur:    *dur,
		Hosts:  *hosts,
		Pool:   parsim.Pool{Workers: *workers},
	})
	if err != nil {
		fatal(err)
	}

	slo := report.NewSLOTable("Production workloads: per-scenario SLO outcomes", g.Results)
	if err := report.Write(os.Stdout, slo, *asJSON); err != nil {
		fatal(err)
	}
	if !*asJSON {
		fmt.Println()
	}
	delta := report.NewSLODeltaTable(
		"SLO deltas vs fault-free baseline (Fig. 9 restated in user terms)",
		*baseline, g.Results)
	if len(delta.Cells) > 0 {
		if err := report.Write(os.Stdout, delta, *asJSON); err != nil {
			fatal(err)
		}
		if !*asJSON {
			fmt.Println()
		}
	}

	for _, v := range g.Violations {
		fmt.Fprintf(os.Stderr, "sanload: invariant violation: %s\n", v)
	}
	if !*asJSON {
		cells := len(g.Results)
		fmt.Printf("%d cells × %d replicas, %d violations (%d workers, %v wall time)\n",
			cells, *reps, len(g.Violations), *workers, time.Since(start).Round(time.Millisecond))
	}
	if len(g.Violations) > 0 {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sanload: %v\n", err)
	os.Exit(2)
}
