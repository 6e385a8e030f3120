package workload

import (
	"fmt"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/core"
	"sanft/internal/mapping"
	"sanft/internal/parsim"
	"sanft/internal/report"
	"sanft/internal/retrans"
	"sanft/internal/topology"
)

// serverSplit picks how many of n hosts serve: about a third, at least
// one, and at least two for KV (when possible) so puts actually
// replicate.
func serverSplit(spec Spec, n int) int {
	nSrv := n / 3
	if nSrv < 1 {
		nSrv = 1
	}
	if spec.Proto == ProtoKV && nSrv < 2 && n >= 3 {
		nSrv = 2
	}
	return nSrv
}

// FaultNames are the fault scenarios the grid knows how to install.
var FaultNames = []string{"none", "linkflap", "gray", "drop"}

// InstallFault schedules one named fault against the engine's cluster.
// Route-targeted faults hit a trunk on the a→b path so the fault lands
// on live traffic rather than a redundant spare.
func InstallFault(e *chaos.Engine, fault string, a, b topology.NodeID) error {
	const start = 2 * time.Millisecond
	routeLinks := func() []*topology.Link {
		links := chaos.RouteTrunks(e.C.Net, a, b)
		if len(links) == 0 {
			links = e.C.Net.TrunkLinks()
		}
		return links
	}
	switch fault {
	case "", "none":
	case "linkflap":
		links := routeLinks()
		if len(links) == 0 {
			return fmt.Errorf("workload: no trunk links to flap")
		}
		e.Install(chaos.LinkFlap{Link: links[0], Start: start,
			Down: 3 * time.Millisecond, Up: 3 * time.Millisecond, Cycles: 6})
	case "gray":
		links := routeLinks()
		if len(links) == 0 {
			return fmt.Errorf("workload: no trunk links to gray")
		}
		e.Install(chaos.GrayLinks{Links: links[:1], Rate: 0.15, Start: start,
			Dur: 60 * time.Millisecond})
	case "drop":
		e.Install(chaos.DropRamp{Rates: []float64{0.05, 0}, Start: start,
			Step: 30 * time.Millisecond})
	default:
		return fmt.Errorf("workload: unknown fault %q (want one of %v)", fault, FaultNames)
	}
	return nil
}

// GridOpts is one sanload campaign: the cross product of topologies,
// workload specs, and fault scenarios, each cell run Reps times with
// derived seeds and merged.
type GridOpts struct {
	Topos  []string // topology specs (topology.ParseSpec syntax)
	Specs  []Spec   // workload cells (proto × mode, pre-built)
	Faults []string // entries of FaultNames

	Seed int64
	// Reps is the replica count per cell (default 1). Replica results
	// merge in index order, so any pool worker count yields the same
	// tables.
	Reps int
	// Dur is the simulated span per replica (default 500ms).
	Dur time.Duration
	// Hosts is how many hosts each replica drives, strided across the
	// topology's host list (default 9).
	Hosts int

	Pool parsim.Pool

	// eager builds every replica as the differential tests' reference
	// (core.Config.Eager): every timer scan and every worm hop runs.
	eager bool
}

// GridResult is a finished grid: one merged SLOResult per cell, in
// topo-major, then spec, then fault order, plus every invariant
// violation any replica produced.
type GridResult struct {
	Results    []report.SLOResult
	Violations []string
}

type gridCell struct {
	topo  string
	spec  Spec
	fault string
}

type replicaOut struct {
	res  report.SLOResult
	vios []string
}

// RunGrid runs the campaign through the parsim pool. Inputs are
// validated up front so a bad spec fails fast instead of panicking a
// worker.
func RunGrid(o GridOpts) (GridResult, error) {
	if o.Reps <= 0 {
		o.Reps = 1
	}
	if o.Dur <= 0 {
		o.Dur = 500 * time.Millisecond
	}
	if o.Hosts <= 0 {
		o.Hosts = 9
	}
	if len(o.Topos) == 0 || len(o.Specs) == 0 {
		return GridResult{}, fmt.Errorf("workload: grid needs at least one topology and one spec")
	}
	if len(o.Faults) == 0 {
		o.Faults = []string{"none"}
	}
	for _, t := range o.Topos {
		if _, err := topology.ParseSpec(t); err != nil {
			return GridResult{}, err
		}
	}
	for _, f := range o.Faults {
		ok := false
		for _, known := range FaultNames {
			if f == known {
				ok = true
			}
		}
		if !ok {
			return GridResult{}, fmt.Errorf("workload: unknown fault %q (want one of %v)", f, FaultNames)
		}
	}

	var cells []gridCell
	for _, t := range o.Topos {
		for _, s := range o.Specs {
			for _, f := range o.Faults {
				cells = append(cells, gridCell{topo: t, spec: s, fault: f})
			}
		}
	}
	jobs := len(cells) * o.Reps
	outs := parsim.Map(o.Pool, jobs, func(i int) replicaOut {
		cell := cells[i/o.Reps]
		return runReplica(cell, parsim.ShardSeed(o.Seed, i), o.Dur, o.Hosts, o.eager)
	})

	g := GridResult{Results: make([]report.SLOResult, len(cells))}
	for i, out := range outs {
		if i%o.Reps == 0 {
			g.Results[i/o.Reps] = out.res
		} else {
			g.Results[i/o.Reps].Merge(out.res)
		}
		g.Violations = append(g.Violations, out.vios...)
	}
	return g, nil
}

// remapDrainBound bounds how long a replica keeps running after its
// drain for the on-demand mapping runs still active to end. A run on
// fattree:16 pays a 500 µs probe timeout per wrong port guess and can
// stay active for about 100 simulated seconds; one still active at the
// bound is reported as a remap-idle violation.
const remapDrainBound = 200 * time.Second

// remapDrainSlice is the step in which that wait checks for active runs.
const remapDrainSlice = 10 * time.Millisecond

// runReplica builds one cluster, attaches the workload, runs the fault
// schedule, and audits the run. Each replica owns a fresh topology
// build — faults mutate the network, so replicas cannot share one.
//
// The SLO outcome is judged at dur. Admission then stops, and the run
// continues for one operation deadline, by which every admitted
// operation has completed or expired, plus a second for the NICs to
// retransmit and acknowledge what the expired ones left in flight, and
// then until no mapping run is active (at most remapDrainBound). Only
// then is the quiesce state audited.
func runReplica(cell gridCell, seed int64, dur time.Duration, nHosts int, eager bool) replicaOut {
	b, err := topology.ParseSpec(cell.topo)
	if err != nil {
		panic(fmt.Sprintf("workload: topo %q validated then failed: %v", cell.topo, err))
	}
	hosts := strideHosts(b.Hosts, nHosts)
	c := core.New(core.Config{
		Net:   b.Net,
		Hosts: hosts,
		FT:    true,
		Retrans: retrans.Config{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 8 * time.Millisecond,
		},
		Mapper: true,
		// Scan only the ports the fabric actually has: the default radix
		// would burn probe timeouts on ports that cannot exist.
		MapperCfg: mapping.Config{MaxRadix: maxSwitchRadix(b.Net)},
		Seed:      seed,
		Eager:     eager,
	})
	e := chaos.NewEngine(c, seed)

	spec := cell.spec
	spec.Seed = seed
	nSrv := serverSplit(spec, len(hosts))
	servers, clients := hosts[:nSrv], hosts[nSrv:]
	d := Attach(e, spec, clients, servers)
	if err := InstallFault(e, cell.fault, clients[0], servers[0]); err != nil {
		panic(fmt.Sprintf("workload: fault %q validated then failed: %v", cell.fault, err))
	}

	c.RunFor(dur)
	out := replicaOut{res: d.Result(cell.topo, cell.fault, dur)}
	d.halted = true
	c.RunFor(2 * d.Spec.Timeout)
	for end := c.Now().Add(remapDrainBound); c.Now() < end; c.RunFor(remapDrainSlice) {
		if running, _ := c.RemapInFlight(); running == 0 {
			break
		}
	}
	c.Stop()

	// The grid's faults all heal (flaps end, the drop ramp returns to
	// zero), so the full contract applies: complete delivery, no
	// duplicates, bounded remapping.
	for _, v := range chaos.CheckInvariants(e, d.Run(), chaos.CheckOpts{MaxRemapAttempts: 400}) {
		out.vios = append(out.vios, fmt.Sprintf("%s %s %s seed=%d %s",
			spec.Scenario(), cell.topo, cell.fault, seed, v))
	}
	return out
}

// strideHosts picks n hosts spread evenly across the list, so a replica
// on a big fabric exercises distant pods rather than one rack.
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

// maxSwitchRadix returns the largest switch radix in the fabric.
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
