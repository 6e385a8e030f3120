package chaos

import (
	"fmt"
	"strings"
	"time"

	"sanft/internal/core"
	"sanft/internal/retrans"
	"sanft/internal/topology"
)

// The scale tier: chaos campaigns on thousand-host datacenter fabrics
// under the sharded parallel engine. The Engine/Campaign stack needs VMMC
// endpoints and the on-demand mapper, which stay on the one-cell plan —
// so scale runs are their own small runner on the frame-level API that
// every plan shares: build the fabric from a topology spec, schedule a
// topology-knowledge fault pattern as precomputed global events, drive a
// deterministic flow matrix, and audit exactly-once delivery from the
// merged delivery log. Everything is byte-identical for any worker count
// (the shard partition defines the semantics), which is what makes the
// 1k-host differential gate possible.

// ScaleOpts configures one sharded scale campaign.
type ScaleOpts struct {
	// Topo is a topology spec for topology.ParseSpec ("fattree:8",
	// "dragonfly:4,2,2", "torus:2,4,4"). Default "fattree:8".
	Topo string
	// Scenario selects the fault pattern: "flapstorm" (a seeded
	// FlapStormSchedule over every trunk), "gray" (25% loss on every 8th
	// trunk), or "" / "none" for a fault-free run.
	Scenario string
	Seed     int64
	// Workers is the OS-thread count (0 = GOMAXPROCS). Never changes
	// results, only wall-clock time.
	Workers int
	// Flows caps the flow matrix (host i sends to the host half the
	// fabric away, so every flow crosses the core). 0 = one flow per
	// host.
	Flows int
}

// The fixed shape of every scale campaign.
const (
	scaleShards = 16 // the hosts group into about this many shards

	// Each flow sends scaleMsgs messages of scaleBytes, scaleGap apart, so
	// frames stay in flight across the whole fault window instead of
	// finishing before the first fault lands.
	scaleMsgs  = 4
	scaleBytes = 256
	scaleGap   = 8 * time.Millisecond
	// scaleRunFor is the simulated duration: the storm is over and healed
	// by 40ms, leaving the retransmission tail room to drain.
	scaleRunFor = 80 * time.Millisecond

	// Flap storm (see FlapStormSchedule): scaleEvents flaps over a
	// scaleWindow, each down for scaleMinDown to scaleMaxDown.
	scaleEvents  = 96
	scaleWindow  = 30 * time.Millisecond
	scaleMinDown = time.Millisecond
	scaleMaxDown = 4 * time.Millisecond

	// Gray failure: every scaleGrayEvery-th trunk drops each crossing
	// packet with probability scaleGrayRate.
	scaleGrayEvery = 8
	scaleGrayRate  = 0.25
)

// ScaleReport is the outcome of one scale campaign.
type ScaleReport struct {
	Spec     string
	Scenario string
	Variant  string
	Seed     int64

	Hosts   int
	Shards  int
	Workers int
	Trunks  int
	Faults  int // scheduled fault events (flap windows or grayed links)

	Expected   int
	Delivered  int // distinct (flow, msg) deliveries
	Duplicates int

	Epochs    uint64
	Exchanged uint64
	Executed  uint64

	Violations []Violation

	c *core.Cluster
}

// Passed reports whether the exactly-once audit held.
func (r *ScaleReport) Passed() bool { return len(r.Violations) == 0 }

// Dump returns the run's full observable byte stream (deliveries, merged
// metrics, trace) — the payload differential gates compare across worker
// counts.
func (r *ScaleReport) Dump() []byte { return r.c.DumpObservables() }

func (r *ScaleReport) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "scale %s · %s [%s seed=%d]: %s\n", r.Spec, r.Scenario, r.Variant, r.Seed, verdict)
	fmt.Fprintf(&b, "  fabric:    %d hosts, %d trunks, %d shards, %d workers\n",
		r.Hosts, r.Trunks, r.Shards, r.Workers)
	fmt.Fprintf(&b, "  faults:    %d scheduled events\n", r.Faults)
	fmt.Fprintf(&b, "  delivered: %d/%d distinct, %d duplicates\n",
		r.Delivered, r.Expected, r.Duplicates)
	fmt.Fprintf(&b, "  engine:    %d epochs, %d boundary crossings, %d events executed\n",
		r.Epochs, r.Exchanged, r.Executed)
	if r.Passed() {
		fmt.Fprintf(&b, "  invariants: exactly-once delivery holds\n")
	} else {
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
		}
	}
	return b.String()
}

// ScaleFlows builds the deterministic flow matrix for a host list: host i
// sends to the host half the fabric away, so on any of the builders every
// flow crosses the trunk tier the scenarios attack. n caps the number of
// flows (0 = one per host).
func ScaleFlows(hosts []topology.NodeID, n int) []core.Flow {
	h := len(hosts)
	if n <= 0 || n > h {
		n = h
	}
	flows := make([]core.Flow, 0, n)
	for i := 0; i < n; i++ {
		j := (i + h/2) % h
		if j == i {
			continue
		}
		flows = append(flows, core.Flow{Src: hosts[i], Dst: hosts[j]})
	}
	return flows
}

// RunScale executes one sharded scale campaign: parse the topology spec,
// build the sharded cluster, install the scenario as precomputed global
// fault events, run the flow matrix to quiesce, and audit exactly-once
// delivery. Returns an error only for an unusable spec or scenario name;
// audit failures land in the report's Violations.
func RunScale(o ScaleOpts) (*ScaleReport, error) {
	if o.Topo == "" {
		o.Topo = "fattree:8"
	}
	built, err := topology.ParseSpec(o.Topo)
	if err != nil {
		return nil, err
	}
	hosts := built.Hosts
	cfg := core.Config{
		Net: built.Net, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize: 16,
			Interval:  time.Millisecond,
			// No mapper on the sharded engine: a permanent-failure
			// verdict would have no recovery path, so the threshold sits
			// past the end of the run and retransmission alone rides out
			// every (healing) fault.
			PermFailThreshold: 4 * scaleRunFor,
		},
		Engine:  core.EngineSharded,
		Plan:    core.ShardPlan{HostsPerShard: (len(hosts) + scaleShards - 1) / scaleShards},
		Workers: o.Workers,
		Seed:    o.Seed,
	}
	c := core.New(cfg)
	trunks := built.Trunks
	rep := &ScaleReport{
		Spec:     o.Topo,
		Scenario: o.Scenario,
		Variant:  "sharded",
		Seed:     o.Seed,
		Hosts:    len(hosts),
		Shards:   c.Shards(),
		Workers:  c.Workers(),
		Trunks:   len(trunks),
		c:        c,
	}

	switch o.Scenario {
	case "flapstorm":
		ids := make([]int, len(trunks))
		for i, l := range trunks {
			ids[i] = l.ID
		}
		sched := FlapStormSchedule(ids, o.Seed, scaleEvents, scaleWindow, scaleMinDown, scaleMaxDown)
		// Shift the storm past startup so the first frames route cleanly.
		for i := range sched {
			sched[i].At += 2 * time.Millisecond
		}
		c.ScheduleLinkFlaps(sched)
		rep.Faults = len(sched)
	case "gray":
		for i := 0; i < len(trunks); i += scaleGrayEvery {
			c.SetLinkLoss(trunks[i].ID, scaleGrayRate)
			rep.Faults++
		}
	case "", "none":
	default:
		return nil, fmt.Errorf("chaos: unknown scale scenario %q (want flapstorm, gray, or none)", o.Scenario)
	}

	flows := ScaleFlows(hosts, o.Flows)
	c.StartFlows(flows, scaleMsgs, scaleBytes, scaleGap)
	c.RunFor(scaleRunFor)
	c.Stop()

	// Exactly-once audit: every (flow, msg) appears in the merged delivery
	// log exactly once — retransmission must absorb the faults, receiver
	// dedup must absorb the retransmissions.
	type key struct {
		src, dst topology.NodeID
		msg      uint64
	}
	seen := make(map[key]int)
	for _, d := range c.Deliveries() {
		seen[key{d.Src, d.Dst, d.Msg}]++
	}
	rep.Expected = len(flows) * scaleMsgs
	missing, duped := 0, 0
	for _, fl := range flows {
		for m := 1; m <= scaleMsgs; m++ {
			switch n := seen[key{fl.Src, fl.Dst, uint64(m)}]; {
			case n == 0:
				missing++
			case n > 1:
				rep.Delivered++
				rep.Duplicates += n - 1
				duped++
			default:
				rep.Delivered++
			}
		}
	}
	if missing > 0 {
		rep.Violations = append(rep.Violations, Violation{
			"delivery", fmt.Sprintf("%d of %d (flow, msg) pairs never delivered", missing, rep.Expected)})
	}
	if duped > 0 {
		rep.Violations = append(rep.Violations, Violation{
			"dedup", fmt.Sprintf("%d (flow, msg) pairs delivered more than once (%d extras)", duped, rep.Duplicates)})
	}
	rep.Epochs = c.Epochs()
	rep.Exchanged = c.Exchanged()
	rep.Executed = c.TotalExecuted()
	return rep, nil
}
