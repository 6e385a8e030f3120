package workload

import (
	"testing"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/core"
	"sanft/internal/mapping"
	"sanft/internal/parsim"
	"sanft/internal/report"
	"sanft/internal/retrans"
	"sanft/internal/topology"
)

// rig builds a small fat-tree cluster with two servers and four client
// hosts spread across pods, attaches the spec, runs, and audits.
type rig struct {
	c *core.Cluster
	e *chaos.Engine
	d *Driver
}

func newRig(t *testing.T, spec Spec, seed int64, install func(e *chaos.Engine, clients, servers []topology.NodeID)) *rig {
	t.Helper()
	ft := topology.FatTree(4)
	hosts := []topology.NodeID{
		ft.PodHosts[0][0], ft.PodHosts[1][0], ft.PodHosts[2][0],
		ft.PodHosts[3][0], ft.PodHosts[0][1], ft.PodHosts[1][1],
	}
	c := core.New(core.Config{
		Net: ft.Net, Hosts: hosts, FT: true,
		Retrans: retrans.Config{
			QueueSize:         16,
			Interval:          time.Millisecond,
			PermFailThreshold: 8 * time.Millisecond,
		},
		Mapper:    true,
		MapperCfg: mapping.Config{MaxRadix: 4},
		Seed:      seed,
	})
	e := chaos.NewEngine(c, seed)
	servers, clients := hosts[:2], hosts[2:]
	d := Attach(e, spec, clients, servers)
	if install != nil {
		install(e, clients, servers)
	}
	return &rig{c: c, e: e, d: d}
}

func (r *rig) run(t *testing.T, dur time.Duration) {
	t.Helper()
	r.c.RunFor(dur)
	r.c.Stop()
}

func (r *rig) checkClean(t *testing.T) {
	t.Helper()
	for _, v := range chaos.CheckInvariants(r.e, r.d.Run(), chaos.CheckOpts{MaxRemapAttempts: 400}) {
		t.Errorf("invariant: %s", v)
	}
}

// Every protocol under both disciplines completes its full budget on a
// healthy fabric, with zero errors, zero spurious completions, and a
// clean invariant audit.
func TestProtocolsCompleteCleanly(t *testing.T) {
	for _, proto := range []Proto{ProtoRPC, ProtoKV, ProtoStream} {
		for _, mode := range []Mode{ModeOpen, ModeClosed} {
			t.Run(proto.String()+"/"+mode.String(), func(t *testing.T) {
				spec := Spec{
					Proto: proto, Mode: mode,
					Clients: 4, Ops: 60, Rate: 40000,
					Think: time.Millisecond, Pipeline: 2,
				}
				r := newRig(t, spec, 7, nil)
				r.run(t, 300*time.Millisecond)
				res := r.d.Result("fattree:4", "none", 300*time.Millisecond)
				if res.Issued != 60 || res.Completed != 60 || res.Errors != 0 {
					t.Fatalf("issued=%d completed=%d errors=%d, want 60/60/0",
						res.Issued, res.Completed, res.Errors)
				}
				if res.Latency.Count != 60 {
					t.Fatalf("latency histogram saw %d ops, want 60", res.Latency.Count)
				}
				if r.d.Spurious() != 0 {
					t.Fatalf("%d spurious completions on a healthy fabric", r.d.Spurious())
				}
				if res.PayloadBytes == 0 {
					t.Fatal("no payload accounted")
				}
				want := uint64(60 * 256)
				if proto == ProtoStream {
					want = 60 * 4 * 256
				}
				if res.PayloadBytes != want {
					t.Fatalf("payload %d, want %d", res.PayloadBytes, want)
				}
				r.checkClean(t)
			})
		}
	}
}

// A KV run under a trunk flap on a live route still settles every
// operation — completed or expired — and the exactly-once audit holds.
func TestKVUnderLinkFlap(t *testing.T) {
	spec := Spec{Proto: ProtoKV, Mode: ModeOpen, Clients: 4, Ops: 80, Rate: 20000}
	r := newRig(t, spec, 11, func(e *chaos.Engine, clients, servers []topology.NodeID) {
		if err := InstallFault(e, "linkflap", clients[0], servers[0]); err != nil {
			t.Fatal(err)
		}
	})
	r.run(t, 500*time.Millisecond)
	res := r.d.Result("fattree:4", "linkflap", 500*time.Millisecond)
	if res.Issued != 80 {
		t.Fatalf("issued %d, want 80", res.Issued)
	}
	if res.Completed+res.Errors != 80 {
		t.Fatalf("completed %d + errors %d != 80", res.Completed, res.Errors)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed under a transient flap")
	}
	r.checkClean(t)
}

// The SLO result feeds the report layer: windows cover the active span
// and the scenario label matches the spec.
func TestResultShape(t *testing.T) {
	spec := Spec{Proto: ProtoRPC, Mode: ModeClosed, Clients: 2, Ops: 20}
	r := newRig(t, spec, 3, nil)
	r.run(t, 200*time.Millisecond)
	res := r.d.Result("fattree:4", "none", 200*time.Millisecond)
	if res.Scenario != "rpc/closed" || res.Topo != "fattree:4" || res.Fault != "none" {
		t.Fatalf("labels %q %q %q", res.Scenario, res.Topo, res.Fault)
	}
	if len(res.Windows) == 0 {
		t.Fatal("no SLO windows recorded")
	}
	var issued uint64
	for _, w := range res.Windows {
		issued += w.Issued
	}
	if issued != res.Issued {
		t.Fatalf("window issued sum %d != total %d", issued, res.Issued)
	}
	if res.SLOMinutesLost() != 0 {
		t.Fatalf("healthy run lost %.4f SLO-minutes", res.SLOMinutesLost())
	}
}

// The grid runner merges replicas per cell and audits every replica.
func TestGridSmoke(t *testing.T) {
	g, err := RunGrid(GridOpts{
		Topos:  []string{"fattree:4"},
		Specs:  []Spec{{Proto: ProtoKV, Mode: ModeOpen, Clients: 4, Ops: 40}},
		Faults: []string{"none", "linkflap"},
		Seed:   5,
		Reps:   2,
		Hosts:  6,
		Dur:    400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Results) != 2 {
		t.Fatalf("got %d cells, want 2", len(g.Results))
	}
	for _, v := range g.Violations {
		t.Errorf("violation: %s", v)
	}
	for i, res := range g.Results {
		if res.Issued != 80 { // 40 ops × 2 replicas
			t.Errorf("cell %d issued %d, want 80", i, res.Issued)
		}
	}
	if g.Results[0].Fault != "none" || g.Results[1].Fault != "linkflap" {
		t.Fatalf("cell order %q, %q", g.Results[0].Fault, g.Results[1].Fault)
	}
}

// A run cut short of its operation budget still audits clean: the grid
// stops admitting at Dur and drains before CheckInvariants reads the
// quiesce state.
func TestGridDrainsBeforeAudit(t *testing.T) {
	var specs []Spec
	for _, proto := range []Proto{ProtoRPC, ProtoKV, ProtoStream} {
		for _, mode := range []Mode{ModeOpen, ModeClosed} {
			specs = append(specs, Spec{Proto: proto, Mode: mode, Clients: 8, Ops: 400,
				Rate: 20000, Think: 2 * time.Millisecond})
		}
	}
	const dur = 10 * time.Millisecond
	g, err := RunGrid(GridOpts{
		Topos: []string{"fattree:4"},
		Specs: specs,
		Seed:  1,
		Dur:   dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Violations {
		t.Errorf("violation: %s", v)
	}
	cut := 0
	for _, res := range g.Results {
		if res.ElapsedNS != int64(dur) {
			t.Errorf("%s judged over %v, want %v", res.Scenario, time.Duration(res.ElapsedNS), dur)
		}
		if res.Issued < 400 {
			cut++
		}
	}
	if cut == 0 {
		t.Fatal("every cell issued its whole budget by Dur: the gate never stops admission")
	}
}

// A gray fault can leave an on-demand mapping run on fattree:16 active
// for tens of simulated seconds, far past a short run's drain: the sanload
// grid -topos fattree:16 -faults gray -dur 30ms -seed 4 used to audit its
// rpc/open cell with a remap-idle violation. The replica now keeps running
// until the run ends, and audits clean.
func TestGridWaitsForMappingRuns(t *testing.T) {
	spec := Spec{Proto: ProtoRPC, Mode: ModeOpen, Clients: 8, Ops: 400, Rate: 20000,
		Think: 2 * time.Millisecond, Pipeline: 1, ValBytes: 256, Chunks: 4,
		Timeout: 250 * time.Millisecond,
		SLO:     report.SLO{Latency: time.Millisecond, Window: 50 * time.Millisecond}}
	cell := gridCell{topo: "fattree:16", spec: spec, fault: "gray"}
	out := runReplica(cell, parsim.ShardSeed(4, 0), 30*time.Millisecond, 9, false)
	for _, v := range out.vios {
		t.Errorf("violation: %s", v)
	}
	if out.res.ElapsedNS != int64(30*time.Millisecond) {
		t.Fatalf("judged over %v, want 30ms", time.Duration(out.res.ElapsedNS))
	}
}

// Bad grid inputs fail fast with errors, not worker panics.
func TestGridValidation(t *testing.T) {
	if _, err := RunGrid(GridOpts{Topos: []string{"nosuch:1"},
		Specs: []Spec{{}}}); err == nil {
		t.Fatal("bad topology accepted")
	}
	if _, err := RunGrid(GridOpts{Topos: []string{"fattree:4"},
		Specs: []Spec{{}}, Faults: []string{"meteor"}}); err == nil {
		t.Fatal("bad fault accepted")
	}
}
