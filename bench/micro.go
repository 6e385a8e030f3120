package main

import (
	"fmt"
	"runtime"
	"time"

	"sanft/internal/core"
	"sanft/internal/fabric"
	"sanft/internal/metrics"
	"sanft/internal/microbench"
	"sanft/internal/proto"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// microLoop is a fixed-count loop over one layer's exported calls. prep
// builds its state untimed and returns the timed body, which performs n
// operations, and an untimed cleanup (nil when there is nothing to free).
type microLoop struct {
	name string
	n    int
	prep func(n int) (body, done func())
}

// microReps repetitions of each loop; the reported numbers are medians.
const microReps = 5

// microLoops isolate the per-operation cost of each layer on the packet
// path, at counts sized for tens to hundreds of milliseconds per
// repetition on a 2-core x86 box.
var microLoops = []microLoop{
	{"sim.schedule_fire", 1_000_000, func(n int) (func(), func()) {
		k := sim.New(1)
		fn := func() {}
		return func() {
			for i := 0; i < n; i++ {
				k.After(time.Microsecond, fn)
				k.Step()
			}
		}, nil
	}},
	{"sim.arm_cancel", 1_000_000, func(n int) (func(), func()) {
		k := sim.New(1)
		fn := func() {}
		for i := 0; i < 1000; i++ {
			k.After(time.Duration(i+1)*time.Second, fn)
		}
		return func() {
			for i := 0; i < n; i++ {
				k.After(time.Millisecond, fn).Cancel()
			}
		}, nil
	}},
	{"sim.proc_handoff", 200_000, func(n int) (func(), func()) {
		k := sim.New(1)
		k.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		return func() { k.Run() }, nil
	}},
	{"sim.gate_handoff", 200_000, func(n int) (func(), func()) {
		// Two procs hand control back and forth through a pair of gates;
		// each round trip is two handoffs.
		k := sim.New(1)
		var ga, gb sim.Gate
		turn := 0
		k.Spawn("a", func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				turn = 1
				gb.Signal()
				for turn == 1 {
					ga.Wait(p)
				}
			}
		})
		k.Spawn("b", func(p *sim.Proc) {
			for {
				for turn == 0 {
					gb.Wait(p)
				}
				turn = 0
				ga.Signal()
			}
		})
		return func() { k.Run() }, k.Stop
	}},
	{"fabric.worm_hop", 160_000, func(n int) (func(), func()) {
		// Packets cross a line of 8 switches one at a time, so no worm
		// ever blocks: the uncontended per-hop cost.
		const switches = 8
		nw, rows := topology.Chain(switches, 1, 1)
		a, b := rows[0][0], rows[switches-1][0]
		route, err := routing.Shortest(nw, a, b)
		if err != nil || len(route) != switches {
			panic(fmt.Sprintf("bench: worm_hop route %v: %v", route, err))
		}
		k := sim.New(1)
		f := fabric.New(k, nw, fabric.DefaultConfig())
		pkts, sent := n/switches, 0
		inject := func() {
			if sent < pkts {
				sent++
				f.Inject(a, &fabric.Packet{Route: route.Clone(), Dst: b, Size: 64})
			}
		}
		f.AttachHost(a, func(*fabric.Packet) {})
		f.AttachHost(b, func(*fabric.Packet) { inject() })
		return func() {
			inject()
			k.Run()
		}, nil
	}},
	{"fabric.pipe_inject", 200_000, func(n int) (func(), func()) {
		nw, hosts := topology.Star(2)
		k := sim.New(1)
		p := fabric.NewPipe(k, nw, fabric.DefaultConfig())
		for _, h := range hosts {
			p.AttachHost(h, func(*fabric.Packet) {})
		}
		route, err := routing.Shortest(nw, hosts[0], hosts[1])
		if err != nil {
			panic(fmt.Sprintf("bench: pipe_inject route: %v", err))
		}
		pkt := &fabric.Packet{Route: route, Dst: hosts[1], Size: 256}
		return func() {
			for i := 0; i < n; i++ {
				p.Inject(hosts[0], pkt)
				k.Run()
			}
		}, nil
	}},
	{"proto.boundary_clone", 1_000_000, func(n int) (func(), func()) {
		// The shard-boundary copy of a data packet and its frame, released
		// as the receiving NIC releases them.
		frame := &proto.Frame{Type: proto.FrameData, Src: 1, Dst: 2, Gen: 1, Seq: 7,
			Data: &proto.DataPayload{MsgID: 3, MsgLen: 256, Data: make([]byte, 256), Notify: true}}
		pkt := &fabric.Packet{Route: routing.Route{1, 2, 3}, Src: 1, Dst: 2, Size: frame.WireSize(), Payload: frame}
		return func() {
			for i := 0; i < n; i++ {
				cp := pkt.ClonePooled()
				f := frame.ClonePooled()
				cp.Payload = f
				f.Release()
				cp.Release()
			}
		}, nil
	}},
	{"retrans.sender_cycle", 1_000_000, func(n int) (func(), func()) {
		// prepare → ack request → transmit → receive → cumulative ack.
		s := retrans.NewSender(retrans.Config{QueueSize: 32})
		r := retrans.NewReceiver(retrans.Config{})
		dst := topology.NodeID(1)
		return func() {
			now := sim.Time(0)
			for i := 0; i < n; i++ {
				now = now.Add(time.Microsecond)
				e := s.Prepare(dst, now, 32-s.Unacked(dst), nil, 4096)
				s.AckRequestFor(e, 32-s.Unacked(dst))
				s.OnTransmitted(e, now)
				if v := r.OnData(dst, e.Gen, e.Seq, 0); !v.Accept {
					panic("bench: sender_cycle frame rejected")
				}
				gen, seq, _ := r.CumAck(dst)
				r.AckEmitted(dst)
				s.OnAck(dst, gen, seq, now)
			}
		}, nil
	}},
	{"retrans.tick_idle16", 200_000, func(n int) (func(), func()) {
		// One idle timer scan of a NIC with 16 drained destinations: the
		// Tick and StalePaths calls a mapper-enabled NIC makes every 1ms.
		s := retrans.NewSender(retrans.Config{QueueSize: 32, Interval: time.Millisecond})
		for d := 0; d < 16; d++ {
			e := s.Prepare(topology.NodeID(d), 0, 32, nil, 64)
			s.OnTransmitted(e, 0)
			s.OnAck(topology.NodeID(d), 0, 0, 0)
		}
		return func() {
			for i := 0; i < n; i++ {
				now := sim.Time(0).Add(time.Duration(i) * time.Microsecond)
				if len(s.Tick(now)) != 0 || len(s.StalePaths(now)) != 0 {
					panic("bench: tick_idle16 found work")
				}
			}
		}, nil
	}},
	{"metrics.scope_add", 1_000_000, func(n int) (func(), func()) {
		// A string-keyed add with the name built per call, as nic.inc does.
		s := metrics.NewRegistry().Scope(metrics.HostLabels(3))
		names := []string{"pkts-sent", "acks-sent"}
		return func() {
			for i := 0; i < n; i++ {
				s.Add("nic."+names[i&1], 1)
			}
		}, nil
	}},
	{"metrics.counter_add", 1_000_000, func(n int) (func(), func()) {
		c := metrics.NewRegistry().Counter("nic.pkts-sent", metrics.HostLabels(3))
		return func() {
			for i := 0; i < n; i++ {
				c.Add(1)
			}
		}, nil
	}},
	{"metrics.hist_observe", 1_000_000, func(n int) (func(), func()) {
		h := metrics.NewRegistry().Histogram("retrans.ack_latency_ns", metrics.HostLabels(3))
		return func() {
			for i := 0; i < n; i++ {
				h.Observe(time.Duration(i&1023) * time.Microsecond)
			}
		}, nil
	}},
	{"nic.msg_4b", 20_000, func(n int) (func(), func()) {
		c := twoNode(true, 32, 0, 1)
		return func() { microbench.Unidirectional(c, 4, n) }, nil
	}},
	{"nic.msg_64k", 500, func(n int) (func(), func()) {
		c := twoNode(true, 32, 0, 1)
		return func() { microbench.Unidirectional(c, 65536, n) }, nil
	}},
	{"core.build_ft16_sharded", 1, func(n int) (func(), func()) {
		built, err := topology.ParseSpec(flapTopo)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		var cs []*core.Cluster
		return func() {
				for i := 0; i < n; i++ {
					cs = append(cs, core.New(core.Config{
						Net: built.Net, Hosts: built.Hosts, FT: true,
						Engine:  core.EngineSharded,
						Plan:    core.ShardPlan{HostsPerShard: (len(built.Hosts) + flapShards - 1) / flapShards},
						Workers: flapWorkers,
						Seed:    1,
					}))
				}
			}, func() {
				for _, c := range cs {
					c.Stop()
				}
			}
	}},
	{"routing.shortest_from_ft16", 200, func(n int) (func(), func()) {
		built, err := topology.ParseSpec(flapTopo)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		hosts := built.Hosts
		return func() {
			for i := 0; i < n; i++ {
				routing.ShortestFrom(built.Net, hosts[(i*61)%len(hosts)])
			}
		}, nil
	}},
}

// runMicroLoops runs every loop microReps times (once below full scale,
// at a scaled count) on one OS thread, matching the sequential workloads,
// and returns the medians per operation.
func runMicroLoops(scale float64) map[string]float64 {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	reps := microReps
	if scale < 1 {
		reps = 1
	}
	out := map[string]float64{}
	for _, m := range microLoops {
		n := scaled(m.n, scale, 1)
		var ns, allocs, bytes []float64
		for r := 0; r < reps; r++ {
			body, done := m.prep(n)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			body()
			el := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if done != nil {
				done()
			}
			ns = append(ns, float64(el.Nanoseconds())/float64(n))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
			bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
		}
		out[m.name+".ns_op"] = median(ns)
		out[m.name+".allocs_op"] = median(allocs)
		out[m.name+".bytes_op"] = median(bytes)
	}
	return out
}
