package main

// metricDef names one reported metric with its unit and the direction in
// which it improves. BENCHMARK.json at the repository root repeats these
// definitions (adding the regression bounds); bench_test.go keeps the
// two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the simulator sees, printed by an
// untraced run. Every one is a median over the run's passes except
// peak_rss_mb, the process's high-water mark.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"msgs_per_s", "msg/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// layers are this repository's packages under internal/ that sit on a
// workload's path; profile samples are attributed to the first of them
// found walking a stack up from its leaf.
var layers = []string{
	"sim", "parsim", "fabric", "nic", "retrans", "vmmc", "proto", "metrics",
	"stats", "trace", "topology", "routing", "core", "mapping", "chaos",
	"workload", "microbench",
}

// counts are read from the untraced passes of a traced run: simulated
// counts that a pure speed-up must leave unchanged, and host costs per
// unit of simulated work.
var counts = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.host_ns_per_event", "ns/event", "lower"},
	{"sim.allocs_per_event", "allocs/event", "lower"},
	{"sim.bytes_per_event", "B/event", "lower"},
	{"parsim.epochs", "count", "lower"},
	{"parsim.exchanged", "count", "lower"},
	{"parsim.events_per_epoch", "events/epoch", "higher"},
	{"nic.pkts_sent", "count", "lower"},
	{"nic.pkts_retransmitted", "count", "lower"},
	{"nic.acks_sent", "count", "lower"},
	{"nic.acks_piggybacked", "count", "higher"},
	{"nic.send_buffer_stalls", "count", "lower"},
	{"retrans.useful_frac", "fraction", "higher"},
	{"fabric.pkts_injected", "count", "lower"},
	{"fabric.pkts_dropped", "count", "lower"},
	{"mapping.probes", "count", "lower"},
	{"core.remap_attempts", "count", "lower"},
	{"workload.ops_completed", "count", "higher"},
	{"workload.host_us_per_op", "us/op", "lower"},
	{"go.alloc_bytes", "B", "lower"},
	{"go.mallocs", "count", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_frac", "fraction", "lower"},
}

// perLayer lists every metric a traced run prints, in output order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out,
			metricDef{l + ".cpu_frac", "fraction", "lower"},
			metricDef{l + ".rt_frac", "fraction", "lower"})
	}
	out = append(out,
		metricDef{"runtime.gc_bg.cpu_frac", "fraction", "lower"},
		metricDef{"runtime.other.cpu_frac", "fraction", "lower"},
		metricDef{"bench.cpu_frac", "fraction", "lower"},
		metricDef{"phase.setup_s", "s", "lower"},
		metricDef{"phase.simulate_s", "s", "lower"},
		metricDef{"phase.audit_s", "s", "lower"},
		metricDef{"bench.trace_overhead_frac", "fraction", "lower"},
		metricDef{"parsim.busy_frac", "fraction", "higher"},
		metricDef{"parsim.stall_frac", "fraction", "lower"},
	)
	out = append(out, counts...)
	for _, m := range microLoops {
		out = append(out,
			metricDef{m.name + ".ns_op", "ns/op", "lower"},
			metricDef{m.name + ".allocs_op", "allocs/op", "lower"},
			metricDef{m.name + ".bytes_op", "B/op", "lower"})
	}
	return out
}
