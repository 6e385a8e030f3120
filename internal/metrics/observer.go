package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sanft/internal/sim"
)

// Config tunes the observability layer. The zero value means "registry
// only, no periodic sampling" — producers still record, and a caller can
// take explicit samples or read totals at any time.
type Config struct {
	// SampleEvery, if positive, is the simulated-time interval between
	// time-series samples once sampling is started.
	SampleEvery time.Duration
	// MaxSamples, if positive, caps the retained time series (oldest kept;
	// sampling stops at the cap). Guards against unbounded memory on very
	// long runs.
	MaxSamples int
}

// Sample is one point of the time series: the full registry state at one
// simulated instant. Map keys are metric idents; encoding/json writes map
// keys in sorted order, which the determinism guarantee relies on.
type Sample struct {
	TNS        int64                        `json:"t_ns"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Observer owns a registry and a kernel-driven periodic sampler, and
// renders the collected telemetry as JSONL, Prometheus text, or a summary
// table. One Observer serves one Cluster.
type Observer struct {
	reg     *Registry
	cfg     Config
	samples []Sample

	timer     sim.Timer
	lastEpoch uint64
	sampled   bool // at least one sample taken (epoch baseline valid)
}

// NewObserver returns an observer with a fresh registry.
func NewObserver(cfg Config) *Observer {
	return &Observer{reg: NewRegistry(), cfg: cfg}
}

// Registry returns the observer's registry, the handle producers
// instrument against.
func (o *Observer) Registry() *Registry { return o.reg }

// snapshot captures the current registry state.
func (o *Observer) snapshot(now sim.Time) Sample {
	s := Sample{TNS: int64(now)}
	if len(o.reg.counters) > 0 {
		s.Counters = make(map[string]uint64, len(o.reg.counters))
		for id, c := range o.reg.counters {
			s.Counters[id] = c.v
		}
	}
	if g := o.reg.gaugeValues(); len(g) > 0 {
		s.Gauges = g
	}
	if len(o.reg.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(o.reg.hists))
		for id, h := range o.reg.hists {
			s.Histograms[id] = h.Snapshot()
		}
	}
	return s
}

// SampleNow unconditionally appends a sample at the given instant. Use it
// for a final capture after the workload drains.
func (o *Observer) SampleNow(now sim.Time) {
	o.samples = append(o.samples, o.snapshot(now))
	o.lastEpoch = o.reg.epoch
	o.sampled = true
}

// sampleIfActive appends a sample only if any observation was recorded
// since the previous sample. Campaigns run tens of virtual seconds with
// activity concentrated in bursts; suppressing idle samples keeps the
// series proportional to activity, not to wall time.
func (o *Observer) sampleIfActive(now sim.Time) {
	if o.sampled && o.reg.epoch == o.lastEpoch {
		return
	}
	o.SampleNow(now)
}

// StartSampling arms the periodic sampler on kernel k, every `every` of
// simulated time (falling back to cfg.SampleEvery, then 1 ms). Idle
// intervals — no observation recorded — are suppressed. The sampler
// reschedules itself, so it keeps the event heap non-empty: drive the
// kernel with RunFor/RunUntil, not Run, while sampling is active.
func (o *Observer) StartSampling(k *sim.Kernel, every time.Duration) {
	if every <= 0 {
		every = o.cfg.SampleEvery
	}
	if every <= 0 {
		every = time.Millisecond
	}
	o.StopSampling()
	var tick func()
	tick = func() {
		if o.cfg.MaxSamples > 0 && len(o.samples) >= o.cfg.MaxSamples {
			o.timer = sim.Timer{}
			return
		}
		o.sampleIfActive(k.Now())
		o.timer = k.After(every, tick)
	}
	o.timer = k.After(every, tick)
}

// StopSampling cancels the periodic sampler, if armed.
func (o *Observer) StopSampling() {
	o.timer.Cancel()
	o.timer = sim.Timer{}
}

// Samples returns the collected time series.
func (o *Observer) Samples() []Sample { return o.samples }

// WriteJSONL writes the time series as one JSON object per line. Output
// is byte-deterministic for a given registry state: map keys sort, and
// all values are integers or exactly-reproducible floats.
func (o *Observer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range o.samples {
		if err := enc.Encode(&o.samples[i]); err != nil {
			return err
		}
	}
	return nil
}

// promName mangles a metric ident into a Prometheus-legal name: dots and
// dashes become underscores; the label block passes through.
func promName(id string) string {
	name, labels := id, ""
	if i := strings.IndexByte(id, '{'); i >= 0 {
		name, labels = id[:i], id[i:]
	}
	name = strings.NewReplacer(".", "_", "-", "_").Replace(name)
	if labels != "" {
		// k=v,k=v → k="v",k="v"
		parts := strings.Split(strings.Trim(labels, "{}"), ",")
		for j, p := range parts {
			if eq := strings.IndexByte(p, '='); eq >= 0 {
				parts[j] = p[:eq] + `="` + p[eq+1:] + `"`
			}
		}
		labels = "{" + strings.Join(parts, ",") + "}"
	}
	return name + labels
}

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// splitProm splits an already-mangled Prometheus series name into its
// base name and label block ("" when unlabelled).
func splitProm(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// promFamily is one metric family: every ident sharing a mangled base
// name, which Prometheus requires to be announced once under a single
// # HELP/# TYPE header pair.
type promFamily struct {
	base string
	ids  []string // original registry idents, sorted by mangled series name
}

// promFamilies groups idents into families sorted by base name. Grouping
// goes through a map keyed on the base — NOT consecutive runs of the
// sorted ident list: '_' sorts before '{' in ASCII, so the series of one
// base can interleave with a longer base's series in sorted order.
func promFamilies(ids []string) []promFamily {
	m := map[string][]string{}
	for _, id := range ids {
		base, _ := splitProm(promName(id))
		m[base] = append(m[base], id)
	}
	fams := make([]promFamily, 0, len(m))
	for base, ids := range m {
		sort.Slice(ids, func(i, j int) bool { return promName(ids[i]) < promName(ids[j]) })
		fams = append(fams, promFamily{base: base, ids: ids})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].base < fams[j].base })
	return fams
}

// WritePrometheus writes the current registry state (not the time series)
// in the Prometheus text exposition format (version 0.0.4): families
// announced with # HELP/# TYPE headers, histograms rendered as cumulative
// _bucket/_sum/_count series over the HDR buckets, with le= upper bounds
// in nanoseconds (matching the _ns-suffixed metric names). Deterministic:
// families sort by name, series within a family by full series name.
func (o *Observer) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	header := func(base, kind string) {
		fmt.Fprintf(&b, "# HELP %s sanft simulator metric %s\n# TYPE %s %s\n", base, base, base, kind)
	}

	for _, f := range promFamilies(sortedKeys(o.reg.counters)) {
		header(f.base, "counter")
		for _, id := range f.ids {
			fmt.Fprintf(&b, "%s %d\n", promName(id), o.reg.counters[id].v)
		}
	}

	gauges := o.reg.gaugeValues()
	for _, f := range promFamilies(sortedKeys(gauges)) {
		header(f.base, "gauge")
		for _, id := range f.ids {
			fmt.Fprintf(&b, "%s %g\n", promName(id), gauges[id])
		}
	}

	for _, f := range promFamilies(sortedKeys(o.reg.hists)) {
		header(f.base, "histogram")
		for _, id := range f.ids {
			h := o.reg.hists[id]
			_, labels := splitProm(promName(id))
			inner := strings.Trim(labels, "{}")
			le := func(v string) string {
				if inner == "" {
					return `{le="` + v + `"}`
				}
				return "{" + inner + `,le="` + v + `"}`
			}
			var cum uint64
			for idx, c := range h.buckets {
				if c == 0 {
					continue
				}
				cum += c
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.base, le(fmt.Sprint(bucketUpper(idx))), cum)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.base, le("+Inf"), h.count)
			fmt.Fprintf(&b, "%s_sum%s %d\n", f.base, labels, h.sum)
			fmt.Fprintf(&b, "%s_count%s %d\n", f.base, labels, h.count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Summary renders the current registry state as a human-readable table:
// counters, then gauges, then histogram digests, each sorted by ident.
func (o *Observer) Summary() string {
	var b strings.Builder
	if len(o.reg.counters) > 0 {
		b.WriteString("counters:\n")
		for _, id := range sortedKeys(o.reg.counters) {
			fmt.Fprintf(&b, "  %-56s %d\n", id, o.reg.counters[id].v)
		}
	}
	gauges := o.reg.gaugeValues()
	if len(gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, id := range sortedKeys(gauges) {
			fmt.Fprintf(&b, "  %-56s %g\n", id, gauges[id])
		}
	}
	if len(o.reg.hists) > 0 {
		b.WriteString("histograms:\n")
		for _, id := range sortedKeys(o.reg.hists) {
			h := o.reg.hists[id]
			fmt.Fprintf(&b, "  %-56s n=%d mean=%v p50=%v p99=%v p999=%v p9999=%v max=%v\n",
				id, h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99),
				h.Quantile(0.999), h.Quantile(0.9999), h.Max())
		}
	}
	if b.Len() == 0 {
		return "no metrics recorded\n"
	}
	return b.String()
}
