// Package metrics is the simulator's deterministic observability layer:
// counters, gauges, and HDR-style histograms keyed by (name, labels), with
// periodic time-series sampling driven by the simulation kernel.
//
// Design constraints, in order:
//
//   - Determinism. Identical seeds must produce byte-identical metric
//     dumps. All iteration is in sorted key order, all timestamps are
//     simulated time, and no wall-clock or map-order nondeterminism can
//     reach an export.
//   - Zero configuration. Every producer (NIC, fabric, mapper, remap
//     manager, chaos engine) instruments unconditionally against a
//     Registry; a component built standalone gets a private registry, a
//     component built by core.New shares the cluster-wide one. No nil
//     checks on hot paths.
//   - Cheap hot paths. Producers hold a typed handle per metric, resolved
//     through their Scope on first use, so steady-state recording is an
//     integer add.
//
// The taxonomy (see DESIGN.md) uses dotted metric names prefixed by
// subsystem — nic.*, fabric.*, retrans.*, mapping.*, remap.*, chaos.* —
// and labels for the identity dimensions (host, link, dir, reason).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Label is one identity dimension of a metric (e.g. host=3).
type Label struct {
	Key, Value string
}

// Labels is a set of identity dimensions. Order does not matter; the
// registry canonicalizes by sorting on key.
type Labels []Label

// L builds a Labels from alternating key, value strings:
// L("host", "3", "dir", "0").
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("metrics: L takes alternating key, value pairs")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	return ls
}

// canonical returns the sorted "k=v,k=v" form of the label set.
func (ls Labels) canonical() string {
	if len(ls) == 0 {
		return ""
	}
	sorted := append(Labels(nil), ls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// ident builds the full metric identity: name{k=v,...}, or bare name when
// unlabeled. Idents are the keys of every export, so they sort text-wise.
func ident(name string, ls Labels) string {
	c := ls.canonical()
	if c == "" {
		return name
	}
	return name + "{" + c + "}"
}

// Counter is a monotonically increasing event count.
type Counter struct {
	r *Registry
	v uint64
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	c.v += n
	c.r.epoch++
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is an instantaneous value set by its producer.
type Gauge struct {
	r *Registry
	v float64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	g.v = v
	g.r.epoch++
}

// Add shifts the gauge's value by d.
func (g *Gauge) Add(d float64) { g.Set(g.v + d) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Registry holds every metric of one system instance. It is not safe for
// concurrent use: like the simulation kernel it serves, all access happens
// on one logical thread.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFns   map[string]func() float64
	collectors map[string]func(emit func(id string, v float64))
	hists      map[string]*Histogram

	// epoch increments on every recorded observation (not on gauge-func
	// reads); the sampler uses it to suppress samples of an idle system.
	epoch uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFns:   make(map[string]func() float64),
		collectors: make(map[string]func(emit func(id string, v float64))),
		hists:      make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the counter name{labels}.
func (r *Registry) Counter(name string, ls Labels) *Counter {
	id := ident(name, ls)
	c := r.counters[id]
	if c == nil {
		c = &Counter{r: r}
		r.counters[id] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge name{labels}.
func (r *Registry) Gauge(name string, ls Labels) *Gauge {
	id := ident(name, ls)
	g := r.gauges[id]
	if g == nil {
		g = &Gauge{r: r}
		r.gauges[id] = g
	}
	return g
}

// GaugeFunc registers a derived gauge evaluated at sample/export time.
// Re-registering an ident replaces the previous function.
func (r *Registry) GaugeFunc(name string, ls Labels, fn func() float64) {
	r.gaugeFns[ident(name, ls)] = fn
}

// GaugeCollector registers one producer of many derived gauges, evaluated
// at sample/export time: fn calls emit once per gauge with its full ident
// — name{k=v,...} with label keys sorted, the key GaugeFunc would file
// the same gauge under — and its value. It replaces a GaugeFunc closure
// per element for producers with thousands of them. Re-registering under
// the same key replaces the previous collector.
func (r *Registry) GaugeCollector(key string, fn func(emit func(id string, v float64))) {
	r.collectors[key] = fn
}

// eachGauge reports every gauge's current value: set gauges, then
// derived gauges evaluated now, then collector output in key order.
func (r *Registry) eachGauge(fn func(id string, v float64)) {
	for id, g := range r.gauges {
		fn(id, g.v)
	}
	for id, gf := range r.gaugeFns {
		fn(id, gf())
	}
	for _, key := range sortedKeys(r.collectors) {
		r.collectors[key](fn)
	}
}

// gaugeValues returns every gauge's current value by ident; a later
// source overrides an earlier one under the same ident.
func (r *Registry) gaugeValues() map[string]float64 {
	m := make(map[string]float64, len(r.gauges)+len(r.gaugeFns))
	r.eachGauge(func(id string, v float64) { m[id] = v })
	return m
}

// Histogram returns (creating if needed) the histogram name{labels}.
func (r *Registry) Histogram(name string, ls Labels) *Histogram {
	id := ident(name, ls)
	h := r.hists[id]
	if h == nil {
		h = &Histogram{r: r}
		r.hists[id] = h
	}
	return h
}

// CounterTotal sums every counter whose name matches, across all label
// sets — e.g. CounterTotal("remap.attempts") over all hosts.
func (r *Registry) CounterTotal(name string) uint64 {
	var t uint64
	prefix := name + "{"
	for id, c := range r.counters {
		if id == name || strings.HasPrefix(id, prefix) {
			t += c.v
		}
	}
	return t
}

// Scope is a producer's view of a registry under a fixed label set. It
// keeps no handles of its own: hot paths hold a typed handle per metric
// (AddTo, ObserveTo), resolved through the registry on first use.
type Scope struct {
	r      *Registry
	labels Labels
	suffix string // the "{k=v,...}" every ident of the scope ends in
}

// Scope returns a handle with the given labels attached to every metric
// recorded through it.
func (r *Registry) Scope(ls Labels) *Scope {
	return &Scope{r: r, labels: ls, suffix: ident("", ls)}
}

// Add increases the scope-labeled counter name by n, looking the counter
// up by name on every call: the string-keyed path that the benchmark's
// metrics.scope_add loop measures. Hot paths hold a handle (AddTo).
func (s *Scope) Add(name string, n uint64) {
	c, ok := s.Lookup(name)
	if !ok {
		c = s.r.Counter(name, s.labels)
	}
	c.Add(n)
}

// Lookup returns the scope-labeled counter name if it has been recorded,
// without creating it: a read that created a zero counter would add a
// line to every later export. The ident is built in a stack buffer, so a
// lookup allocates nothing.
func (s *Scope) Lookup(name string) (*Counter, bool) {
	var buf [64]byte
	c := s.r.counters[string(append(append(buf[:0], name...), s.suffix...))]
	return c, c != nil
}

// AddTo increases the scope-labeled counter name by n through the typed
// handle *c, resolving the handle on first use. A hot path keeps one
// handle per metric and pays the name lookup once, at the first event —
// not when the producer is built, which would add a zero series that
// never fired to every export.
func (s *Scope) AddTo(c **Counter, name string, n uint64) {
	if *c == nil {
		*c = s.r.Counter(name, s.labels)
	}
	(*c).Add(n)
}

// ObserveTo records one duration in the scope-labeled histogram name
// through the typed handle *h, resolving the handle on first use like
// AddTo.
func (s *Scope) ObserveTo(h **Histogram, name string, d time.Duration) {
	if *h == nil {
		*h = s.r.Histogram(name, s.labels)
	}
	(*h).Observe(d)
}

// GaugeFunc registers a scope-labeled derived gauge.
func (s *Scope) GaugeFunc(name string, fn func() float64) {
	s.r.GaugeFunc(name, s.labels, fn)
}

// HostLabels is the conventional label set for per-host subsystems.
func HostLabels(host int) Labels { return L("host", fmt.Sprint(host)) }
