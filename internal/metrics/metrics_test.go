package metrics

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"sanft/internal/sim"
)

func TestBucketMapping(t *testing.T) {
	// Every value maps into a bucket whose decoded upper bound is ≥ the
	// value, and bucket indexes are monotone in the value.
	prev := -1
	for _, v := range []int64{0, 1, 2, 15, 31, 32, 33, 47, 63, 64, 65, 127, 128,
		1000, 1 << 20, 1<<40 + 12345, 1 << 62} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucket index not monotone at v=%d: %d < %d", v, idx, prev)
		}
		prev = idx
		if u := bucketUpper(idx); u < v {
			t.Errorf("bucketUpper(%d)=%d < v=%d", idx, u, v)
		}
	}
	// Exhaustive check over the exact range: below 2^subBits buckets are
	// unit-wide, so decode must be exact.
	for v := int64(0); v < 1<<histSubBits; v++ {
		if got := bucketUpper(bucketIndex(v)); got != v {
			t.Fatalf("exact range: decode(%d) = %d", v, got)
		}
	}
}

func TestBucketRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1 << 50)
		u := bucketUpper(bucketIndex(v))
		if u < v {
			t.Fatalf("upper bound %d below value %d", u, v)
		}
		if v >= 1<<histSubBits && float64(u-v) > 0.07*float64(v) {
			t.Fatalf("relative error too large: v=%d upper=%d", v, u)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", nil)
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Min() != time.Microsecond || h.Max() != 1000*time.Microsecond {
		t.Fatalf("min/max %v/%v", h.Min(), h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 < 450*time.Microsecond || p50 > 550*time.Microsecond {
		t.Errorf("p50 %v outside 450–550µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 950*time.Microsecond || p99 > 1050*time.Microsecond {
		t.Errorf("p99 %v outside 950–1050µs", p99)
	}
	if got := h.Mean(); got < 480*time.Microsecond || got > 520*time.Microsecond {
		t.Errorf("mean %v", got)
	}
}

func TestLabelsCanonical(t *testing.T) {
	a := ident("m", L("b", "2", "a", "1"))
	b := ident("m", L("a", "1", "b", "2"))
	if a != b || a != "m{a=1,b=2}" {
		t.Fatalf("canonicalization: %q vs %q", a, b)
	}
	if ident("m", nil) != "m" {
		t.Fatal("bare ident")
	}
}

func TestCounterTotalAcrossLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("remap.attempts", L("host", "0")).Add(3)
	r.Counter("remap.attempts", L("host", "1")).Add(4)
	r.Counter("remap.attempts.other", nil).Add(100) // must not match
	if got := r.CounterTotal("remap.attempts"); got != 7 {
		t.Fatalf("CounterTotal = %d, want 7", got)
	}
}

// TestScopeLookupDoesNotCreate: Lookup finds counters recorded through
// the scope or straight into the registry under the scope's labels, and
// a miss leaves every export unchanged.
func TestScopeLookupDoesNotCreate(t *testing.T) {
	o := NewObserver(Config{})
	r := o.Registry()
	s := r.Scope(L("host", "3"))
	s.Add("nic.pkts-sent", 2)
	r.Counter("nic.acks-sent", L("host", "3")).Add(4)
	var before bytes.Buffer
	if err := o.WritePrometheus(&before); err != nil {
		t.Fatal(err)
	}
	if c, ok := s.Lookup("nic.pkts-sent"); !ok || c.Value() != 2 {
		t.Fatalf("Lookup(pkts-sent) = %v, %v", c, ok)
	}
	if c, ok := s.Lookup("nic.acks-sent"); !ok || c.Value() != 4 {
		t.Fatalf("Lookup(acks-sent) = %v, %v", c, ok)
	}
	if _, ok := s.Lookup("nic.never"); ok {
		t.Fatal("Lookup found a counter nothing recorded")
	}
	var after bytes.Buffer
	if err := o.WritePrometheus(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("Lookup changed the export:\n%s\nvs\n%s", before.String(), after.String())
	}
}

// TestScopeRecordAllocs pins the per-event recording paths: once a name
// has been recorded, Scope.Add, and Scope.AddTo and Scope.ObserveTo
// through their resolved handles, allocate nothing.
func TestScopeRecordAllocs(t *testing.T) {
	s := NewRegistry().Scope(HostLabels(3))
	var c *Counter
	var h *Histogram
	s.Add("nic.pkts-sent", 1)
	s.AddTo(&c, "nic.acks-sent", 1)
	s.ObserveTo(&h, "retrans.ack_latency_ns", time.Microsecond)
	if avg := testing.AllocsPerRun(1000, func() { s.Add("nic.pkts-sent", 1) }); avg != 0 {
		t.Fatalf("Scope.Add allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { s.AddTo(&c, "nic.acks-sent", 1) }); avg != 0 {
		t.Fatalf("Scope.AddTo allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { s.ObserveTo(&h, "retrans.ack_latency_ns", time.Microsecond) }); avg != 0 {
		t.Fatalf("Scope.ObserveTo allocates %.2f allocs/op, want 0", avg)
	}
}

// TestScopeHandlesResolveToScopeMetrics: a typed handle resolves to the
// scope's own counter or histogram at its first write, so writes through
// it land in the series Counters and every export read.
func TestScopeHandlesResolveToScopeMetrics(t *testing.T) {
	s := NewRegistry().Scope(L("host", "3"))
	var c *Counter
	var h *Histogram
	s.AddTo(&c, "nic.pkts-sent", 2)
	s.AddTo(&c, "nic.pkts-sent", 3)
	s.ObserveTo(&h, "retrans.ack_latency_ns", time.Microsecond)
	if got, ok := s.Lookup("nic.pkts-sent"); !ok || got != c || got.Value() != 5 {
		t.Fatalf("Lookup = %p (%v), want the handle %p with value 5", got, ok, c)
	}
	if h != s.r.Histogram("retrans.ack_latency_ns", L("host", "3")) || h.Count() != 1 {
		t.Fatalf("histogram handle %p (count %d) is not the scope's", h, h.Count())
	}
}

func TestEpochSuppression(t *testing.T) {
	k := sim.New(1)
	o := NewObserver(Config{})
	c := o.Registry().Counter("x", nil)
	o.Registry().GaugeFunc("derived", nil, func() float64 { return 42 })

	// Activity in the first two intervals only.
	k.After(500*time.Microsecond, func() { c.Inc() })
	k.After(1500*time.Microsecond, func() { c.Inc() })
	o.StartSampling(k, time.Millisecond)
	k.RunFor(10 * time.Millisecond)

	// Two active intervals → two samples; the remaining eight idle ticks
	// are suppressed (gauge funcs do not count as activity).
	if n := len(o.Samples()); n != 2 {
		t.Fatalf("got %d samples, want 2: %+v", n, o.Samples())
	}
	if o.Samples()[1].Gauges["derived"] != 42 {
		t.Fatal("gauge func not evaluated in sample")
	}
}

func TestMaxSamplesCap(t *testing.T) {
	k := sim.New(1)
	o := NewObserver(Config{MaxSamples: 3})
	c := o.Registry().Counter("x", nil)
	o.StartSampling(k, time.Millisecond)
	tick := func() {}
	tick = func() { c.Inc(); k.After(time.Millisecond, tick) }
	k.After(0, tick)
	k.RunFor(20 * time.Millisecond)
	if n := len(o.Samples()); n != 3 {
		t.Fatalf("cap ignored: %d samples", n)
	}
}

func TestJSONLDeterminism(t *testing.T) {
	run := func() string {
		o := NewObserver(Config{})
		r := o.Registry()
		// Insert in two different orders via shuffled names.
		names := []string{"b.two", "a.one", "c.three", "nic.pkts"}
		for _, n := range names {
			r.Counter(n, L("host", "1")).Add(7)
		}
		r.Gauge("g", nil).Set(1.5)
		h := r.Histogram("lat", L("host", "1"))
		for i := 0; i < 100; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
		o.SampleNow(12345)
		var buf bytes.Buffer
		if err := o.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("JSONL not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestPrometheusExportSortedAndMangled(t *testing.T) {
	o := NewObserver(Config{})
	r := o.Registry()
	r.Counter("nic.pkts-sent", L("host", "0")).Add(2)
	r.Counter("fabric.watchdog_resets", nil).Add(1)
	r.Histogram("remap.latency_ns", L("host", "0")).Observe(time.Millisecond)
	var buf bytes.Buffer
	if err := o.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`nic_pkts_sent{host="0"} 2`,
		"fabric_watchdog_resets 1",
		`remap_latency_ns_count{host="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Lines must be sorted per section.
	var counterLines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "fabric_") || strings.HasPrefix(l, "nic_") {
			counterLines = append(counterLines, l)
		}
	}
	if !sort.StringsAreSorted(counterLines) {
		t.Errorf("counter lines not sorted: %v", counterLines)
	}
}

func TestSnapshotSparseBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", nil)
	h.Observe(3)
	h.Observe(3)
	h.Observe(1 << 30)
	s := h.Snapshot()
	if len(s.Bkts) != 2 {
		t.Fatalf("want 2 sparse buckets, got %v", s.Bkts)
	}
	if s.Bkts[0][0] != 3 || s.Bkts[0][1] != 2 {
		t.Fatalf("first bucket %v", s.Bkts[0])
	}
	if s.Count != 3 || s.MaxNS != 1<<30 {
		t.Fatalf("snapshot %+v", s)
	}
}

// TestPrometheusFamilies pins the exposition-format contract: exactly one
// # HELP/# TYPE pair per metric family, with every series of the family
// directly under its header — including the ASCII trap where '_' sorts
// before '{', so a family's labelled series ("nic_pkts{...}") interleave
// with a longer base ("nic_pkts_extra") in plain sorted order.
func TestPrometheusFamilies(t *testing.T) {
	o := NewObserver(Config{})
	r := o.Registry()
	r.Counter("nic.pkts", L("host", "0")).Add(1)
	r.Counter("nic.pkts", L("host", "1")).Add(2)
	r.Counter("nic.pkts_extra", nil).Add(3)
	var buf bytes.Buffer
	if err := o.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, base := range []string{"nic_pkts", "nic_pkts_extra"} {
		for _, h := range []string{"# HELP " + base + " ", "# TYPE " + base + " counter\n"} {
			if strings.Count(out, h) != 1 {
				t.Errorf("want exactly one %q:\n%s", h, out)
			}
		}
	}
	// Series must sit in their family's block: after "# TYPE nic_pkts
	// counter" and before the next comment line come exactly the two
	// labelled nic_pkts series.
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if l != "# TYPE nic_pkts counter" {
			continue
		}
		var series []string
		for _, s := range lines[i+1:] {
			if strings.HasPrefix(s, "#") || s == "" {
				break
			}
			series = append(series, s)
		}
		want := []string{`nic_pkts{host="0"} 1`, `nic_pkts{host="1"} 2`}
		if len(series) != 2 || series[0] != want[0] || series[1] != want[1] {
			t.Errorf("nic_pkts family block = %v, want %v", series, want)
		}
	}
}

// TestPrometheusHistogramBuckets pins the histogram rendering: cumulative
// _bucket series over the HDR buckets with le= upper bounds in
// nanoseconds, a +Inf bucket equal to _count, and an exact _sum — and no
// leftovers of the old derived-gauge rendering (_p50_ns and friends).
func TestPrometheusHistogramBuckets(t *testing.T) {
	o := NewObserver(Config{})
	h := o.Registry().Histogram("lat_ns", L("host", "0"))
	h.Observe(3) // twice in bucket le=3
	h.Observe(3)
	h.Observe(1 << 30)
	var buf bytes.Buffer
	if err := o.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	hi := bucketUpper(bucketIndex(1 << 30))
	sum := int64(3 + 3 + 1<<30)
	for _, want := range []string{
		"# TYPE lat_ns histogram\n",
		"lat_ns_bucket{host=\"0\",le=\"3\"} 2\n",
		fmt.Sprintf("lat_ns_bucket{host=\"0\",le=\"%d\"} 3\n", hi),
		"lat_ns_bucket{host=\"0\",le=\"+Inf\"} 3\n",
		fmt.Sprintf("lat_ns_sum{host=\"0\"} %d\n", sum),
		"lat_ns_count{host=\"0\"} 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus histogram missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"_p50_ns", "_p99_ns", "_sum_ns"} {
		if strings.Contains(out, gone) {
			t.Errorf("old derived-gauge rendering %q still present:\n%s", gone, out)
		}
	}
}

// TestTailQuantilesPinned pins the p999/p9999 surfacing end to end: the
// snapshot JSON (and hence JSONL exports) and the Summary digest line.
// The distribution is chosen so every value lands in a unit-wide bucket
// (< 2^histSubBits) and the quantiles are exact, making the expected
// bytes hand-computable.
func TestTailQuantilesPinned(t *testing.T) {
	o := NewObserver(Config{})
	h := o.Registry().Histogram("lat", nil)
	for i := 0; i < 989; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	h.Observe(20)

	wantSummary := "histograms:\n" +
		"  lat                                                      " +
		"n=1000 mean=1ns p50=1ns p99=5ns p999=20ns p9999=20ns max=20ns\n"
	if got := o.Summary(); got != wantSummary {
		t.Errorf("Summary() = %q, want %q", got, wantSummary)
	}

	o.SampleNow(7)
	var buf bytes.Buffer
	if err := o.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"t_ns":7,"histograms":{"lat":{"count":1000,"sum_ns":1059,` +
		`"min_ns":1,"max_ns":20,"p50_ns":1,"p99_ns":5,"p999_ns":20,"p9999_ns":20,` +
		`"buckets":[[1,989],[5,10],[20,1]]}}}` + "\n"
	if got := buf.String(); got != wantJSON {
		t.Errorf("JSONL = %q, want %q", got, wantJSON)
	}
}

// TestSnapshotQuantileMerge: snapshots answer arbitrary quantiles after
// the fact, and merging two snapshots equals snapshotting one histogram
// holding both observation sets — the property replica folds rely on.
func TestSnapshotQuantileMerge(t *testing.T) {
	r := NewRegistry()
	a, b, both := r.Histogram("a", nil), r.Histogram("b", nil), r.Histogram("ab", nil)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Intn(1 << 22))
		a.Observe(d)
		both.Observe(d)
	}
	for i := 0; i < 300; i++ {
		d := time.Duration(1<<24 + rng.Intn(1<<26))
		b.Observe(d)
		both.Observe(d)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	want := both.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 0.9999, 1} {
		if got, w := sa.Quantile(q), both.Quantile(q); got != w {
			t.Errorf("merged Quantile(%g) = %v, live histogram %v", q, got, w)
		}
		if got, w := want.Quantile(q), both.Quantile(q); got != w {
			t.Errorf("snapshot Quantile(%g) = %v, live histogram %v", q, got, w)
		}
	}
	if sa.Count != want.Count || sa.SumNS != want.SumNS ||
		sa.MinNS != want.MinNS || sa.MaxNS != want.MaxNS ||
		sa.P999NS != want.P999NS || sa.P9999NS != want.P9999NS {
		t.Errorf("merged snapshot %+v != combined snapshot %+v", sa, want)
	}
}

// TestGaugeCollectorReadLikeGaugeFuncs: a collector's gauges reach every
// reader — sample, Prometheus, summary and merge — exactly as the same
// gauges registered one GaugeFunc each, and re-registering under a key
// replaces the collector.
func TestGaugeCollectorReadLikeGaugeFuncs(t *testing.T) {
	dump := func(r *Registry) string {
		o := &Observer{reg: r}
		o.SampleNow(5)
		var b strings.Builder
		if err := o.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if err := o.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString(o.Summary())
		merged := NewRegistry()
		merged.MergeFrom(r)
		b.WriteString((&Observer{reg: merged}).Summary())
		return b.String()
	}
	perFunc := NewRegistry()
	perFunc.Gauge("queue", L("host", "1")).Set(3)
	perFunc.GaugeFunc("link.busy", L("link", "0", "dir", "1"), func() float64 { return 7 })
	perFunc.GaugeFunc("link.busy", L("link", "2", "dir", "0"), func() float64 { return 0.5 })

	bulk := NewRegistry()
	bulk.Gauge("queue", L("host", "1")).Set(3)
	bulk.GaugeCollector("link", func(emit func(string, float64)) { emit("stale", 1) })
	bulk.GaugeCollector("link", func(emit func(string, float64)) {
		emit("link.busy{dir=1,link=0}", 7)
		emit("link.busy{dir=0,link=2}", 0.5)
	})
	if got, want := dump(bulk), dump(perFunc); got != want {
		t.Fatalf("collector export differs from per-gauge GaugeFuncs:\n%s\nwant:\n%s", got, want)
	}
}
