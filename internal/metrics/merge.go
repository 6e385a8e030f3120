package metrics

// MergeFrom folds every metric of src into r, keyed by full ident
// (name{labels}):
//
//   - counters add;
//   - gauges add (shard-disjoint label sets — the common case, since
//     producers label by host/link — simply union);
//   - derived gauges (GaugeFunc, GaugeCollector) are evaluated now and
//     added as plain gauges, materializing the source's instantaneous
//     state;
//   - histograms merge bucket-wise, with count/sum added and min/max
//     combined.
//
// Every operation is commutative and per-ident independent, so the merged
// registry's state — and therefore every sorted-ident export built from
// it — is the same whatever order shards are merged in. The parallel
// engine merges its per-shard registries through this after a run.
func (r *Registry) MergeFrom(src *Registry) {
	for id, c := range src.counters {
		if c.v != 0 {
			r.counterByIdent(id).Add(c.v)
		}
	}
	src.eachGauge(func(id string, v float64) { r.gaugeByIdent(id).Add(v) })
	for id, h := range src.hists {
		r.histByIdent(id).mergeFrom(h)
	}
}

func (r *Registry) counterByIdent(id string) *Counter {
	c := r.counters[id]
	if c == nil {
		c = &Counter{r: r}
		r.counters[id] = c
	}
	return c
}

func (r *Registry) gaugeByIdent(id string) *Gauge {
	g := r.gauges[id]
	if g == nil {
		g = &Gauge{r: r}
		r.gauges[id] = g
	}
	return g
}

func (r *Registry) histByIdent(id string) *Histogram {
	h := r.hists[id]
	if h == nil {
		h = &Histogram{r: r}
		r.hists[id] = h
	}
	return h
}

// mergeFrom adds src's distribution into h bucket-wise.
func (h *Histogram) mergeFrom(src *Histogram) {
	if src.count == 0 {
		return
	}
	if len(src.buckets) > len(h.buckets) {
		grown := make([]uint64, len(src.buckets))
		copy(grown, h.buckets)
		h.buckets = grown
	}
	for i, c := range src.buckets {
		h.buckets[i] += c
	}
	if h.count == 0 || src.min < h.min {
		h.min = src.min
	}
	if src.max > h.max {
		h.max = src.max
	}
	h.count += src.count
	h.sum += src.sum
	h.r.epoch++
}
