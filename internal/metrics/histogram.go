package metrics

import (
	"math/bits"
	"time"
)

// Histogram buckets are HDR-style log-linear: values below 2^subBits land
// in unit-wide buckets; above that, each power-of-two range is split into
// 2^(subBits-1) equal sub-buckets, bounding relative error at ~2^-(subBits-1)
// (≈3% here) while covering the full int64 nanosecond range in under a
// thousand buckets.
const (
	histSubBits = 5
	histHalf    = 1 << (histSubBits - 1) // sub-buckets per power-of-two range
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	n := bits.Len64(uint64(v)) // highest set bit position + 1, ≥ subBits+1
	shift := n - histSubBits
	return shift*histHalf + int(v>>uint(shift))
}

// bucketUpper returns the largest value mapping to bucket idx, the
// canonical representative used when reconstructing quantiles.
func bucketUpper(idx int) int64 {
	if idx < 1<<histSubBits {
		return int64(idx)
	}
	shift := idx/histHalf - 1
	top := idx - shift*histHalf
	return (int64(top)+1)<<uint(shift) - 1
}

// Histogram records a distribution of durations (nanosecond resolution)
// in log-linear buckets. Quantiles are reconstructed from bucket upper
// bounds, so they are deterministic and within ~3% of the true value.
type Histogram struct {
	r       *Registry
	buckets []uint64 // sparse-ish; grown to the highest index seen
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	if idx >= len(h.buckets) {
		grown := make([]uint64, idx+1)
		copy(grown, h.buckets)
		h.buckets = grown
	}
	h.buckets[idx]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.r.epoch++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum) }

// Min returns the smallest observation (0 if empty).
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest observation (0 if empty).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Mean returns the average observation (0 if empty).
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.count))
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) accurate
// to the bucket resolution. Exact min/max are substituted at the extremes
// so Quantile(0) and Quantile(1) are true bounds.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for idx, c := range h.buckets {
		seen += c
		if seen > rank {
			u := bucketUpper(idx)
			if u > h.max {
				u = h.max
			}
			return time.Duration(u)
		}
	}
	return time.Duration(h.max)
}

// HistogramSnapshot is the exportable state of a histogram. Buckets are a
// sparse [index, count] list in ascending index order, so empty ranges
// cost nothing and exports are deterministic. The tail quantiles (p999,
// p9999) ride along with p50/p99: SLO reporting ranks fault windows by
// exactly the latencies the median hides.
type HistogramSnapshot struct {
	Count   uint64     `json:"count"`
	SumNS   int64      `json:"sum_ns"`
	MinNS   int64      `json:"min_ns"`
	MaxNS   int64      `json:"max_ns"`
	P50NS   int64      `json:"p50_ns"`
	P99NS   int64      `json:"p99_ns"`
	P999NS  int64      `json:"p999_ns"`
	P9999NS int64      `json:"p9999_ns"`
	Bkts    [][2]int64 `json:"buckets,omitempty"`
}

// Snapshot captures the histogram for export.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count,
		SumNS:   h.sum,
		MinNS:   int64(h.Min()),
		MaxNS:   h.max,
		P50NS:   int64(h.Quantile(0.50)),
		P99NS:   int64(h.Quantile(0.99)),
		P999NS:  int64(h.Quantile(0.999)),
		P9999NS: int64(h.Quantile(0.9999)),
	}
	for idx, c := range h.buckets {
		if c != 0 {
			s.Bkts = append(s.Bkts, [2]int64{int64(idx), int64(c)})
		}
	}
	return s
}

// Quantile reconstructs the q-quantile from the snapshot's sparse buckets,
// with the same bucket-resolution accuracy and min/max substitution as
// Histogram.Quantile. Snapshots survive the simulation they came from, so
// post-run consumers (SLO tables, replica merges) can derive any quantile
// without the live histogram.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(s.MinNS)
	}
	if q >= 1 {
		return time.Duration(s.MaxNS)
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for _, b := range s.Bkts {
		seen += uint64(b[1])
		if seen > rank {
			u := bucketUpper(int(b[0]))
			if u > s.MaxNS {
				u = s.MaxNS
			}
			return time.Duration(u)
		}
	}
	return time.Duration(s.MaxNS)
}

// Merge folds another snapshot into s: counts and sums add, min/max widen,
// sparse buckets union in ascending index order, and the derived quantiles
// are recomputed. Merging is commutative and associative up to the derived
// fields, so replica results folded in a fixed order are deterministic for
// any worker count.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 || o.MinNS < s.MinNS {
		s.MinNS = o.MinNS
	}
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	s.Count += o.Count
	s.SumNS += o.SumNS
	merged := make([][2]int64, 0, len(s.Bkts)+len(o.Bkts))
	i, j := 0, 0
	for i < len(s.Bkts) || j < len(o.Bkts) {
		switch {
		case j >= len(o.Bkts) || (i < len(s.Bkts) && s.Bkts[i][0] < o.Bkts[j][0]):
			merged = append(merged, s.Bkts[i])
			i++
		case i >= len(s.Bkts) || o.Bkts[j][0] < s.Bkts[i][0]:
			merged = append(merged, o.Bkts[j])
			j++
		default:
			merged = append(merged, [2]int64{s.Bkts[i][0], s.Bkts[i][1] + o.Bkts[j][1]})
			i, j = i+1, j+1
		}
	}
	s.Bkts = merged
	s.P50NS = int64(s.Quantile(0.50))
	s.P99NS = int64(s.Quantile(0.99))
	s.P999NS = int64(s.Quantile(0.999))
	s.P9999NS = int64(s.Quantile(0.9999))
}
