// Package obs is MMBench's wall-clock observability layer: a streaming
// log-bucketed latency histogram, an eager-execution span profiler
// hooked into the operator layer's kernel emission and stage scopes (for
// trace export), and exporters (Chrome trace-event JSON, Prometheus text
// exposition, per-stage percentile tables) for the measurements.
//
// Everything in this package is a pure observer: attaching a profiler
// or observing a histogram never changes numeric results, recorded
// traces or scheduling decisions. The analytic model in internal/trace
// reports *modeled* nanoseconds; obs reports *measured* ones, which is
// the signal eager-mode optimizations are evaluated against.
package obs

import "math"

// Histogram bucket layout: geometric buckets growing by 2^(1/4) per
// bucket (≈19% relative width, 4 buckets per octave) from histMin
// seconds up to histMin·2^histOctaves, plus one underflow bucket for
// values at or below histMin. The layout is a package constant — every
// Histogram shares it — so merging is element-wise addition and two
// histograms built from the same samples in any grouping are identical.
const (
	// histMin is the underflow bound: 1µs. Sub-microsecond latencies
	// all land in bucket 0.
	histMin = 1e-6
	// bucketsPerOctave trades quantile resolution for size: 4 buckets
	// per power of two bounds quantile estimation error at ~19%.
	bucketsPerOctave = 4
	// histOctaves spans 1µs … ~17.9min (2^30 µs).
	histOctaves = 30
	numBuckets  = histOctaves*bucketsPerOctave + 1
)

// Histogram is a streaming log-bucketed histogram of latencies in
// seconds. Observations are O(1); quantiles are estimated by log-linear
// interpolation inside the selected bucket, so the estimate is always
// within one bucket width (≈19% relative) of the exact sample quantile.
// The zero value is an empty histogram ready to use. Histogram is a
// value type — assignment snapshots it — and merging is associative and
// commutative, so per-shard histograms can be combined across branches,
// requests and servers in any order. Methods do not synchronize; guard
// concurrent writers externally.
type Histogram struct {
	counts [numBuckets]uint64
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// bucketOf maps a value to its bucket index. Bucket 0 holds v ≤ histMin;
// bucket i>0 holds histMin·2^((i-1)/bpo) < v ≤ histMin·2^(i/bpo); the
// last bucket additionally absorbs overflow.
func bucketOf(v float64) int {
	if v <= histMin || math.IsNaN(v) {
		return 0
	}
	i := int(math.Ceil(math.Log2(v/histMin) * bucketsPerOctave))
	if i < 1 {
		i = 1
	}
	if i >= numBuckets {
		i = numBuckets - 1
	}
	return i
}

// bucketUpper returns bucket i's upper bound in seconds.
func bucketUpper(i int) float64 {
	return histMin * math.Exp2(float64(i)/bucketsPerOctave)
}

// bucketLower returns bucket i's lower bound (0 for the underflow
// bucket).
func bucketLower(i int) float64 {
	if i == 0 {
		return 0
	}
	return bucketUpper(i - 1)
}

// Observe records one latency in seconds. Negative and NaN values count
// into the underflow bucket (they should not occur; dropping them would
// silently skew counts).
func (h *Histogram) Observe(v float64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if h.n == 1 || v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of observed values in seconds.
func (h *Histogram) Sum() float64 { return h.sum }

// Min and Max return the exact extremes (0 when empty).
func (h *Histogram) Min() float64 { return h.min }
func (h *Histogram) Max() float64 { return h.max }

// Add merges o into h (element-wise bucket addition). Because every
// Histogram shares one bucket layout, Add is associative and
// commutative on everything quantiles depend on — bucket counts, n,
// min, max: merging per-shard histograms in any grouping yields the
// same percentiles as observing every sample into one histogram. (The
// running sum is float addition, so groupings may differ in its last
// ulps.)
func (h *Histogram) Add(o Histogram) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	if o.n > 0 {
		if h.n == 0 || o.min < h.min {
			h.min = o.min
		}
		if h.n == 0 || o.max > h.max {
			h.max = o.max
		}
	}
	h.n += o.n
	h.sum += o.sum
}

// Merge returns the combination of h and o without mutating either.
func (h Histogram) Merge(o Histogram) Histogram {
	h.Add(o)
	return h
}

// Quantile estimates the q-quantile (q in [0,1]) in seconds using the
// same rank convention as an exact sorted-sample lookup at index
// floor(q·(n-1)): it locates the bucket holding that rank and
// log-interpolates within it, clamped to the observed [min, max] so a
// one-sample histogram returns the sample exactly. An empty histogram
// returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.n-1)) // 0-based rank, matches sorted[int(q*(n-1))]
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c > rank {
			est := h.interp(i, rank-cum, c)
			return clamp(est, h.min, h.max)
		}
		cum += c
	}
	return h.max
}

// interp log-interpolates rank position (k+0.5)/c inside bucket i.
func (h *Histogram) interp(i int, k, c uint64) float64 {
	hi := bucketUpper(i)
	lo := bucketLower(i)
	if lo <= 0 {
		// Underflow bucket: no geometric lower bound; its values are all
		// ≤ histMin, and the [min,max] clamp does the rest.
		lo = hi / 2
	}
	frac := (float64(k) + 0.5) / float64(c)
	return lo * math.Pow(hi/lo, frac)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Bucket is one non-empty histogram bucket in cumulative (Prometheus
// `le`) form.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound in seconds.
	UpperBound float64
	// CumulativeCount is the number of observations ≤ UpperBound.
	CumulativeCount uint64
}

// CumulativeBuckets returns the non-empty buckets in ascending bound
// order with cumulative counts — the shape the Prometheus text
// exposition's `le` series wants. Empty buckets are skipped (the series
// stays valid: cumulative counts are non-decreasing and the exporter
// appends the +Inf bucket from Count).
func (h *Histogram) CumulativeBuckets() []Bucket {
	var out []Bucket
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, Bucket{UpperBound: bucketUpper(i), CumulativeCount: cum})
	}
	return out
}

// Summary condenses a histogram into the percentile table reported by
// /v1/stats and CLI reports, in milliseconds.
type Summary struct {
	Samples uint64  `json:"samples"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	MaxMs   float64 `json:"max"`
}

// SummaryMs returns the histogram's percentile summary in milliseconds.
func (h *Histogram) SummaryMs() Summary {
	return Summary{
		Samples: h.n,
		P50:     h.Quantile(0.50) * 1e3,
		P95:     h.Quantile(0.95) * 1e3,
		P99:     h.Quantile(0.99) * 1e3,
		MaxMs:   h.max * 1e3,
	}
}
