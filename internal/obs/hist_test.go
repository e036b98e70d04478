package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the sorted-sample reference the histogram's rank
// convention matches: sorted[floor(q*(n-1))].
func exactQuantile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram not zero: count=%d sum=%v p50=%v max=%v",
			h.Count(), h.Sum(), h.Quantile(0.5), h.Max())
	}
	if got := h.CumulativeBuckets(); len(got) != 0 {
		t.Fatalf("empty histogram has buckets: %v", got)
	}
	sum := h.SummaryMs()
	if sum.Samples != 0 || sum.P99 != 0 {
		t.Fatalf("empty summary not zero: %+v", sum)
	}
}

func TestHistogramOneSampleExact(t *testing.T) {
	for _, v := range []float64{3.7e-7, 1e-6, 4.2e-3, 1.0, 250} {
		var h Histogram
		h.Observe(v)
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if got := h.Quantile(q); got != v {
				t.Errorf("one sample %v: Quantile(%v) = %v, want exact", v, q, got)
			}
		}
		if h.Min() != v || h.Max() != v || h.Sum() != v || h.Count() != 1 {
			t.Errorf("one sample %v: min=%v max=%v sum=%v n=%d", v, h.Min(), h.Max(), h.Sum(), h.Count())
		}
	}
}

// TestHistogramQuantileError checks the estimate against the exact
// sorted reference: always within one bucket's relative width (2^(1/4)
// ≈ 19%) for values inside the bucketed range.
func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() float64{
		// Latency-shaped: log-uniform across 6 decades.
		"loguniform": func() float64 { return math.Pow(10, -6+6*rng.Float64()) },
		// Heavy-tailed exponential around 5ms.
		"exponential": func() float64 { return rng.ExpFloat64() * 5e-3 },
		// Bimodal: cache hits ~10µs, misses ~50ms.
		"bimodal": func() float64 {
			if rng.Intn(2) == 0 {
				return 1e-5 * (1 + rng.Float64())
			}
			return 5e-2 * (1 + rng.Float64())
		},
	}
	relWidth := math.Exp2(1.0/bucketsPerOctave) - 1 // ≈ 0.19
	for name, draw := range distributions {
		var h Histogram
		samples := make([]float64, 5000)
		for i := range samples {
			samples[i] = draw()
			h.Observe(samples[i])
		}
		for _, q := range []float64{0.05, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999} {
			want := exactQuantile(samples, q)
			got := h.Quantile(q)
			relErr := math.Abs(got-want) / want
			if relErr > relWidth {
				t.Errorf("%s: Quantile(%v) = %v, exact %v, rel err %.3f > %.3f",
					name, q, got, want, relErr, relWidth)
			}
		}
	}
}

func TestHistogramMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := make([]Histogram, 4)
	var whole Histogram
	for i := range parts {
		for j := 0; j < 500+100*i; j++ {
			v := rng.ExpFloat64() * 1e-3
			parts[i].Observe(v)
			whole.Observe(v)
		}
	}
	// ((a+b)+(c+d)) and (d+(c+(b+a))) and the direct observation must
	// agree on everything quantiles depend on — bucket counts, n, min,
	// max — exactly. (The running sum is float addition, so different
	// groupings may differ in the last ulps; it feeds no percentile.)
	left := parts[0].Merge(parts[1]).Merge(parts[2].Merge(parts[3]))
	right := parts[3].Merge(parts[2].Merge(parts[1].Merge(parts[0])))
	for _, m := range []*Histogram{&left, &right} {
		if m.Count() != whole.Count() || m.Min() != whole.Min() || m.Max() != whole.Max() {
			t.Fatalf("merge grouping changed count/min/max")
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
			if m.Quantile(q) != whole.Quantile(q) {
				t.Fatalf("merged Quantile(%v) = %v, direct %v", q, m.Quantile(q), whole.Quantile(q))
			}
		}
		if relDiff(m.Sum(), whole.Sum()) > 1e-12 {
			t.Fatalf("merged sum %v far from direct %v", m.Sum(), whole.Sum())
		}
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestHistogramMergeEmpty(t *testing.T) {
	var a, empty Histogram
	a.Observe(0.5)
	got := a.Merge(empty)
	if got != a {
		t.Fatalf("merging empty changed the histogram")
	}
	got = empty.Merge(a)
	if got != a {
		t.Fatalf("merging into empty lost data")
	}
}

func TestHistogramUnderflowAndOverflow(t *testing.T) {
	var h Histogram
	h.Observe(0)   // underflow
	h.Observe(-1)  // negative → underflow, still counted
	h.Observe(1e9) // beyond the last bucket → clamped into it
	h.Observe(math.NaN())
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4 (no silent drops)", h.Count())
	}
}

func TestCumulativeBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1e-5, 1e-5, 3e-4, 2e-2} {
		h.Observe(v)
	}
	bs := h.CumulativeBuckets()
	if len(bs) == 0 {
		t.Fatal("no buckets")
	}
	var prevBound float64
	var prevCum uint64
	for _, b := range bs {
		if b.UpperBound <= prevBound {
			t.Fatalf("bounds not ascending: %v after %v", b.UpperBound, prevBound)
		}
		if b.CumulativeCount < prevCum {
			t.Fatalf("cumulative counts decreased: %d after %d", b.CumulativeCount, prevCum)
		}
		prevBound, prevCum = b.UpperBound, b.CumulativeCount
	}
	if last := bs[len(bs)-1].CumulativeCount; last != h.Count() {
		t.Fatalf("last cumulative count %d != total %d", last, h.Count())
	}
}
