package main

import (
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{200, 0.95, 190, 10},
		{200, 0.50, 100, 100},
		{199, 0.95, 190, 9},
		{1, 0.95, 1, 0},
		{3, 0, 1, 2},
	} {
		got, beyond := quantile(ramp(tc.n), tc.q)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("quantile(1..%d, %g) = %g with %d beyond, want %g with %d",
				tc.n, tc.q, got, beyond, tc.want, tc.wantBeyond)
		}
	}
}

// A percentile is printed only when at least minBeyond samples lie
// beyond it; anything thinner is refused, not estimated.
func TestSupportedQuantileRefusesThinTail(t *testing.T) {
	if _, ok := supportedQuantile(ramp(199), 0.95); ok {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if v, ok := supportedQuantile(ramp(200), 0.95); !ok || v != 190 {
		t.Errorf("p95 of 200 samples = %g, %v; want 190, true", v, ok)
	}
	if _, ok := supportedQuantile(ramp(19), 0.50); ok {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, ok := supportedQuantile(nil, 0.50); ok {
		t.Error("an empty sample supports no percentile")
	}
}

func TestMedianAndRatio(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd sample = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of empty sample = %g, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over an empty base = %g, want 0", got)
	}
}

// A request that spent part of its time in the system while its
// predecessor of the same fingerprint was still in flight waited that
// long; other fingerprints and analytic ops do not count.
func TestSerialWaits(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	waits := serialWaits([]sample{
		{fp: 0, end: at(60), lat: ms(60)},                // sent at 0, alone
		{fp: 0, end: at(120), lat: ms(100), lag: ms(10)}, // due 20, sent 30: 30 ms behind the first
		{fp: 0, end: at(300), lat: ms(50)},               // sent at 250: idle system
		{fp: 1, end: at(100), lat: ms(90)},               // other fingerprint
		{fp: -1, end: at(100), lat: ms(90)},              // analytic
	})
	var sum float64
	for _, w := range waits {
		sum += w
	}
	if len(waits) != 4 || sum != 30 {
		t.Errorf("serialWaits = %v, want four waits summing to 30 ms", waits)
	}
}
