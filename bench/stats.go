package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// harness will print it: a tail read off fewer is an anecdote.
const minBeyond = 10

// quantile returns the q-quantile (nearest rank) of sorted and how many
// samples lie strictly beyond that rank. sorted must be ascending and
// non-empty.
func quantile(sorted []float64, q float64) (value float64, beyond int) {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1], len(sorted) - rank
}

// supportedQuantile is quantile under the minBeyond rule: ok is false
// when the sample cannot support the percentile, and callers must then
// not report it.
func supportedQuantile(sorted []float64, q float64) (value float64, ok bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	v, beyond := quantile(sorted, q)
	return v, beyond >= minBeyond
}

// median of an unsorted sample; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b with 0 for an empty base, so counters that never moved
// read 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
