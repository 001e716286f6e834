package main

import (
	"math"
	"sort"
)

// median returns the median of xs (mean of the middle two for an even
// count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTailSamples is how many samples must lie beyond a percentile for it
// to be reported: fewer, and the figure is one or two outliers, not a
// percentile.
const minTailSamples = 10

// percentile is the nearest-rank q-quantile (0 < q <= 1) of an ascending
// slice. ok is false when fewer than minTailSamples samples lie beyond
// it; the value is then still returned, but callers report 0.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minTailSamples
}

// medianInt64 is the median of an ascending slice, as float64.
func medianInt64(sorted []int64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(sorted[n/2])
	}
	return float64(sorted[n/2-1]+sorted[n/2]) / 2
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianByKey folds per-repetition metric maps into one: each key's
// median over the repetitions that reported it.
func medianByKey(reps []map[string]float64) map[string]float64 {
	byKey := make(map[string][]float64)
	for _, m := range reps {
		for k, v := range m {
			byKey[k] = append(byKey[k], v)
		}
	}
	out := make(map[string]float64, len(byKey))
	for k, vs := range byKey {
		out[k] = median(vs)
	}
	return out
}
