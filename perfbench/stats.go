package main

import (
	"math"
	"sort"
)

// Quantile is one exact order statistic of a raw sample: the value, the
// sample count it was taken from, and how many samples lie strictly
// above its rank (the "samples beyond" a percentile needs at least ten
// of before it is worth reporting).
type Quantile struct {
	Value  float64
	N      int
	Beyond int
}

// nearestRank returns the exact p-quantile (0 < p <= 1) of an ascending
// sample by the nearest-rank rule: the smallest value with at least
// p·n samples at or below it. No interpolation and no bucketing, so the
// result is always one of the measured values.
func nearestRank(sorted []float64, p float64) Quantile {
	n := len(sorted)
	if n == 0 {
		return Quantile{Value: math.NaN()}
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return Quantile{Value: sorted[rank-1], N: n, Beyond: n - rank}
}

// Percentiles sorts a copy of xs and returns its exact quantiles at ps.
func Percentiles(xs []float64, ps ...float64) []Quantile {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]Quantile, len(ps))
	for i, p := range ps {
		out[i] = nearestRank(s, p)
	}
	return out
}

// Median is the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty sample.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean is the arithmetic mean of xs; NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Windows splits a timed sample into n consecutive windows of the given
// width starting at start: window i holds the values whose time lies in
// [start+i·width, start+(i+1)·width). Values outside every window are
// dropped.
func Windows(at []int64, vals []float64, start, width int64, n int) [][]float64 {
	out := make([][]float64, n)
	for i, t := range at {
		if t < start {
			continue
		}
		if w := int((t - start) / width); w < n {
			out[w] = append(out[w], vals[i])
		}
	}
	return out
}
