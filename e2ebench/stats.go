package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 over 200 samples would rest on two values, so it is lowered to
// the highest percentile that still has minTail samples above it.
const minTail = 10

// tailQuantile is the quantile actually reported for a requested p over
// n samples: p itself when at least minTail samples lie beyond it, else
// the highest quantile that has minTail samples beyond it, never below
// the median.
func tailQuantile(p float64, n int) float64 {
	if n <= 0 {
		return p
	}
	if q := 1 - float64(minTail)/float64(n); q < p {
		p = q
	}
	return math.Max(p, 0.5)
}

// percentile returns the nearest-rank value at tailQuantile(p, n). It
// sorts xs in place. An empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	q := tailQuantile(p, n)
	i := int(math.Ceil(q*float64(n))) - 1
	return xs[min(max(i, 0), n-1)]
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nsToMS converts nanosecond samples to milliseconds.
func nsToMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
