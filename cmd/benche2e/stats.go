package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean more than its single worst sample.
const tailBeyond = 10

// rank is the nearest-rank position (1-based) of percentile q in n
// sorted samples.
func rank(q, n int) int {
	r := (q*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile is the highest whole percentile up to cap that has at
// least tailBeyond samples beyond it, and false when not even the
// median has.
func tailPercentile(n, cap int) (int, bool) {
	for q := cap; q >= 50; q-- {
		if n-rank(q, n) >= tailBeyond {
			return q, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile q of xs (any order).
func percentile(xs []float64, q int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(q, len(s))-1]
}

// median is the middle sample, or the mean of the two middle samples.
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

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// bucket is one cumulative histogram bucket of a Prometheus histogram.
type bucket struct {
	le    float64
	count float64
}

// histQuantile estimates quantile q from cumulative bucket counts by
// linear interpolation inside the bucket that crosses it, as
// Prometheus's histogram_quantile does; 0 when the histogram is empty.
func histQuantile(bs []bucket, q float64) float64 {
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].count
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.count >= target {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.count == below {
				return b.le
			}
			return lo + (b.le-lo)*(target-below)/(b.count-below)
		}
		lo, below = b.le, b.count
	}
	return lo
}
