package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method (Python's statistics.quantiles(xs, n=4) default),
// so the spread the benchmark reports is the one its acceptance rule
// computes. With fewer than two values both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	at := func(j int) float64 {
		m := n + 1
		idx := j * m / 4
		idx = clampInt(idx, 1, n-1)
		frac := float64(j*m-idx*4) / 4
		return s[idx-1] + (s[idx]-s[idx-1])*frac
	}
	return at(1), at(3)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// tailLevels are the percentiles a timing's tail is reported at, from
// the highest down.
var tailLevels = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, with its value; ok is false when even p75 has
// fewer than ten samples above it.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailLevels {
		// rank is the 1-based rank of the p-th percentile; the samples
		// above it are the ones beyond.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if n-rank >= 10 {
			return p, sorted(xs)[clampInt(rank-1, 0, n-1)], true
		}
	}
	return 0, 0, false
}

// tailNote describes a timing sample: its count and, when the sample
// supports one, its tail percentile.
func tailNote(xs []float64, unit string) string {
	if p, v, ok := tail(xs); ok {
		return fmt.Sprintf("n=%d, p%g=%.4g %s", len(xs), p, v, unit)
	}
	return fmt.Sprintf("n=%d, no tail percentile has 10 samples beyond it", len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
