package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// tailQuantile picks the percentile a tail metric nominally at want
// (0.9 for a p90) can honestly report from n samples: the highest one
// with at least minBeyond samples above it, never above want and never
// below the median.
func tailQuantile(n int, want float64, minBeyond int) float64 {
	if n <= 0 {
		return want
	}
	q := 1 - float64(minBeyond)/float64(n)
	if q > want {
		q = want
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so the spreads this program reports match the
// ones an outside check computes from the same values. With fewer
// than two values every cut is that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var cut [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		cut[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q3 == q1 {
		return 0
	}
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// median returns the middle value of xs (the mean of the middle two
// for an even count), which is also the second quartile.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
