package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between closest ranks. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentile returns the highest percentile, in tenths, that has at
// least ten of n samples beyond it, and the median when n < 20. A tail
// percentile with fewer samples beyond it is a single outlier, not a
// distribution.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return float64(1000*(n-10)/n) / 10
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so the numbers printed here match the ones
// Python gives for the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func median(xs []float64) float64 { return percentile(xs, 50) }
