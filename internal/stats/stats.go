// Package stats provides the small statistical toolkit the experiment
// harness needs: summary statistics over repeated timings and rank
// aggregation across experiment series (used for the paper's Figure 6).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs, or 0 for an empty slice. xs is not
// modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Ranks assigns competition ranks (1 = best) to the given scores,
// smaller scores ranking first. Ties receive the same rank and the
// following rank is skipped, as in standard competition ranking.
func Ranks(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	ranks := make([]int, len(scores))
	for pos, i := range idx {
		if pos > 0 && scores[i] == scores[idx[pos-1]] {
			ranks[i] = ranks[idx[pos-1]]
		} else {
			ranks[i] = pos + 1
		}
	}
	return ranks
}

// RankHistogram aggregates ranks over many series. series[s][c] is the
// score of contender c in series s (smaller is better). The result
// hist[c][r-1] counts how many series placed contender c at rank r.
// All series must have the same number of contenders.
func RankHistogram(series [][]float64) [][]int {
	if len(series) == 0 {
		return nil
	}
	nc := len(series[0])
	hist := make([][]int, nc)
	for c := range hist {
		hist[c] = make([]int, nc)
	}
	for _, s := range series {
		if len(s) != nc {
			panic("stats: ragged series in RankHistogram")
		}
		for c, r := range Ranks(s) {
			hist[c][r-1]++
		}
	}
	return hist
}

// MeanRank returns the average rank of each contender over the series,
// a convenient scalar summary of RankHistogram.
func MeanRank(series [][]float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	nc := len(series[0])
	sum := make([]float64, nc)
	for _, s := range series {
		for c, r := range Ranks(s) {
			sum[c] += float64(r)
		}
	}
	for c := range sum {
		sum[c] /= float64(len(series))
	}
	return sum
}
