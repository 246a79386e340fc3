package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); !almostEqual(got, 2.5) {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); !almostEqual(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Errorf("Quantile(1) = %v, want 9", got)
	}
	// Input must not be modified.
	if xs[0] != 5 || xs[3] != 3 {
		t.Error("Quantile modified its input")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("Min/Max of empty slice not infinite")
	}
}

func TestRanks(t *testing.T) {
	got := Ranks([]float64{10, 5, 20, 5})
	want := []int{3, 1, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRankHistogram(t *testing.T) {
	series := [][]float64{
		{1, 2, 3}, // a first, b second, c third
		{2, 1, 3}, // b first, a second, c third
		{1, 3, 2}, // a first, c second, b third
	}
	hist := RankHistogram(series)
	if hist[0][0] != 2 || hist[0][1] != 1 {
		t.Errorf("contender 0 hist = %v, want [2 1 0]", hist[0])
	}
	if hist[2][2] != 2 || hist[2][1] != 1 {
		t.Errorf("contender 2 hist = %v, want [0 1 2]", hist[2])
	}
}

func TestMeanRank(t *testing.T) {
	series := [][]float64{{1, 2}, {2, 1}}
	mr := MeanRank(series)
	if !almostEqual(mr[0], 1.5) || !almostEqual(mr[1], 1.5) {
		t.Errorf("MeanRank = %v, want [1.5 1.5]", mr)
	}
}

// Quantile is monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 || v < Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Ranks is a permutation-compatible assignment: sorting by rank sorts
// by score, and every rank is within [1, n].
func TestQuickRanksConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(10)) // force ties
		}
		ranks := Ranks(scores)
		type pair struct {
			s float64
			r int
		}
		ps := make([]pair, n)
		for i := range ps {
			if ranks[i] < 1 || ranks[i] > n {
				return false
			}
			ps[i] = pair{scores[i], ranks[i]}
		}
		slices.SortFunc(ps, func(a, b pair) int { return a.r - b.r })
		for i := 1; i < n; i++ {
			if ps[i-1].s > ps[i].s {
				return false
			}
			if ps[i-1].s == ps[i].s && ps[i-1].r != ps[i].r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
