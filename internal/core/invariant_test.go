package core

import (
	"math/rand"
	"testing"

	"gorder/internal/graph"
	"gorder/internal/order"
)

// instrumentedOrder re-implements the greedy loop around a UnitHeap
// but checks, at every step, that EVERY candidate's key equals the
// ground-truth windowed score computed from scratch with
// order.PairScore. This validates the incremental ±1 bookkeeping
// itself, not just the extraction order.
func instrumentedOrder(t *testing.T, g *graph.Graph, w int) {
	t.Helper()
	n := g.NumNodes()
	if n == 0 {
		return
	}
	q := NewUnitHeap(n)
	seq := make([]graph.NodeID, 0, n)
	start := graph.NodeID(0)
	for v := 1; v < n; v++ {
		if g.InDegree(graph.NodeID(v)) > g.InDegree(start) {
			start = graph.NodeID(v)
		}
	}
	q.Delete(int(start))
	seq = append(seq, start)
	apply := func(v graph.NodeID, delta int) {
		bump := func(u graph.NodeID) {
			if q.Contains(int(u)) {
				if delta > 0 {
					q.Inc(int(u))
				} else {
					q.Dec(int(u))
				}
			}
		}
		for _, u := range g.OutNeighbors(v) {
			bump(u)
		}
		for _, x := range g.InNeighbors(v) {
			bump(x)
			for _, u := range g.OutNeighbors(x) {
				if u != v {
					bump(u)
				}
			}
		}
	}
	for i := 1; i < n; i++ {
		apply(seq[i-1], +1)
		if i-1 >= w {
			apply(seq[i-1-w], -1)
		}
		// Ground truth: every live candidate's key must equal its
		// summed pair score against the current window.
		lo := i - w
		if lo < 0 {
			lo = 0
		}
		window := seq[lo:i]
		for u := 0; u < n; u++ {
			if !q.Contains(u) {
				continue
			}
			var want int64
			for _, x := range window {
				want += order.PairScore(g, graph.NodeID(u), x)
			}
			if got := int64(q.Key(u)); got != want {
				t.Fatalf("step %d: key(%d) = %d, ground truth %d", i, u, got, want)
			}
		}
		v, _, ok := q.ExtractMax()
		if !ok {
			t.Fatal("queue exhausted early")
		}
		seq = append(seq, graph.NodeID(v))
	}
}

func TestIncrementalScoreBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(30)
		m := rng.Intn(4 * n)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n))}
		}
		g := graph.FromEdgesDedup(n, edges)
		for _, w := range []int{1, 2, 5} {
			instrumentedOrder(t, g, w)
		}
	}
}

// The two queue engines must agree on the achieved objective to
// within tie-breaking noise: both are exact greedy, so each step's
// chosen key matches; over the whole run F can differ only through
// tie choices, whose cascades cost a few percent on small random
// graphs. We assert both land within 15%.
func TestQueueEnginesAgreeOnObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		n := 50 + rng.Intn(100)
		edges := make([]graph.Edge, 4*n)
		for i := range edges {
			edges[i] = graph.Edge{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n))}
		}
		g := graph.FromEdgesDedup(n, edges)
		w := 4
		fUnit := order.Score(g, OrderWith(g, Options{Window: w}), w)
		fLazy := order.Score(g, orderReference(g, Options{Window: w}, newLazyHeap(n)), w)
		lo, hi := fUnit, fLazy
		if lo > hi {
			lo, hi = hi, lo
		}
		if float64(lo) < 0.85*float64(hi) {
			t.Errorf("engines diverge: unit F=%d lazy F=%d", fUnit, fLazy)
		}
	}
}
