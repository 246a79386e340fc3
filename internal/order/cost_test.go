package order

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"gorder/internal/graph"
)

func path3() *graph.Graph {
	return graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
}

func TestLinearCost(t *testing.T) {
	g := path3()
	if got := LinearCost(g, Identity(3)); got != 2 {
		t.Errorf("LinearCost(identity) = %v, want 2", got)
	}
	// Order 1,0,2: edge 0-1 distance 1, edge 1-2 distance 2.
	if got := LinearCost(g, Permutation{1, 0, 2}); got != 3 {
		t.Errorf("LinearCost = %v, want 3", got)
	}
}

func TestLogCost(t *testing.T) {
	g := path3()
	if got := LogCost(g, Identity(3)); got != 0 { // log 1 + log 1
		t.Errorf("LogCost(identity) = %v, want 0", got)
	}
	want := math.Log(2)
	if got := LogCost(g, Permutation{1, 0, 2}); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogCost = %v, want %v", got, want)
	}
}

func TestLogCostSelfLoop(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 0}, {From: 0, To: 1}})
	got := LogCost(g, Identity(2))
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("LogCost with self-loop = %v", got)
	}
}

func TestBandwidth(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 3}, {From: 1, To: 2}})
	if got := Bandwidth(g, Identity(4)); got != 3 {
		t.Errorf("Bandwidth = %d, want 3", got)
	}
}

func TestPairScore(t *testing.T) {
	// 2 -> 0, 2 -> 1 (common in-neighbour), plus 0 -> 1.
	g := graph.FromEdges(3, []graph.Edge{{From: 2, To: 0}, {From: 2, To: 1}, {From: 0, To: 1}})
	if got := PairScore(g, 0, 1); got != 2 { // Ss=1 (vertex 2), Sn=1 (edge 0->1)
		t.Errorf("PairScore(0,1) = %d, want 2", got)
	}
	if got := PairScore(g, 1, 0); got != 2 { // symmetric
		t.Errorf("PairScore(1,0) = %d, want 2", got)
	}
	// Mutual edges count twice in Sn.
	g2 := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}})
	if got := PairScore(g2, 0, 1); got != 2 {
		t.Errorf("mutual PairScore = %d, want 2", got)
	}
}

func TestScoreWindow(t *testing.T) {
	// Path 0->1->2 with identity order.
	g := path3()
	// w=1: pairs (1,0) and (2,1): each Sn=1, Ss=0 → F=2.
	if got := Score(g, Identity(3), 1); got != 2 {
		t.Errorf("Score w=1 = %d, want 2", got)
	}
	// w=2 adds pair (2,0): Sn=0, Ss=0 (in-neighbour sets {1} vs {0} wait:
	// in(2) = {1}, in(0) = {} → 0). F stays 2.
	if got := Score(g, Identity(3), 2); got != 2 {
		t.Errorf("Score w=2 = %d, want 2", got)
	}
}

// TestScoreHugeWindowBounded: a window past the vertex count scores
// every pair, as w = n does, in time independent of w — the inner loop
// must not walk the negative positions before the sequence start.
func TestScoreHugeWindowBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randGraph(rng, 64, 256)
	p := Permutation(randPerm(rng, 64))
	want := Score(g, p, 64)
	done := make(chan int64, 1)
	go func() { done <- Score(g, p, 1<<40) }()
	select {
	case got := <-done:
		if got != want {
			t.Errorf("Score w=2^40 = %d, want Score w=n = %d", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Score w=2^40 still running after 5s on a 64-vertex graph")
	}
}

// ScoreCtx is Score under a live context, and stops with the context's
// error once it is done.
func TestScoreCtxHonoursContext(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randGraph(rng, 300, 1500)
	p := Permutation(randPerm(rng, 300))
	if got, err := ScoreCtx(context.Background(), g, p, 8); err != nil || got != Score(g, p, 8) {
		t.Fatalf("ScoreCtx = %d, %v; want Score's %d", got, err, Score(g, p, 8))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := ScoreCtx(ctx, g, p, 8); !errors.Is(err, context.Canceled) || got != 0 {
		t.Fatalf("ScoreCtx on a canceled context = %d, %v; want 0, context.Canceled", got, err)
	}
}

func TestScoreSymmetricUnderReversal(t *testing.T) {
	// F counts unordered close pairs, so reversing the order preserves it.
	rng := rand.New(rand.NewSource(9))
	g := randGraph(rng, 30, 120)
	p := Identity(30)
	rev := make(Permutation, 30)
	for i := range rev {
		rev[i] = graph.NodeID(29 - i)
	}
	for _, w := range []int{1, 3, 7} {
		if a, b := Score(g, p, w), Score(g, rev, w); a != b {
			t.Errorf("w=%d: Score(id)=%d != Score(reversed)=%d", w, a, b)
		}
	}
}

// Score with w >= n-1 is order-independent (every pair is in window).
func TestQuickScoreFullWindowInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randGraph(rng, n, rng.Intn(3*n))
		p := Permutation(randPerm(rng, n))
		q := Permutation(randPerm(rng, n))
		return Score(g, p, n-1) == Score(g, q, n-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Score is monotone non-decreasing in the window size.
func TestQuickScoreMonotoneInWindow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randGraph(rng, n, rng.Intn(3*n))
		p := Permutation(randPerm(rng, n))
		prev := int64(0)
		for w := 1; w < n; w++ {
			s := Score(g, p, w)
			if s < prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// packingTestGraph has exactly four hot vertices (0..3, in-degree 9)
// among 64 vertices whose baseline in-degree is 1: m = 96, average
// in-degree 1.5, so hot means in-degree > 1.5.
func packingTestGraph() *graph.Graph {
	var edges []graph.Edge
	for v := 0; v < 64; v++ {
		edges = append(edges, graph.Edge{From: graph.NodeID((v + 1) % 64), To: graph.NodeID(v)})
	}
	for h := 0; h < 4; h++ {
		for s := 10; s < 18; s++ {
			edges = append(edges, graph.Edge{From: graph.NodeID(s), To: graph.NodeID(h)})
		}
	}
	return graph.FromEdges(64, edges)
}

func TestPackingFactorHandComputed(t *testing.T) {
	g := packingTestGraph()
	// Identity: hot vertices 0..3 share cache block 0 → 4 hot vertices
	// in 1 hot block.
	if got := PackingFactor(g, Identity(64)); got != 4 {
		t.Errorf("identity packing factor = %v, want 4", got)
	}
	// Spread: one hot vertex per block (positions 0, 16, 32, 48) → 4
	// hot vertices in 4 hot blocks.
	spread := make(Permutation, 64)
	taken := make([]bool, 64)
	for h := 0; h < 4; h++ {
		spread[h] = uint32(16 * h)
		taken[16*h] = true
	}
	next := 0
	for v := 4; v < 64; v++ {
		for taken[next] {
			next++
		}
		spread[v] = uint32(next)
		taken[next] = true
	}
	if got := PackingFactor(g, spread); got != 1 {
		t.Errorf("spread packing factor = %v, want 1", got)
	}
}

func TestPackingFactorHubClusterMaximal(t *testing.T) {
	// HubCluster packs the hot set contiguously from position 0, which
	// achieves the best possible packing factor for the graph.
	g := packingTestGraph()
	got := PackingFactor(g, HubCluster(g))
	if got != 4 { // 4 hot vertices fit one block
		t.Errorf("HubCluster packing factor = %v, want 4", got)
	}
}

func TestPackingFactorEdgeCases(t *testing.T) {
	if got := PackingFactor(graph.FromEdges(0, nil), Permutation{}); got != 0 {
		t.Errorf("empty graph = %v, want 0", got)
	}
	// Uniform in-degree: no vertex is strictly above average → 0.
	ring := make([]graph.Edge, 8)
	for v := 0; v < 8; v++ {
		ring[v] = graph.Edge{From: graph.NodeID(v), To: graph.NodeID((v + 1) % 8)}
	}
	if got := PackingFactor(graph.FromEdges(8, ring), Identity(8)); got != 0 {
		t.Errorf("uniform graph = %v, want 0", got)
	}
}

func TestQuickPackingFactorBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		g := randGraph(rng, n, rng.Intn(5*n))
		pf := PackingFactor(g, Random(n, uint64(seed)))
		if pf == 0 {
			return true // no hot vertices
		}
		return pf >= 1 && pf <= CacheBlockEntries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
