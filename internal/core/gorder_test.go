package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
)

func randGraph(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n))}
	}
	return graph.FromEdgesDedup(n, edges)
}

func TestOrderEmptyAndTiny(t *testing.T) {
	if p := Order(graph.FromEdges(0, nil)); len(p) != 0 {
		t.Errorf("empty graph: perm = %v", p)
	}
	p := Order(graph.FromEdges(1, nil))
	if len(p) != 1 || p[0] != 0 {
		t.Errorf("single vertex: perm = %v", p)
	}
	p = Order(graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}}))
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestOrderStartsAtMaxInDegree(t *testing.T) {
	// Vertex 2 has in-degree 3.
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 2}, {From: 1, To: 2}, {From: 3, To: 2}, {From: 0, To: 1},
	})
	p := Order(g)
	if p[2] != 0 {
		t.Errorf("start vertex position = %d, want 0", p[2])
	}
}

// Every ordering Gorder produces must be a valid permutation, under
// any option combination.
func TestQuickOrderValid(t *testing.T) {
	opts := []Options{
		{},
		{Window: 1},
		{Window: 8},
		{HubThreshold: 3},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		g := randGraph(rng, n, rng.Intn(4*n))
		for _, o := range opts {
			p := OrderWith(g, o)
			if len(p) != n || p.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// greedyOptimal replays the produced sequence and verifies that every
// placed vertex had the maximum score to the window at its placement —
// the defining property of the greedy algorithm, independent of
// tie-breaking and of the queue implementation.
func greedyOptimal(t *testing.T, g *graph.Graph, p order.Permutation, w int) {
	t.Helper()
	n := g.NumNodes()
	seq := p.Sequence()
	placed := make([]bool, n)
	placed[seq[0]] = true
	for i := 1; i < n; i++ {
		lo := i - w
		if lo < 0 {
			lo = 0
		}
		window := seq[lo:i]
		scoreOf := func(u graph.NodeID) int64 {
			var s int64
			for _, x := range window {
				s += order.PairScore(g, u, x)
			}
			return s
		}
		chosen := scoreOf(seq[i])
		for u := 0; u < n; u++ {
			if !placed[u] {
				if s := scoreOf(graph.NodeID(u)); s > chosen {
					t.Fatalf("step %d: placed %v with score %d but %d scores %d",
						i, seq[i], chosen, u, s)
				}
			}
		}
		placed[seq[i]] = true
	}
}

func TestOrderGreedyOptimalUnitHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		g := randGraph(rng, n, 2*n+rng.Intn(3*n))
		for _, w := range []int{1, 3, 5} {
			greedyOptimal(t, g, OrderWith(g, Options{Window: w}), w)
		}
	}
}

func TestOrderGreedyOptimalLazyHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		g := randGraph(rng, n, 2*n+rng.Intn(3*n))
		greedyOptimal(t, g, orderReference(g, Options{Window: 4}, newLazyHeap(n)), 4)
	}
}

// Gorder must beat a random ordering on the objective it optimises.
func TestOrderBeatsRandomOnScore(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 7)
	w := DefaultWindow
	gord := order.Score(g, Order(g), w)
	rnd := order.Score(g, order.Random(g.NumNodes(), 3), w)
	orig := order.Score(g, order.Identity(g.NumNodes()), w)
	if gord <= rnd {
		t.Errorf("Gorder score %d not above random %d", gord, rnd)
	}
	if gord <= orig {
		t.Errorf("Gorder score %d not above original %d", gord, orig)
	}
}

// The hub-skip optimisation must stay close to the exact objective.
func TestHubThresholdNearExact(t *testing.T) {
	g := gen.BarabasiAlbert(300, 4, 9)
	w := DefaultWindow
	exact := order.Score(g, OrderWith(g, Options{Window: w}), w)
	approx := order.Score(g, OrderWith(g, Options{Window: w, HubThreshold: 32}), w)
	if float64(approx) < 0.8*float64(exact) {
		t.Errorf("hub-skip score %d below 80%% of exact %d", approx, exact)
	}
}

// Larger windows never see the algorithm crash and produce sane
// scores; the score evaluated at the algorithm's own window should
// broadly improve with w on a structured graph.
func TestWindowSweepSane(t *testing.T) {
	g := gen.Web(300, gen.DefaultWeb, 11)
	var prev int64 = -1
	for _, w := range []int{1, 2, 4, 8} {
		p := OrderWith(g, Options{Window: w})
		if err := p.Validate(); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		s := order.Score(g, p, 8) // fixed evaluation window
		if s < prev/2 {
			t.Errorf("w=%d: score %d collapsed from %d", w, s, prev)
		}
		prev = s
	}
}

func TestMultilevelOrderValidAndUseful(t *testing.T) {
	g := gen.SBM(3000, 30, 10, 1, 8)
	p := MultilevelOrder(g, Options{}, 256)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	w := DefaultWindow
	if f, r := order.Score(g, p, w), order.Score(g, order.Random(g.NumNodes(), 1), w); f <= 3*r {
		t.Errorf("multilevel Gorder F=%d not well above random %d", f, r)
	}
}
