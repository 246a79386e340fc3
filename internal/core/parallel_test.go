package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
)

// orderParallel runs the partitioned Gorder with parallelism p as both
// the partition count and the worker bound.
func orderParallel(g *graph.Graph, p int) order.Permutation {
	return OrderPartitioned(g, Options{}, PartitionedOptions{Workers: p, Partitions: p})
}

func TestQuickParallelValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		g := randGraph(rng, n, rng.Intn(4*n))
		for _, p := range []int{0, 1, 2, 4, n + 3} {
			perm := orderParallel(g, p)
			if len(perm) != n || perm.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestParallelEmpty(t *testing.T) {
	g := randGraph(rand.New(rand.NewSource(1)), 1, 0)
	if p := orderParallel(g, 4); len(p) != 1 {
		t.Errorf("singleton graph: %v", p)
	}
}

func TestParallelDeterministic(t *testing.T) {
	g := gen.BarabasiAlbert(600, 4, 3)
	a := orderParallel(g, 4)
	b := orderParallel(g, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("parallel ordering not deterministic")
		}
	}
}

// The partition-parallel approximation retains most of the objective:
// within a factor of the sequential exact greedy, and far above
// random.
func TestParallelQuality(t *testing.T) {
	g := gen.Web(4000, gen.DefaultWeb, 6)
	w := DefaultWindow
	exact := order.Score(g, Order(g), w)
	rnd := order.Score(g, order.Random(g.NumNodes(), 1), w)
	// Quality degrades gracefully with partition count: boundary pairs
	// are forfeited and chunks shrink as parallelism grows, but the
	// guide partitioner plus ghost hubs keep sibling relations scoring
	// (measured: 0.98/0.96/0.92 of exact on this graph).
	for _, tc := range []struct {
		par      int
		fraction float64
	}{{2, 0.90}, {4, 0.85}, {8, 0.80}} {
		par := order.Score(g, orderParallel(g, tc.par), w)
		if float64(par) < tc.fraction*float64(exact) {
			t.Errorf("parallelism %d: F=%d below %.0f%% of exact %d",
				tc.par, par, 100*tc.fraction, exact)
		}
		if par <= rnd*2 {
			t.Errorf("parallelism %d: F=%d not well above random %d", tc.par, par, rnd)
		}
	}
}

// Every partition occupies one contiguous block of the final position
// space — partitions are stitched whole, never interleaved.
func TestParallelPartitionsContiguous(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 9)
	const par = 5
	perm := orderParallel(g, par)
	seq := perm.Sequence()
	// Recompute the default (guide) partition and check that the
	// stitched sequence is a concatenation of the partitions, each
	// block holding exactly one partition's members.
	parts := chunkPartition(order.BOBA(g).Sequence(), par)
	memberOf := make([]int, g.NumNodes())
	for i, members := range parts {
		for _, v := range members {
			memberOf[v] = i
		}
	}
	pos := 0
	seen := make([]bool, len(parts))
	for pos < len(seq) {
		p := memberOf[seq[pos]]
		if seen[p] {
			t.Fatalf("partition %d appears in two separate blocks (position %d)", p, pos)
		}
		seen[p] = true
		for i := 0; i < len(parts[p]); i++ {
			if got := memberOf[seq[pos]]; got != p {
				t.Fatalf("position %d holds vertex of partition %d inside partition %d's block",
					pos, got, p)
			}
			pos++
		}
	}
}
