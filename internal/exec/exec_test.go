package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"gorder/internal/algos"
	"gorder/internal/gen"
	"gorder/internal/graph"
)

// The parity table: four generator shapes (random, skewed, local, and
// dense enough that BFS switches bottom-up) crossed with worker counts
// {1, 2, 4, 8}. Every parallel kernel must
// reproduce its serial oracle exactly — bit-identical distances,
// counts, and (because the dangling fold is serial) PageRank floats —
// regardless of the worker count or GOMAXPROCS. ci.sh runs this file
// under -race and again with GOMAXPROCS=1.

var parityGraphs = []struct {
	name  string
	build func() *graph.Graph
}{
	{"erdos-renyi", func() *graph.Graph { return gen.ErdosRenyi(600, 3000, 11) }},
	{"barabasi-albert", func() *graph.Graph { return gen.BarabasiAlbert(600, 4, 12) }},
	{"web", func() *graph.Graph { return gen.Web(600, gen.WebConfig{}, 13) }},
	// Average degree ≈ 40: the frontier blows up within two levels,
	// which drives DOBFS down its bottom-up branch.
	{"dense", func() *graph.Graph { return gen.ErdosRenyi(300, 300*40, 7) }},
}

var parityWorkers = []int{1, 2, 4, 8}

func forParityCases(t *testing.T, fn func(t *testing.T, g *graph.Graph, workers int, sc *Scratch)) {
	t.Helper()
	for _, pg := range parityGraphs {
		g := pg.build()
		for _, w := range parityWorkers {
			t.Run(fmt.Sprintf("%s/workers=%d", pg.name, w), func(t *testing.T) {
				var sc Scratch
				fn(t, g, w, &sc)
			})
		}
	}
}

func TestPageRankParity(t *testing.T) {
	forParityCases(t, func(t *testing.T, g *graph.Graph, workers int, sc *Scratch) {
		want := algos.PageRank(g, 30, algos.DefaultDamping)
		got, err := PageRank(context.Background(), g, 30, algos.DefaultDamping, workers, sc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank[%d] = %v, serial %v (not bit-identical)", i, got[i], want[i])
			}
		}
	})
}

func TestDOBFSParity(t *testing.T) {
	forParityCases(t, func(t *testing.T, g *graph.Graph, workers int, sc *Scratch) {
		for _, src := range []graph.NodeID{0, 7} {
			wantDist, wantReached := algos.BFSFrom(g, src)
			gotDist, gotReached, err := DOBFS(context.Background(), g, src, workers, sc)
			if err != nil {
				t.Fatal(err)
			}
			if gotReached != wantReached {
				t.Fatalf("src %d: reached %d, serial %d", src, gotReached, wantReached)
			}
			for i := range wantDist {
				if gotDist[i] != wantDist[i] {
					t.Fatalf("src %d: dist[%d] = %d, serial %d", src, i, gotDist[i], wantDist[i])
				}
			}
		}
	})
}

// DOBFS matches plain BFS on small random graphs, from random sources,
// at random worker counts.
func TestQuickDOBFSMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		edges := make([]graph.Edge, rng.Intn(6*n))
		for i := range edges {
			edges[i] = graph.Edge{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n))}
		}
		g := graph.FromEdges(n, edges)
		src := graph.NodeID(rng.Intn(n))
		want, wantReached := algos.BFSFrom(g, src)
		got, reached, err := DOBFS(context.Background(), g, src, parityWorkers[rng.Intn(len(parityWorkers))], nil)
		return err == nil && reached == wantReached && slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Vertices with no path from the source stay at Unreached and are not
// counted, at every worker count.
func TestDOBFSUnreachable(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}})
	for _, w := range parityWorkers {
		dist, reached, err := DOBFS(context.Background(), g, 0, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if reached != 2 || dist[0] != 0 || dist[1] != 1 || dist[2] != algos.Unreached || dist[3] != algos.Unreached {
			t.Fatalf("workers=%d: dist = %v reached = %d", w, dist, reached)
		}
	}
}

func TestDOBFSSingleton(t *testing.T) {
	g := graph.FromEdges(1, nil)
	for _, w := range parityWorkers {
		dist, reached, err := DOBFS(context.Background(), g, 0, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if reached != 1 || len(dist) != 1 || dist[0] != 0 {
			t.Fatalf("workers=%d: singleton: %v %d", w, dist, reached)
		}
	}
}

func TestShortestPathsParity(t *testing.T) {
	forParityCases(t, func(t *testing.T, g *graph.Graph, workers int, sc *Scratch) {
		want := algos.BellmanFord(g, 0)
		got, err := ShortestPaths(context.Background(), g, 0, workers, sc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dist[%d] = %d, serial %d", i, got[i], want[i])
			}
		}
	})
}

func TestDeltaSteppingWeightedParity(t *testing.T) {
	forParityCases(t, func(t *testing.T, g *graph.Graph, workers int, sc *Scratch) {
		weights := algos.RandomWeights(g, 40, 99)
		want := algos.DijkstraWeighted(g, weights, 0)
		for _, delta := range []int64{0, 1, 7} { // 0 = auto-pick
			got, err := DeltaStepping(context.Background(), g, weights, 0, delta, workers, sc)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delta %d: dist[%d] = %d, serial %d", delta, i, got[i], want[i])
				}
			}
		}
	})
}

func TestTriangleCountParity(t *testing.T) {
	forParityCases(t, func(t *testing.T, g *graph.Graph, workers int, sc *Scratch) {
		want := algos.TriangleCount(g)
		got, err := TriangleCount(context.Background(), g, workers, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("triangles = %d, serial %d", got, want)
		}
	})
}

// Parity on degenerate shapes: singleton, no-edge graph, a graph where
// most vertices are unreachable, a ring whose BFS runs many levels,
// and a star whose hub makes one chunk heavy.
func TestParityDegenerateShapes(t *testing.T) {
	shapes := []*graph.Graph{
		graph.FromEdges(1, nil),
		graph.FromEdges(5, nil),
		graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}}),
		gen.Ring(50),
		gen.Grid(8, 8),
	}
	ctx := context.Background()
	for _, g := range shapes {
		var sc Scratch
		wantPR := algos.PageRank(g, 10, algos.DefaultDamping)
		gotPR, err := PageRank(ctx, g, 10, algos.DefaultDamping, 4, &sc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantPR {
			if gotPR[i] != wantPR[i] {
				t.Fatalf("n=%d: rank[%d] = %v, serial %v", g.NumNodes(), i, gotPR[i], wantPR[i])
			}
		}
		wantD, wantR := algos.BFSFrom(g, 0)
		gotD, gotR, err := DOBFS(ctx, g, 0, 4, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if gotR != wantR {
			t.Fatalf("n=%d: reached %d, serial %d", g.NumNodes(), gotR, wantR)
		}
		for i := range wantD {
			if gotD[i] != wantD[i] {
				t.Fatalf("n=%d: dist[%d] = %d, serial %d", g.NumNodes(), i, gotD[i], wantD[i])
			}
		}
		wantT := algos.TriangleCount(g)
		gotT, err := TriangleCount(ctx, g, 4, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if gotT != wantT {
			t.Fatalf("n=%d: triangles %d, serial %d", g.NumNodes(), gotT, wantT)
		}
		wantS := algos.BellmanFord(g, 0)
		gotS, err := ShortestPaths(ctx, g, 0, 4, &sc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantS {
			if gotS[i] != wantS[i] {
				t.Fatalf("n=%d: sp[%d] = %d, serial %d", g.NumNodes(), i, gotS[i], wantS[i])
			}
		}
	}
}

// Scratch reuse across different kernels and graph sizes must not leak
// state between runs.
func TestScratchReuseAcrossKernels(t *testing.T) {
	ctx := context.Background()
	var sc Scratch
	big := gen.ErdosRenyi(400, 2000, 21)
	small := gen.ErdosRenyi(40, 100, 22)
	for _, g := range []*graph.Graph{big, small, big} {
		want := algos.PageRank(g, 5, algos.DefaultDamping)
		got, err := PageRank(ctx, g, 5, algos.DefaultDamping, 4, &sc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("PageRank diverged after scratch reuse at %d", i)
			}
		}
		wd, _ := algos.BFSFrom(g, 0)
		gd, _, err := DOBFS(ctx, g, 0, 4, &sc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wd {
			if gd[i] != wd[i] {
				t.Fatalf("DOBFS diverged after scratch reuse at %d", i)
			}
		}
	}
}

// An already-cancelled context must abort before any work.
func TestCancelledContextAborts(t *testing.T) {
	g := gen.ErdosRenyi(200, 1000, 31)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PageRank(ctx, g, 10, algos.DefaultDamping, 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("PageRank err = %v, want context.Canceled", err)
	}
	if _, _, err := DOBFS(ctx, g, 0, 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("DOBFS err = %v, want context.Canceled", err)
	}
	if _, err := ShortestPaths(ctx, g, 0, 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("ShortestPaths err = %v, want context.Canceled", err)
	}
	if _, err := TriangleCount(ctx, g, 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("TriangleCount err = %v, want context.Canceled", err)
	}
}

// A deadline expiring mid-run stops parallel PageRank between chunks:
// the run returns DeadlineExceeded instead of finishing all its
// iterations. The iteration count is set high enough that the work
// cannot complete inside the deadline on any plausible machine.
func TestDeadlineStopsPageRankMidIteration(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 8, 41)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	ranks, err := PageRank(ctx, g, 1_000_000, algos.DefaultDamping, 4, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded (elapsed %v)", err, time.Since(start))
	}
	if ranks != nil {
		t.Fatal("cancelled PageRank must not return a partial result")
	}
	// The abort must happen promptly — between chunks, not after all
	// 1e6 iterations (which would take minutes).
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; not stopping mid-iteration", elapsed)
	}
}

func TestDeltaSteppingNegativeWeight(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	if _, err := DeltaStepping(context.Background(), g, []int32{-3}, 0, 1, 2, nil); err == nil {
		t.Fatal("negative weight must error")
	}
}
