package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
)

func TestQuickPartitionedValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		g := randGraph(rng, n, rng.Intn(4*n))
		for _, po := range []PartitionedOptions{
			{},
			{Workers: 1, Partitions: 2},
			{Workers: 3, Partitions: 5},
			{Workers: 8, Partitions: n},
		} {
			perm := OrderPartitioned(g, Options{}, po)
			if len(perm) != n || perm.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// The permutation is a function of (graph, Options, Partitions) only — bit-identical at every worker count and
// GOMAXPROCS setting. This is the contract that lets the artifact
// cache ignore Workers.
func TestPartitionedWorkerIndependent(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"web": gen.Web(400, gen.DefaultWeb, 7),
		"ba":  gen.BarabasiAlbert(300, 5, 11),
		"sbm": gen.SBM(350, 5, 8, 2, 3),
	}
	for gname, g := range graphs {
		po := PartitionedOptions{Workers: 1, Partitions: 6}
		base := OrderPartitioned(g, Options{}, po)
		if err := base.Validate(); err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		for _, workers := range []int{2, 3, 8, 0} {
			po.Workers = workers
			p := OrderPartitioned(g, Options{}, po)
			for u := range base {
				if base[u] != p[u] {
					t.Fatalf("%s: workers=%d diverges from workers=1 at vertex %d",
						gname, workers, u)
				}
			}
		}
	}
}

// Same contract across GOMAXPROCS: shrinking the scheduler to one
// thread must not change the output (the CI gate runs the whole suite
// under GOMAXPROCS=1 as well).
func TestPartitionedGOMAXPROCSIndependent(t *testing.T) {
	g := gen.Web(400, gen.DefaultWeb, 7)
	po := PartitionedOptions{Workers: 4, Partitions: 6}
	base := OrderPartitioned(g, Options{}, po)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	p := OrderPartitioned(g, Options{}, po)
	for u := range base {
		if base[u] != p[u] {
			t.Fatalf("GOMAXPROCS=1 diverges at vertex %d", u)
		}
	}
}

// Partitions IS part of the result: different counts give different
// permutations on a graph large enough to split differently.
func TestPartitionedPartitionCountMatters(t *testing.T) {
	g := gen.Web(4000, gen.DefaultWeb, 6)
	a := OrderPartitioned(g, Options{}, PartitionedOptions{Partitions: 2})
	b := OrderPartitioned(g, Options{}, PartitionedOptions{Partitions: 16})
	same := true
	for u := range a {
		if a[u] != b[u] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("partition counts 2 and 16 produced identical permutations")
	}
}

// Small graphs collapse to a single partition (minPartitionVertices)
// and must then match the exact sequential greedy.
func TestPartitionedSmallGraphIsExact(t *testing.T) {
	g := gen.BarabasiAlbert(40, 3, 5)
	want := Order(g)
	got := OrderPartitioned(g, Options{}, PartitionedOptions{Partitions: 8})
	for u := range want {
		if want[u] != got[u] {
			t.Fatalf("small-graph partitioned diverges from exact at vertex %d", u)
		}
	}
}

func TestPartitionedCanceled(t *testing.T) {
	g := gen.BarabasiAlbert(5000, 6, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := OrderPartitionedCtx(ctx, g, Options{}, PartitionedOptions{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p != nil {
		t.Fatal("canceled run returned a permutation")
	}
}

func TestPartitionedDeadline(t *testing.T) {
	// Large enough that the per-partition greedies cannot finish in a
	// microsecond; the deadline must interrupt them mid-run.
	g := gen.BarabasiAlbert(20000, 8, 7)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := OrderPartitionedCtx(ctx, g, Options{}, PartitionedOptions{Workers: 4})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("OrderPartitionedCtx ignored its deadline")
	}
}

// stitchOrder places heavily connected partitions adjacently: on a
// block-structured graph whose partitions coincide with the blocks,
// the chain must follow the inter-block edge weights, not the index
// order the partitions arrived in.
func TestStitchFollowsWeight(t *testing.T) {
	// Three clusters: 0 and 2 heavily linked, 1 attached only to 2.
	edges := []graph.Edge{}
	cluster := func(base int) {
		for i := 0; i < 9; i++ {
			edges = append(edges, graph.Edge{From: graph.NodeID(base + i), To: graph.NodeID(base + i + 1)})
		}
	}
	cluster(0)
	cluster(10)
	cluster(20)
	for i := 0; i < 8; i++ { // heavy 0<->2 link
		edges = append(edges, graph.Edge{From: graph.NodeID(i), To: graph.NodeID(20 + i)})
	}
	edges = append(edges, graph.Edge{From: 10, To: 20}) // light 1->2 link
	g := graph.FromEdges(30, edges)
	parts := [][]graph.NodeID{idRange(0, 10), idRange(10, 20), idRange(20, 30)}
	chain := stitchOrder(g, parts)
	// Start partition holds the max-in-degree vertex; whatever it is,
	// partition 1 (the weakly linked one) must come last.
	if chain[len(chain)-1] != 1 {
		t.Fatalf("chain = %v; weakly connected partition 1 should stitch last", chain)
	}
}

func TestChunkPartitionCoversDisjoint(t *testing.T) {
	g := gen.SBM(500, 10, 8, 1, 4)
	seq := order.BOBA(g).Sequence()
	for _, k := range []int{1, 2, 7, 16} {
		parts := chunkPartition(seq, k)
		seen := make([]bool, g.NumNodes())
		total := 0
		for _, members := range parts {
			for _, v := range members {
				if seen[v] {
					t.Fatalf("k=%d: vertex %d in two partitions", k, v)
				}
				seen[v] = true
				total++
			}
		}
		if total != g.NumNodes() {
			t.Fatalf("k=%d: partitions cover %d of %d vertices", k, total, g.NumNodes())
		}
		if len(parts) != k {
			t.Fatalf("k=%d: got %d partitions", k, len(parts))
		}
	}
}

func idRange(lo, hi int) []graph.NodeID {
	out := make([]graph.NodeID, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, graph.NodeID(v))
	}
	return out
}

// Quality guard for the default configuration on a mid-size web graph:
// the partitioned score must stay close to exact and far above random.
// TestParallelSmokeMidSize is the CI race-detector smoke: order a
// mid-size web graph with the two headline parallel methods at
// workers=4 and validate the permutations. Run by scripts/ci.sh with
// -race so any data race in the worker fan-out or the chunked
// passes surfaces.
func TestParallelSmokeMidSize(t *testing.T) {
	g := gen.Web(20000, gen.DefaultWeb, 0xC1)
	perm, err := order.BOBACtx(context.Background(), g, 4)
	if err != nil {
		t.Fatalf("boba: %v", err)
	}
	if err := perm.Validate(); err != nil {
		t.Fatalf("boba permutation: %v", err)
	}
	perm, err = OrderPartitionedCtx(context.Background(), g, Options{},
		PartitionedOptions{Workers: 4})
	if err != nil {
		t.Fatalf("gorder-partitioned: %v", err)
	}
	if err := perm.Validate(); err != nil {
		t.Fatalf("gorder-partitioned permutation: %v", err)
	}
}

func TestPartitionedQualityDefault(t *testing.T) {
	g := gen.Web(4000, gen.DefaultWeb, 6)
	w := DefaultWindow
	exact := order.Score(g, Order(g), w)
	part := order.Score(g, OrderPartitioned(g, Options{}, PartitionedOptions{}), w)
	if float64(part) < 0.8*float64(exact) {
		t.Errorf("default partitioned F=%d below 80%% of exact %d", part, exact)
	}
}
