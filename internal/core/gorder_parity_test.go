package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/graph"
)

// TestOrderOptimizedMatchesReference is the tentpole's safety net: the
// optimized greedy (dense-index unit heap, batched per-placement
// deltas, devirtualized loop) must return a permutation identical to
// the seed per-bump implementation — not merely one of equal score —
// across random graphs, the full window sweep and the hub ablation.
// Any tie-break drift in the batched relocation order shows up here as
// a hard mismatch.
func TestOrderOptimizedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	graphs := []*graph.Graph{
		gen.Web(400, gen.DefaultWeb, 7),
		gen.BarabasiAlbert(300, 5, 11),
		gen.SBM(350, 5, 8, 2, 3),
	}
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(120)
		graphs = append(graphs, randGraph(rng, n, rng.Intn(6*n)))
	}
	for gi, g := range graphs {
		for _, w := range []int{1, 2, 5, 8, 16} {
			for _, hub := range []int{0, 4} {
				opt := Options{Window: w, HubThreshold: hub}
				name := fmt.Sprintf("g%d/w=%d/hub=%d", gi, w, hub)
				want := orderReference(g, opt, NewUnitHeap(g.NumNodes()))
				got := OrderWith(g, opt)
				if len(got) != len(want) {
					t.Fatalf("%s: length %d vs reference %d", name, len(got), len(want))
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s: permutation diverges from reference at vertex %d: %d vs %d",
							name, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// The batched loop reports its work through the context stats carrier:
// every vertex is placed, and relocations plus extractions outnumber
// the vertices on a non-trivial graph.
func TestOrderStatsCarrier(t *testing.T) {
	g := gen.Web(800, gen.DefaultWeb, 5)
	var st OrderStats
	ctx := WithOrderStats(context.Background(), &st)
	if _, err := OrderWithCtx(ctx, g, Options{}); err != nil {
		t.Fatal(err)
	}
	if st.Placements() != int64(g.NumNodes()) {
		t.Errorf("placements = %d, want %d", st.Placements(), g.NumNodes())
	}
	ops := st.HeapOps()
	if ops <= int64(g.NumNodes()) {
		t.Errorf("heap ops = %d, implausibly low for %d vertices", ops, g.NumNodes())
	}

	// Without a carrier the context lookup is a no-op.
	if _, err := OrderWithCtx(context.Background(), g, Options{}); err != nil {
		t.Fatal(err)
	}

	// The parallel variant shares one carrier across its partitions.
	// Every vertex is placed at least once; ghost hubs in the extended
	// partition subgraphs account for the surplus.
	var parSt OrderStats
	if _, err := OrderPartitionedCtx(WithOrderStats(context.Background(), &parSt), g,
		Options{}, PartitionedOptions{Workers: 4, Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	if parSt.Placements() < int64(g.NumNodes()) {
		t.Errorf("parallel placements = %d, want >= %d", parSt.Placements(), g.NumNodes())
	}
}
