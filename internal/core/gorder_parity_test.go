package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
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
	p, err := OrderWithCtx(ctx, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Placements() != int64(g.NumNodes()) {
		t.Errorf("placements = %d, want %d", st.Placements(), g.NumNodes())
	}
	ops := st.HeapOps()
	if ops <= int64(g.NumNodes()) {
		t.Errorf("heap ops = %d, implausibly low for %d vertices", ops, g.NumNodes())
	}
	// Every vertex but the last placed enters the window, which scans
	// its whole in-list, so the scans cover at least the edges into
	// those vertices.
	last := p.Sequence()[g.NumNodes()-1]
	if sc, into := st.scans.Load(), g.NumEdges()-int64(g.InDegree(last)); sc < into {
		t.Errorf("scans = %d, below the %d edges into window vertices", sc, into)
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

// TestKeySumIsScore holds the identity the served path reports F(pi)
// by: an exact run extracts every vertex with its score against the
// window it joins, so the extracted keys sum to order.Score on every
// graph without parallel edges (self-loops included), at every window.
func TestKeySumIsScore(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	graphs := map[string]*graph.Graph{
		"web":   gen.Web(600, gen.DefaultWeb, 3),
		"rmat":  gen.RMAT(9, 8, gen.DefaultRMAT, 5),
		"ba":    gen.BarabasiAlbert(400, 6, 7),
		"sbm":   gen.SBM(300, 4, 6, 1, 9),
		"ws":    gen.WattsStrogatz(300, 6, 0.2, 11),
		"rand":  randGraph(rng, 200, 1500),
		"empty": graph.FromEdges(5, nil),
	}
	for name, g := range graphs {
		if g.HasParallelEdges() {
			t.Fatalf("%s: generator produced parallel edges", name)
		}
		for _, w := range []int{1, 3, 5, 8, 16} {
			var st OrderStats
			p, err := OrderWithCtx(WithOrderStats(context.Background(), &st), g, Options{Window: w})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := st.KeySum(), order.Score(g, p, w); got != want {
				t.Errorf("%s/w=%d: key sum %d, order.Score %d", name, w, got, want)
			}
		}
	}
}

// TestRescanMatchesReference holds the log-overflow fallback to the
// per-bump oracles. A placement whose bumps overflow greedyLogCap is
// applied by re-walking the live out-lists accumulate compacted, and
// the random suites never overflow the log. Here one hub has 5000
// in-neighbours of out-degree 4 (within the hub ablation's threshold),
// so its own placement and its exit from the window each bump about
// 20000 candidates, most of them through the sibling expansion. The
// exact and incremental orderings must match the oracles bit for bit,
// and every configuration must actually overflow.
func TestRescanMatchesReference(t *testing.T) {
	const core, leaves = 3000, 5000
	rng := rand.New(rand.NewSource(47))
	node := func(v int) graph.NodeID { return graph.NodeID(v) }
	var edges []graph.Edge
	for i := 0; i < 3*core; i++ {
		edges = append(edges, graph.Edge{From: node(rng.Intn(core)), To: node(rng.Intn(core))})
	}
	hub := node(core)
	for l := core + 1; l <= core+leaves; l++ {
		edges = append(edges, graph.Edge{From: node(l), To: hub})
		for j := 0; j < 3; j++ {
			edges = append(edges, graph.Edge{From: node(l), To: node(rng.Intn(core))})
		}
	}
	g := graph.FromEdgesDedup(core+1+leaves, edges)

	// The incremental case freezes a random tenth of the old vertices;
	// the hub and its in-neighbours are new.
	base := make(order.Permutation, core)
	for i, j := range rng.Perm(core) {
		base[i] = node(j)
	}
	var dirty []graph.NodeID
	for _, v := range rng.Perm(core)[:core*9/10] {
		dirty = append(dirty, node(v))
	}
	frozen := core - len(dirty)

	same := func(name string, got, want order.Permutation) {
		t.Helper()
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
	for _, w := range []int{1, 5, 16} {
		for _, h := range []int{0, 4} {
			opt := Options{Window: w, HubThreshold: h}
			name := fmt.Sprintf("w=%d/hub=%d", w, h)

			want := orderReference(g, opt, NewUnitHeap(g.NumNodes()))
			same(name+"/exact", OrderWith(g, opt), want)
			if logOverflows(g, want, 1, w, h) == 0 {
				t.Fatalf("%s/exact: no placement overflows the log", name)
			}

			want, err := orderIncrementalReference(context.Background(), g, base, dirty, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := OrderIncrementalCtx(context.Background(), g, base, dirty, opt)
			if err != nil {
				t.Fatal(err)
			}
			same(name+"/incremental", got, want)
			if logOverflows(g, want, frozen, w, h) == 0 {
				t.Fatalf("%s/incremental: no placement overflows the log", name)
			}
		}
	}
}

// logOverflows counts the placements of the greedy run that produced
// perm whose bumps exceed greedyLogCap, the ones the rescan fallback
// applies. It replays the reference traversal of each window step
// against that step's candidates, the vertices placed after it; prefix
// is the length of the placed sequence the run extended.
func logOverflows(g *graph.Graph, perm order.Permutation, prefix, w, hub int) int {
	bumps := func(v graph.NodeID, i int) int {
		c := 0
		live := func(u graph.NodeID) {
			if int(perm[u]) >= i {
				c++
			}
		}
		for _, u := range g.OutNeighbors(v) {
			live(u)
		}
		for _, x := range g.InNeighbors(v) {
			live(x)
			if hub > 0 && g.OutDegree(x) > hub {
				continue
			}
			for _, u := range g.OutNeighbors(x) {
				if u != v {
					live(u)
				}
			}
		}
		return c
	}
	seq := perm.Sequence()
	prefix = max(prefix, 1) // an empty prefix starts from one extraction
	lo := max(0, prefix-w)
	over := 0
	for _, v := range seq[lo : prefix-1] {
		if bumps(v, prefix) > greedyLogCap {
			over++
		}
	}
	for i := prefix; i < len(seq); i++ {
		c := bumps(seq[i-1], i)
		if i-1-w >= lo {
			c += bumps(seq[i-1-w], i)
		}
		if c > greedyLogCap {
			over++
		}
	}
	return over
}
