package gorder_test

import (
	"bytes"
	"testing"

	"gorder"
)

// TestEndToEndPipeline exercises the whole public API the way the
// README quick start does: generate → order → apply → run kernels →
// compare cache behaviour.
func TestEndToEndPipeline(t *testing.T) {
	g := gorder.NewWebGraph(3000, 1)
	perm := gorder.Order(g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	fast := gorder.Apply(g, perm)
	if fast.NumEdges() != g.NumEdges() {
		t.Fatal("Apply changed the edge count")
	}

	ranks := gorder.PageRank(fast, 20, 0.85)
	if len(ranks) != g.NumNodes() {
		t.Fatal("PageRank wrong length")
	}
	_, sccs := gorder.SCC(fast)
	_, sccsOrig := gorder.SCC(g)
	if sccs != sccsOrig {
		t.Fatal("relabeling changed SCC count")
	}

	// Compare against a randomly shuffled order — the replication's
	// worst-case baseline. (The "Original" web order already has crawl
	// locality, and at this scale the graph nearly fits in the
	// simulated LLC, so random is the discriminating baseline.)
	shuffled := gorder.Apply(g, gorder.RandomOrder(g, 7))
	before, err := gorder.SimulateCache(shuffled, gorder.KernelPR, gorder.SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	after, err := gorder.SimulateCache(fast, gorder.KernelPR, gorder.SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	if after.L1MissRate() >= before.L1MissRate() {
		t.Errorf("Gorder did not reduce PR L1 miss rate: %.4f → %.4f",
			before.L1MissRate(), after.L1MissRate())
	}
	if after.MissRate() > before.MissRate() {
		t.Errorf("Gorder raised the overall miss rate: %.4f → %.4f",
			before.MissRate(), after.MissRate())
	}
}

func TestAllOrderingsViaFacade(t *testing.T) {
	g := gorder.NewSocialGraph(400, 2)
	perms := map[string]gorder.Permutation{
		"gorder":    gorder.Order(g),
		"custom":    gorder.OrderWithOptions(g, gorder.Options{Window: 3, HubThreshold: 16}),
		"original":  gorder.Original(g),
		"random":    gorder.RandomOrder(g, 9),
		"rcm":       gorder.RCM(g),
		"indegsort": gorder.InDegSort(g),
		"chdfs":     gorder.ChDFS(g),
		"slashburn": gorder.SlashBurn(g),
		"ldg":       gorder.LDG(g, 64),
		"minla":     gorder.MinLA(g, gorder.AnnealOptions{Steps: 500}),
		"minloga":   gorder.MinLogA(g, gorder.AnnealOptions{Steps: 500}),
	}
	for name, p := range perms {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Gorder maximises its own objective best among the contenders on
	// this structured graph.
	best := gorder.Score(g, perms["gorder"], gorder.DefaultWindow)
	for _, other := range []string{"random", "original"} {
		if s := gorder.Score(g, perms[other], gorder.DefaultWindow); s >= best {
			t.Errorf("gorder score %d not above %s score %d", best, other, s)
		}
	}
}

func TestAllKernelsViaFacade(t *testing.T) {
	g := gorder.NewRMATGraph(9, 6, 3)
	if got := len(gorder.NeighbourQuery(g)); got != g.NumNodes() {
		t.Error("NQ wrong length")
	}
	dist, reached := gorder.BFS(g, 0)
	if len(dist) != g.NumNodes() || reached < 1 {
		t.Error("BFS malformed")
	}
	if len(gorder.BFSAll(g)) != g.NumNodes() || len(gorder.DFSAll(g)) != g.NumNodes() {
		t.Error("traversals incomplete")
	}
	sp := gorder.ShortestPaths(g, 0)
	for i := range sp {
		if dist[i] != sp[i] {
			t.Fatal("SP disagrees with BFS on unit weights")
		}
	}
	set := gorder.DominatingSet(g)
	if len(set) == 0 {
		t.Error("empty dominating set")
	}
	if len(gorder.CoreNumbers(g)) != g.NumNodes() {
		t.Error("Kcore wrong length")
	}
	if gorder.Diameter(g, 3, 1) < 1 {
		t.Error("implausible diameter")
	}
}

func TestIORoundTripViaFacade(t *testing.T) {
	g := gorder.NewUniformGraph(100, 300, 4)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := gorder.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("binary round trip via facade failed")
	}
	var txt bytes.Buffer
	if err := g.WriteEdgeList(&txt); err != nil {
		t.Fatal(err)
	}
	if _, err := gorder.ReadEdgeList(&txt); err != nil {
		t.Fatal(err)
	}
}

func TestCostMetricsViaFacade(t *testing.T) {
	g := gorder.NewGridGraph(10, 10)
	id := gorder.Original(g)
	if gorder.Bandwidth(g, id) != 10 {
		t.Errorf("grid bandwidth = %d, want 10", gorder.Bandwidth(g, id))
	}
	rcm := gorder.RCM(g)
	if gorder.Bandwidth(g, rcm) > gorder.Bandwidth(g, gorder.RandomOrder(g, 1)) {
		t.Error("RCM bandwidth above random")
	}
	if gorder.LinearCost(g, id) <= 0 || gorder.LogCost(g, id) <= 0 {
		t.Error("cost metrics non-positive on grid")
	}
	stats := gorder.ComputeStats(g)
	if stats.Nodes != 100 {
		t.Errorf("stats nodes = %d", stats.Nodes)
	}
}

func TestSimulateCacheUnknownKernel(t *testing.T) {
	g := gorder.NewUniformGraph(10, 20, 1)
	if _, err := gorder.SimulateCache(g, "nope", gorder.SmallCache()); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestSimulateAllKernels(t *testing.T) {
	g := gorder.NewSocialGraph(300, 5)
	for _, k := range []string{
		gorder.KernelNQ, gorder.KernelBFS, gorder.KernelDFS, gorder.KernelSCC,
		gorder.KernelSP, gorder.KernelPR, gorder.KernelDS, gorder.KernelKcore,
		gorder.KernelDiam,
	} {
		rep, err := gorder.SimulateCache(g, k, gorder.SmallCache())
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if rep.Accesses == 0 {
			t.Errorf("%s: no accesses recorded", k)
		}
	}
}

func TestIncrementalViaFacade(t *testing.T) {
	g := gorder.NewSocialGraph(500, 3)
	base := gorder.Order(g)
	// Grow: re-create a larger graph embedding g's edges.
	var edges []gorder.Edge
	g.Edges(func(u, v gorder.NodeID) bool {
		edges = append(edges, gorder.Edge{From: u, To: v})
		return true
	})
	for v := gorder.NodeID(500); v < 600; v++ {
		edges = append(edges, gorder.Edge{From: v, To: v % 500})
	}
	g2 := gorder.FromEdgesDedup(600, edges)
	p, err := gorder.OrderIncremental(g2, base, gorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 500; u++ {
		if p[u] != base[u] {
			t.Fatal("incremental moved an old vertex")
		}
	}
}

func TestCompressionViaFacade(t *testing.T) {
	g := gorder.NewWebGraph(4000, 9)
	random := gorder.Apply(g, gorder.RandomOrder(g, 2))
	ordered := gorder.Apply(g, gorder.Order(g))
	if gorder.CompressedSize(ordered) >= gorder.CompressedSize(random) {
		t.Error("ordering did not shrink the gap encoding")
	}
	if gorder.CompressedBitsPerEdge(ordered) <= 0 {
		t.Error("implausible bits/edge")
	}
}

func TestProfileReuseViaFacade(t *testing.T) {
	g := gorder.NewSocialGraph(3000, 4)
	caps := []int64{64, 512, 4096}
	randomised := gorder.Apply(g, gorder.RandomOrder(g, 3))
	ordered := gorder.Apply(g, gorder.Order(g))
	pr, err := gorder.ProfileReuse(randomised, gorder.KernelPR, caps...)
	if err != nil {
		t.Fatal(err)
	}
	po, err := gorder.ProfileReuse(ordered, gorder.KernelPR, caps...)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Total == 0 || po.Total == 0 {
		t.Fatal("empty profiles")
	}
	// The ordering's whole effect: shorter reuse distances.
	if po.MeanDistance() >= pr.MeanDistance() {
		t.Errorf("mean reuse distance not reduced: %.0f → %.0f",
			pr.MeanDistance(), po.MeanDistance())
	}
	// And therefore fewer modelled misses at L1-like capacity, the
	// range the window optimisation targets.
	if po.MissRatio(0) >= pr.MissRatio(0) {
		t.Errorf("modelled miss ratio not reduced: %.4f → %.4f",
			pr.MissRatio(0), po.MissRatio(0))
	}
	if _, err := gorder.ProfileReuse(g, "nope"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestParallelViaFacade(t *testing.T) {
	g := gorder.NewWebGraph(2000, 8)
	p := gorder.OrderPartitioned(g, gorder.Options{}, gorder.PartitionedOptions{Workers: 4, Partitions: 4})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	w := gorder.DefaultWindow
	if gorder.Score(g, p, w) <= gorder.Score(g, gorder.RandomOrder(g, 1), w) {
		t.Error("parallel ordering no better than random")
	}
}

func TestExtraKernelsViaFacade(t *testing.T) {
	g := gorder.NewCommunityGraph(600, 6, 8, 1, 2)
	comp, count := gorder.WCC(g)
	if len(comp) != g.NumNodes() || count < 1 {
		t.Error("WCC malformed")
	}
	if gorder.TriangleCount(g) < 1 {
		t.Error("no triangles in a dense community graph")
	}
	labels, communities := gorder.LabelPropagation(g, 0)
	if len(labels) != g.NumNodes() || communities < 1 {
		t.Error("label propagation malformed")
	}
	for _, k := range []string{gorder.KernelWCC, gorder.KernelTriangles, gorder.KernelLabelProp} {
		rep, err := gorder.SimulateCache(g, k, gorder.SmallCache())
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if rep.Accesses == 0 {
			t.Errorf("%s: no accesses", k)
		}
	}
}

func TestWeightedAndCentralityViaFacade(t *testing.T) {
	g := gorder.NewSocialGraph(300, 11)
	w := gorder.RandomWeights(g, 8, 2)
	dj := gorder.DijkstraWeighted(g, w, 0)
	bf, ok := gorder.BellmanFordWeighted(g, w, 0)
	if !ok {
		t.Fatal("unexpected negative cycle")
	}
	for i := range dj {
		if dj[i] != bf[i] {
			t.Fatal("Dijkstra and Bellman-Ford disagree")
		}
	}
	bc := gorder.Betweenness(g, 20, 1)
	if len(bc) != g.NumNodes() {
		t.Fatal("betweenness malformed")
	}
	mlp := gorder.MultilevelOrder(g, gorder.Options{}, 64)
	if err := mlp.Validate(); err != nil {
		t.Fatal(err)
	}
	mlr := gorder.Multilevel(g, gorder.MultilevelOptions{CoarsenTo: 32})
	if err := mlr.Validate(); err != nil {
		t.Fatal(err)
	}
	dob, _ := gorder.DOBFS(g, 0)
	bfs, _ := gorder.BFS(g, 0)
	for i := range dob {
		if dob[i] != bfs[i] {
			t.Fatal("DOBFS disagrees with BFS")
		}
	}
}
