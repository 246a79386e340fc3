// Benchmarks regenerating the paper's tables and figures (one bench
// per artefact, at reduced scale so `go test -bench=.` terminates in
// minutes) plus microbenchmarks and the design-choice ablations from
// DESIGN.md. For full-scale tables run `go run ./cmd/bench -exp all`.
package gorder_test

import (
	"fmt"
	"testing"

	"gorder"
	"gorder/internal/bench"
	"gorder/internal/core"
)

// benchRunner returns a runner small enough for testing.B iteration.
func benchRunner() *bench.Runner {
	r := bench.NewRunner()
	r.Scale = 0.1
	r.Reps = 1
	r.MaxDatasets = 3
	r.Params.PageRankIters = 20
	r.Params.DiameterSamples = 5
	return r
}

// BenchmarkTable1Datasets regenerates the dataset-features table.
func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if t := r.Table1(); len(t.Rows) == 0 {
			b.Fatal("empty table1")
		}
	}
}

// BenchmarkTable2OrderingTime regenerates the ordering-time table
// (original paper's Table 9).
func BenchmarkTable2OrderingTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if t := r.Table2(); len(t.Rows) == 0 {
			b.Fatal("empty table2")
		}
	}
}

// BenchmarkFig5Speedup regenerates the relative-runtime grid
// (original paper's Figure 9); Fig6 and FigS1 are derived views of
// the same matrix.
func BenchmarkFig5Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if ts := r.Fig5Tables(); len(ts) != 9 {
			b.Fatal("fig5 incomplete")
		}
		if t := r.Fig6Table(); len(t.Rows) != 10 {
			b.Fatal("fig6 incomplete")
		}
		if ts := r.FigS1Tables(); len(ts) != 9 {
			b.Fatal("figs1 incomplete")
		}
	}
}

// BenchmarkTable3CacheStats regenerates the PageRank cache-statistics
// tables (original paper's Tables 3–4).
func BenchmarkTable3CacheStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if ts := r.Table3Tables(); len(ts) == 0 {
			b.Fatal("empty table3")
		}
	}
}

// BenchmarkFig1CacheStall regenerates the CPU-vs-stall breakdown
// (Figure 1 in both papers).
func BenchmarkFig1CacheStall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if t := r.Fig1Table(); len(t.Rows) != 9 {
			b.Fatal("fig1 incomplete")
		}
	}
}

// BenchmarkFig4WindowSize regenerates the window-size sweep (original
// paper's Figure 8).
func BenchmarkFig4WindowSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if t := r.Fig4Table(); len(t.Rows) == 0 {
			b.Fatal("empty fig4")
		}
	}
}

// BenchmarkFig3AnnealingTuning regenerates the simulated-annealing
// grid (the replication's Figure 3).
func BenchmarkFig3AnnealingTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if t := r.Fig3Table(); len(t.Rows) == 0 {
			b.Fatal("empty fig3")
		}
	}
}

// --- Microbenchmarks ---------------------------------------------------

// BenchmarkGorderCompute measures the ordering computation itself at
// growing sizes (the scalability dimension of Table 2).
func BenchmarkGorderCompute(b *testing.B) {
	for _, n := range []int{2000, 8000, 32000} {
		g := gorder.NewSocialGraph(n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportMetric(float64(g.NumEdges()), "edges")
			for i := 0; i < b.N; i++ {
				gorder.Order(g)
			}
		})
	}
}

// BenchmarkKernelsByOrdering times each kernel on a mid-size web
// graph under the Original order and under Gorder — the per-cell
// measurement Figure 5 aggregates.
func BenchmarkKernelsByOrdering(b *testing.B) {
	g := gorder.NewWebGraph(20000, 3)
	variants := map[string]*gorder.Graph{
		"original": g,
		"gorder":   gorder.Apply(g, gorder.Order(g)),
	}
	kernels := map[string]func(h *gorder.Graph){
		"NQ":    func(h *gorder.Graph) { gorder.NeighbourQuery(h) },
		"BFS":   func(h *gorder.Graph) { gorder.BFSAll(h) },
		"DFS":   func(h *gorder.Graph) { gorder.DFSAll(h) },
		"SCC":   func(h *gorder.Graph) { gorder.SCC(h) },
		"SP":    func(h *gorder.Graph) { gorder.ShortestPaths(h, 0) },
		"PR":    func(h *gorder.Graph) { gorder.PageRank(h, 20, 0.85) },
		"DS":    func(h *gorder.Graph) { gorder.DominatingSet(h) },
		"Kcore": func(h *gorder.Graph) { gorder.CoreNumbers(h) },
		"Diam":  func(h *gorder.Graph) { gorder.Diameter(h, 5, 1) },
	}
	for _, kname := range []string{"NQ", "BFS", "DFS", "SCC", "SP", "PR", "DS", "Kcore", "Diam"} {
		for _, vname := range []string{"original", "gorder"} {
			b.Run(kname+"/"+vname, func(b *testing.B) {
				h := variants[vname]
				run := kernels[kname]
				for i := 0; i < b.N; i++ {
					run(h)
				}
			})
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ----------------

// BenchmarkAblationHubSkip measures the hub-skip optimisation: the
// sibling-score expansion through high-out-degree in-neighbours
// dominates Gorder's cost on power-law graphs.
func BenchmarkAblationHubSkip(b *testing.B) {
	g := gorder.NewRMATGraph(14, 8, 9)
	for _, cfg := range []struct {
		name string
		opt  gorder.Options
	}{
		{"exact", gorder.Options{}},
		{"skip64", gorder.Options{HubThreshold: 64}},
		{"skip16", gorder.Options{HubThreshold: 16}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var score int64
			for i := 0; i < b.N; i++ {
				p := gorder.OrderWithOptions(g, cfg.opt)
				score = gorder.Score(g, p, gorder.DefaultWindow)
			}
			b.ReportMetric(float64(score), "F")
		})
	}
}

// BenchmarkAblationWindow measures how the window size trades
// ordering cost against ordering quality (the engine behind Fig 4).
func BenchmarkAblationWindow(b *testing.B) {
	g := gorder.NewWebGraph(20000, 11)
	for _, w := range []int{1, 5, 16, 64} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gorder.OrderWithOptions(g, gorder.Options{Window: w})
			}
		})
	}
}

// BenchmarkUnitHeapOps measures the raw queue operations.
func BenchmarkUnitHeapOps(b *testing.B) {
	const n = 1 << 16
	b.Run("inc-dec", func(b *testing.B) {
		h := core.NewUnitHeap(n)
		for i := 0; i < b.N; i++ {
			v := i & (n - 1)
			h.Inc(v)
			h.Dec(v)
		}
	})
	b.Run("extract-refill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := core.NewUnitHeap(1024)
			for h.Len() > 0 {
				h.ExtractMax()
			}
		}
	})
}

// BenchmarkCacheSimOverhead measures the simulator's cost per access.
func BenchmarkCacheSimOverhead(b *testing.B) {
	g := gorder.NewWebGraph(5000, 1)
	b.Run("native-PR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gorder.PageRank(g, 5, 0.85)
		}
	})
	b.Run("simulated-PR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gorder.SimulateCache(g, gorder.KernelPR, gorder.SmallCache()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompressExtension regenerates the compression extension
// experiment: gap-encoded bits/edge under Random vs Gorder.
func BenchmarkCompressExtension(b *testing.B) {
	g := gorder.NewWebGraph(20000, 13)
	random := gorder.Apply(g, gorder.RandomOrder(g, 1))
	ordered := gorder.Apply(g, gorder.Order(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb := gorder.CompressedBitsPerEdge(random)
		gb := gorder.CompressedBitsPerEdge(ordered)
		if gb >= rb {
			b.Fatalf("gorder %.2f bits/edge not below random %.2f", gb, rb)
		}
	}
}

// BenchmarkIncrementalVsFull measures the evolving-graph extension:
// extending an ordering to 10% new vertices vs recomputing from
// scratch.
func BenchmarkIncrementalVsFull(b *testing.B) {
	g := gorder.NewSocialGraph(20000, 17)
	base := gorder.Order(g)
	var edges []gorder.Edge
	g.Edges(func(u, v gorder.NodeID) bool {
		edges = append(edges, gorder.Edge{From: u, To: v})
		return true
	})
	for v := gorder.NodeID(20000); v < 22000; v++ {
		for j := 0; j < 4; j++ {
			edges = append(edges, gorder.Edge{From: v, To: (v*7 + gorder.NodeID(j)*131) % 20000})
		}
	}
	g2 := gorder.FromEdgesDedup(22000, edges)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gorder.OrderIncremental(g2, base, gorder.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gorder.Order(g2)
		}
	})
}
