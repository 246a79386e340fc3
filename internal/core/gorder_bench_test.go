package core

import (
	"context"
	"fmt"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
)

// orderBenchGraphs are the synthetic ordering workloads
// scripts/bench.sh gorder records to BENCH_gorder.json: a small
// web graph for fast iteration and the 1M-edge web graph that
// dominates bench_results.txt's ordering times (Table 2's regime).
var orderBenchGraphs = []struct {
	name string
	gen  func() *graph.Graph
}{
	{"web120k", func() *graph.Graph { return gen.Web(12000, gen.DefaultWeb, 0x90DE) }},
	{"web1M", func() *graph.Graph { return gen.Web(100000, gen.DefaultWeb, 0x90DE) }},
}

// orderBenchConfigs sweep the window (the paper's Figure 8 dimension)
// at exact scores, plus one hub-threshold ablation at the default
// window (the practical power-law optimisation).
var orderBenchConfigs = []Options{
	{Window: 1},
	{Window: 5},
	{Window: 16},
	{Window: 5, HubThreshold: 64},
}

// BenchmarkOrderWith measures the Gorder greedy itself — the system's
// dominant cost — reporting placements/sec alongside ns/op so runs of
// different graph sizes stay comparable.
func BenchmarkOrderWith(b *testing.B) {
	for _, ds := range orderBenchGraphs {
		g := ds.gen()
		for _, opt := range orderBenchConfigs {
			name := fmt.Sprintf("%s/w=%d/hub=%d", ds.name, opt.Window, opt.HubThreshold)
			b.Run(name, func(b *testing.B) {
				b.ReportMetric(float64(g.NumEdges()), "edges")
				for i := 0; i < b.N; i++ {
					OrderWith(g, opt)
				}
				placements := float64(g.NumNodes()-1) * float64(b.N)
				b.ReportMetric(placements/b.Elapsed().Seconds(), "placements/s")
			})
		}
	}
}

// BenchmarkOrderPartitioned measures the partition-parallel greedy at
// the default window and partition grid, and reports its quality as
// F/exact: its score over exact Gorder's, computed outside the timer.
// The permutation is deterministic and worker-independent, so F/exact
// is an exact count that benchdiff holds at its baseline.
func BenchmarkOrderPartitioned(b *testing.B) {
	opt := Options{Window: DefaultWindow}
	for _, ds := range orderBenchGraphs {
		b.Run(ds.name, func(b *testing.B) {
			g := ds.gen()
			exact := order.Score(g, OrderWith(g, opt), opt.Window)
			b.ResetTimer()
			var p order.Permutation
			for i := 0; i < b.N; i++ {
				p = OrderPartitioned(g, opt, PartitionedOptions{})
			}
			b.StopTimer()
			b.ReportMetric(float64(order.Score(g, p, opt.Window))/float64(exact), "F/exact")
		})
	}
}

// BenchmarkOrderIncremental measures OrderIncrementalCtx on the web1M
// graph: appending 10 and 10k vertices to the exact ordering of the
// rest, and a repair that re-places 20k random vertices. Every case
// pays the greedy's O(n) heap setup; the large cases are dominated by
// the re-placement itself.
func BenchmarkOrderIncremental(b *testing.B) {
	g := gen.Web(100000, gen.DefaultWeb, 0x90DE)
	n := g.NumNodes()
	full := OrderWith(g, Options{})
	// prefixBase is full restricted to vertices 0..k-1: the ordering
	// the graph had before vertices k..n-1 were appended.
	prefixBase := func(k int) order.Permutation {
		seq := make([]graph.NodeID, 0, k)
		for _, v := range full.Sequence() {
			if int(v) < k {
				seq = append(seq, v)
			}
		}
		return order.FromSequence(seq)
	}
	var dirty []graph.NodeID
	for _, v := range gen.NewRNG(7).Perm(n)[:20000] {
		dirty = append(dirty, graph.NodeID(v))
	}
	for _, c := range []struct {
		name  string
		base  order.Permutation
		dirty []graph.NodeID
	}{
		{"append10", prefixBase(n - 10), nil},
		{"append10k", prefixBase(n - 10000), nil},
		{"repair20k", full, dirty},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := OrderIncrementalCtx(context.Background(), g, c.base, c.dirty, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationQueue compares the paper's unit heap against a lazy
// binary heap inside the per-bump reference greedy, so the queue is
// the only difference between the two runs — the claim the unit heap
// exists to support.
func BenchmarkAblationQueue(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 8, 5)
	for _, q := range queueImpls {
		b.Run(q.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				orderReference(g, Options{}, q.make(g.NumNodes()))
			}
		})
	}
}

// BenchmarkUnitHeapChurn isolates the queue: a deterministic mix of
// Inc/Dec/batched Add/ExtractMax in the proportions the greedy loop
// produces, without graph traversal — the microbenchmark that shows
// the dense class index vs the old map-backed one.
func BenchmarkUnitHeapChurn(b *testing.B) {
	const n = 1 << 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewUnitHeap(n)
		x := uint64(0x9E3779B97F4A7C15)
		for ops := 0; ops < 4*n; ops++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			item := int(x % n)
			if !h.Contains(item) {
				continue
			}
			switch x >> 60 & 3 {
			case 0, 1:
				h.Inc(item)
			case 2:
				if h.Key(item) > 0 {
					h.Dec(item)
				}
			case 3:
				h.ExtractMax()
			}
		}
		for h.Len() > 0 {
			h.ExtractMax()
		}
	}
}
