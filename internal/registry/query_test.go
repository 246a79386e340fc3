package registry

import (
	"context"
	"reflect"
	"testing"

	"gorder/internal/algos"
	"gorder/internal/gen"
	"gorder/internal/graph"
)

func TestQueryableKernelSet(t *testing.T) {
	want := []string{"BFS", "Kcore", "NQ", "PR", "SP", "Tri"}
	if got := QueryableKernelNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("queryable kernels = %v, want %v", got, want)
	}
	// Order-dependent kernels must stay out: their outputs (visit
	// sequences, component label choices) change under relabeling, so
	// serving them from an arbitrary ordering would be wrong.
	for _, name := range []string{"DFS", "SCC", "WCC", "LP", "Diam", "DS"} {
		k, ok := LookupKernel(name)
		if !ok {
			t.Fatalf("kernel %s missing from catalog", name)
		}
		if k.Query != nil {
			t.Errorf("order-dependent kernel %s is queryable", name)
		}
	}
	// Whole-graph kernels are exactly the source-independent ones.
	for _, k := range kernels {
		if k.Query == nil {
			continue
		}
		hasSource := false
		for _, f := range k.QueryConsumes {
			if f == KOptSource {
				hasSource = true
			}
		}
		if k.WholeGraph == hasSource {
			t.Errorf("kernel %s: WholeGraph=%v but consumes-source=%v",
				k.Name, k.WholeGraph, hasSource)
		}
	}
}

func TestKernelKeyCanonicalization(t *testing.T) {
	// Unconsumed fields never split the key: a BFS query keys the same
	// whatever PR iteration count rides along.
	_, k1, err := KernelKey("BFS", KernelParams{SPSource: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := KernelKey("bfs", KernelParams{SPSource: 3, PageRankIters: 99, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("BFS keys split on unconsumed params: %s vs %s", k1, k2)
	}
	_, k3, _ := KernelKey("BFS", KernelParams{SPSource: 4})
	if k1 == k3 {
		t.Error("BFS keys for different sources collide")
	}

	// The PR default iteration count and its explicit spelling are one
	// key; a different count is another.
	cDefault, kDefault, _ := KernelKey("PR", KernelParams{})
	_, kExplicit, _ := KernelKey("PR", KernelParams{PageRankIters: algos.DefaultPageRankIters})
	if kDefault != kExplicit {
		t.Errorf("PR default-iters spellings split: %s vs %s", kDefault, kExplicit)
	}
	if cDefault.PageRankIters != algos.DefaultPageRankIters {
		t.Errorf("canonical PR iters = %d, want default %d",
			cDefault.PageRankIters, algos.DefaultPageRankIters)
	}
	if _, kOther, _ := KernelKey("PR", KernelParams{PageRankIters: 5}); kOther == kDefault {
		t.Error("PR keys for different iteration counts collide")
	}

	if _, _, err := KernelKey("NoSuchKernel", KernelParams{}); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestQueryBFSMatchesDirectTraversal(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 11)
	k, _ := LookupKernel("BFS")
	var scratch QueryScratch

	// Two runs from different sources through one scratch: results must
	// match fresh per-run traversals, proving the buffer reset between
	// calls is complete.
	for _, src := range []int{0, 17} {
		res, err := k.Query(context.Background(), g, KernelParams{SPSource: src}, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		want := freshBFS(g, graph.NodeID(src))
		if !reflect.DeepEqual(res.Int32s, want) {
			t.Fatalf("src %d: scratch-based BFS diverges from fresh traversal", src)
		}
		reached := 0
		for _, d := range want {
			if d != algos.Unreached {
				reached++
			}
		}
		if int(res.Summary["reached"]) != reached {
			t.Errorf("src %d: reached = %v, want %d", src, res.Summary["reached"], reached)
		}
	}

	if _, err := k.Query(context.Background(), g, KernelParams{SPSource: g.NumNodes()}, &scratch); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := k.Query(context.Background(), g, KernelParams{SPSource: -1}, &scratch); err == nil {
		t.Error("unresolved hub sentinel accepted by the kernel")
	}
}

// freshBFS is an independent reference traversal: the serial oracle,
// with fresh buffers every time.
func freshBFS(g *graph.Graph, src graph.NodeID) []int32 {
	dist, _ := algos.BFSFrom(g, src)
	return dist
}

func TestHubSourceIsDegreeInvariant(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 3)
	hub := HubSource(g)
	for v := 0; v < g.NumNodes(); v++ {
		if g.OutDegree(graph.NodeID(v)) > g.OutDegree(hub) {
			t.Fatalf("vertex %d out-degrees the hub %d", v, hub)
		}
		if g.OutDegree(graph.NodeID(v)) == g.OutDegree(hub) && graph.NodeID(v) < hub {
			t.Fatalf("hub %d is not the lowest-ID max-degree vertex (%d ties)", hub, v)
		}
	}
}
