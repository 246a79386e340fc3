package registry

import (
	"context"
	"sort"
	"strings"

	"gorder/internal/algos"
	"gorder/internal/graph"
	"gorder/internal/mem"
)

// KernelParams carries the kernel parameters experiments may scale
// away from the paper's defaults. Each kernel reads only the fields it
// understands.
type KernelParams struct {
	// PageRankIters is the PR power-iteration count.
	PageRankIters int
	// DiameterSamples is the Diam SP source-sample count.
	DiameterSamples int
	// Seed drives the stochastic kernels (Diam's source choice).
	Seed uint64
	// SPSource is the Bellman–Ford source vertex; a negative value
	// selects the vertex with the largest out-degree (lowest ID on
	// ties), which is order-invariant because relabeling preserves
	// degrees — every ordering then runs SP from the same logical hub.
	SPSource int
	// Workers sets the goroutine count of the kernels that consume
	// KOptWorkers and run on internal/exec (<= 1 = one goroutine, the
	// serial case). Scheduling only — results are parity-pinned to the
	// serial oracles at any worker count, so Workers never enters
	// kernel keys (mirroring the ordering Workers option).
	Workers int
}

// DefaultKernelParams are the paper's kernel parameters with the
// laptop-scale diameter sample count and the hub SP source.
func DefaultKernelParams() KernelParams {
	return KernelParams{
		PageRankIters:   algos.DefaultPageRankIters,
		DiameterSamples: algos.DefaultDiameterSamples,
		Seed:            1,
		SPSource:        -1,
	}
}

// Kernel describes one benchmark algorithm: a native entry point for
// wall-clock timing and a traced entry point for the cache-statistics
// experiments.
type Kernel struct {
	// Name is the canonical kernel name ("PR", "BFS", ...).
	Name string
	// Paper marks the nine kernels of the paper's evaluation; the rest
	// are this reproduction's extra workloads.
	Paper bool
	// Run executes the kernel natively.
	Run func(g *graph.Graph, p KernelParams)
	// RunTraced executes the traced variant. It receives both the
	// traced view and the source graph (for order-invariant setup such
	// as picking the SP source or building Kcore's undirected view).
	RunTraced func(g *graph.Graph, t *algos.TracedGraph, s *mem.Space, p KernelParams)
	// Query, when non-nil, makes the kernel servable by the query
	// tier: it produces a KernelResult whose summary and vector are
	// invariant under relabeling (so results computed on any ordering
	// map back to the caller's ID space exactly). Kernels whose
	// natural output is order-dependent (visit sequences, component
	// labels) leave it nil. ctx bounds the execution: the exec-backed
	// kernels poll it between chunks and return its error mid-run.
	Query func(ctx context.Context, g *graph.Graph, p KernelParams, s *QueryScratch) (KernelResult, error)
	// WholeGraph marks source-independent queryable kernels whose
	// full result the query tier may materialize as a store artifact.
	WholeGraph bool
	// QueryConsumes lists the KernelParams fields Query reads;
	// CanonicalKernelParams zeroes everything else so result caches
	// do not split on parameters the kernel ignores.
	QueryConsumes []KernelOptionField
}

// spSource resolves the Bellman–Ford source for p on g.
func spSource(g *graph.Graph, p KernelParams) graph.NodeID {
	if p.SPSource >= 0 {
		return graph.NodeID(p.SPSource)
	}
	best := graph.NodeID(0)
	for v := 1; v < g.NumNodes(); v++ {
		if g.OutDegree(graph.NodeID(v)) > g.OutDegree(best) {
			best = graph.NodeID(v)
		}
	}
	return best
}

// kernels is the catalog, alphabetised by case-insensitive name.
// THIS IS THE ONLY KERNEL-DISPATCH SITE IN THE REPOSITORY.
var kernels = []Kernel{
	{
		Name: "BFS", Paper: true,
		Query: queryBFS, QueryConsumes: []KernelOptionField{KOptSource, KOptWorkers},
		Run: func(g *graph.Graph, _ KernelParams) { algos.BFSAll(g) },
		RunTraced: func(_ *graph.Graph, t *algos.TracedGraph, s *mem.Space, _ KernelParams) {
			algos.TracedBFSAll(t, s)
		},
	},
	{
		Name: "DFS", Paper: true,
		Run: func(g *graph.Graph, _ KernelParams) { algos.DFSAll(g) },
		RunTraced: func(_ *graph.Graph, t *algos.TracedGraph, s *mem.Space, _ KernelParams) {
			algos.TracedDFSAll(t, s)
		},
	},
	{
		Name: "Diam", Paper: true,
		Run: func(g *graph.Graph, p KernelParams) {
			algos.Diameter(g, p.DiameterSamples, p.Seed)
		},
		RunTraced: func(_ *graph.Graph, t *algos.TracedGraph, s *mem.Space, p KernelParams) {
			algos.TracedDiameter(t, s, p.DiameterSamples, p.Seed)
		},
	},
	{
		Name: "DS", Paper: true,
		Run: func(g *graph.Graph, _ KernelParams) { algos.DominatingSet(g) },
		RunTraced: func(_ *graph.Graph, t *algos.TracedGraph, s *mem.Space, _ KernelParams) {
			algos.TracedDominatingSet(t, s)
		},
	},
	{
		Name: "Kcore", Paper: true,
		Query: queryKcore, WholeGraph: true,
		Run: func(g *graph.Graph, _ KernelParams) { algos.CoreNumbers(g) },
		RunTraced: func(g *graph.Graph, _ *algos.TracedGraph, s *mem.Space, _ KernelParams) {
			algos.TracedCoreNumbers(g, s)
		},
	},
	{
		Name: "LP",
		Run: func(g *graph.Graph, _ KernelParams) {
			algos.LabelPropagation(g, algos.DefaultLabelPropIters)
		},
		RunTraced: func(g *graph.Graph, _ *algos.TracedGraph, s *mem.Space, _ KernelParams) {
			algos.TracedLabelPropagation(g, s, algos.DefaultLabelPropIters)
		},
	},
	{
		Name: "NQ", Paper: true,
		Query: queryNQ, WholeGraph: true,
		Run: func(g *graph.Graph, _ KernelParams) { algos.NeighbourQuery(g) },
		RunTraced: func(_ *graph.Graph, t *algos.TracedGraph, s *mem.Space, _ KernelParams) {
			algos.TracedNeighbourQuery(t, s)
		},
	},
	{
		Name: "PR", Paper: true,
		Query: queryPR, WholeGraph: true, QueryConsumes: []KernelOptionField{KOptIters, KOptWorkers},
		Run: func(g *graph.Graph, p KernelParams) {
			algos.PageRank(g, p.PageRankIters, algos.DefaultDamping)
		},
		RunTraced: func(_ *graph.Graph, t *algos.TracedGraph, s *mem.Space, p KernelParams) {
			algos.TracedPageRank(t, s, p.PageRankIters, algos.DefaultDamping)
		},
	},
	{
		Name: "SCC", Paper: true,
		Run: func(g *graph.Graph, _ KernelParams) { algos.SCC(g) },
		RunTraced: func(_ *graph.Graph, t *algos.TracedGraph, s *mem.Space, _ KernelParams) {
			algos.TracedSCC(t, s)
		},
	},
	{
		Name: "SP", Paper: true,
		Query: querySP, QueryConsumes: []KernelOptionField{KOptSource, KOptWorkers},
		Run: func(g *graph.Graph, p KernelParams) {
			algos.BellmanFord(g, spSource(g, p))
		},
		RunTraced: func(g *graph.Graph, t *algos.TracedGraph, s *mem.Space, p KernelParams) {
			algos.TracedBellmanFord(t, s, spSource(g, p))
		},
	},
	{
		Name:  "Tri",
		Query: queryTri, WholeGraph: true, QueryConsumes: []KernelOptionField{KOptWorkers},
		Run: func(g *graph.Graph, _ KernelParams) { algos.TriangleCount(g) },
		RunTraced: func(g *graph.Graph, _ *algos.TracedGraph, s *mem.Space, _ KernelParams) {
			algos.TracedTriangleCount(g, s)
		},
	},
	{
		Name: "WCC",
		Run:  func(g *graph.Graph, _ KernelParams) { algos.WCC(g) },
		RunTraced: func(g *graph.Graph, t *algos.TracedGraph, s *mem.Space, _ KernelParams) {
			algos.TracedWCC(g, t, s)
		},
	},
}

// paperKernelNames lists the paper's nine kernels in the presentation
// order of its figures and tables.
var paperKernelNames = []string{
	"NQ", "BFS", "DFS", "SCC", "SP", "PR", "DS", "Kcore", "Diam",
}

// kernelByName resolves lowercase kernel names to catalog indices.
var kernelByName = func() map[string]int {
	m := make(map[string]int, len(kernels))
	for i, k := range kernels {
		key := strings.ToLower(k.Name)
		if _, dup := m[key]; dup {
			panic("registry: duplicate kernel name " + key)
		}
		m[key] = i
	}
	return m
}()

// Kernels returns the full kernel catalog, alphabetised by name.
func Kernels() []Kernel {
	return append([]Kernel(nil), kernels...)
}

// KernelNames returns the canonical kernel names, sorted.
func KernelNames() []string {
	out := make([]string, len(kernels))
	for i, k := range kernels {
		out[i] = k.Name
	}
	sort.Strings(out)
	return out
}

// LookupKernel resolves a kernel by name, case-insensitively.
func LookupKernel(name string) (Kernel, bool) {
	i, ok := kernelByName[strings.ToLower(name)]
	if !ok {
		return Kernel{}, false
	}
	return kernels[i], true
}

// PaperKernels returns the paper's nine kernels in presentation order.
func PaperKernels() []Kernel {
	out := make([]Kernel, len(paperKernelNames))
	for i, name := range paperKernelNames {
		k, ok := LookupKernel(name)
		if !ok {
			panic("registry: paper kernel " + name + " not in catalog")
		}
		out[i] = k
	}
	return out
}
