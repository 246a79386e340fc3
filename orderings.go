package gorder

import (
	"context"

	"gorder/internal/core"
	"gorder/internal/order"
)

// Options configures the Gorder computation; see OrderWithOptions.
type Options = core.Options

// DefaultWindow is the paper's default window size w = 5.
const DefaultWindow = core.DefaultWindow

// AnnealOptions tunes the MinLA / MinLogA simulated annealing.
type AnnealOptions = order.AnnealOptions

// Order computes the Gorder permutation of g with the paper's default
// parameters (window w = 5, exact scores, unit-heap queue). This is
// the package's primary contribution: the greedy ordering that
// maximises the windowed locality score F(pi).
func Order(g *Graph) Permutation { return core.Order(g) }

// OrderWithOptions computes the Gorder permutation with explicit
// options (window size, hub-skip threshold).
func OrderWithOptions(g *Graph, opt Options) Permutation { return core.OrderWith(g, opt) }

// OrderCtx computes the Gorder permutation with cooperative
// cancellation: the greedy loop checks ctx periodically and returns
// ctx.Err() (with a nil permutation) once the context is done. Order
// and OrderWithOptions are thin wrappers over this with
// context.Background(). Long-running services should prefer OrderCtx
// so deadlines and shutdown propagate into the ordering loop.
func OrderCtx(ctx context.Context, g *Graph, opt Options) (Permutation, error) {
	return core.OrderWithCtx(ctx, g, opt)
}

// Original returns the identity permutation — the dataset's native
// order, the baseline the paper calls "Original".
func Original(g *Graph) Permutation { return order.Identity(g.NumNodes()) }

// RandomOrder returns a uniformly random permutation, the
// replication's worst-case benchmark.
func RandomOrder(g *Graph, seed uint64) Permutation { return order.Random(g.NumNodes(), seed) }

// RCM returns the Reverse Cuthill–McKee ordering (bandwidth-reducing
// BFS over the undirected view).
func RCM(g *Graph) Permutation { return order.RCM(g) }

// InDegSort orders vertices by descending in-degree.
func InDegSort(g *Graph) Permutation { return order.InDegSort(g) }

// ChDFS orders vertices by depth-first discovery time.
func ChDFS(g *Graph) Permutation { return order.ChDFS(g) }

// SlashBurn computes the simplified SlashBurn hub/spokes ordering.
func SlashBurn(g *Graph) Permutation { return order.SlashBurn(g) }

// LDG computes the Linear Deterministic Greedy bin ordering with the
// given bin size (the paper uses 64).
func LDG(g *Graph, binSize int) Permutation { return order.LDG(g, binSize) }

// MinLA approximately minimises the linear arrangement energy
// Σ|pi(u)-pi(v)| over edges by simulated annealing.
func MinLA(g *Graph, opt AnnealOptions) Permutation { return order.MinLA(g, opt) }

// MinLogA approximately minimises Σ log|pi(u)-pi(v)| over edges.
func MinLogA(g *Graph, opt AnnealOptions) Permutation { return order.MinLogA(g, opt) }

// Score evaluates the Gorder objective F(pi) for a permutation and
// window: the sum of neighbour- and sibling-relations between vertex
// pairs whose new IDs are within w of each other.
func Score(g *Graph, p Permutation, w int) int64 { return order.Score(g, p, w) }

// LinearCost evaluates the MinLA energy of a permutation.
func LinearCost(g *Graph, p Permutation) float64 { return order.LinearCost(g, p) }

// LogCost evaluates the MinLogA energy of a permutation.
func LogCost(g *Graph, p Permutation) float64 { return order.LogCost(g, p) }

// Bandwidth evaluates max|pi(u)-pi(v)| over edges, RCM's objective.
func Bandwidth(g *Graph, p Permutation) int64 { return order.Bandwidth(g, p) }

// HubSort places above-average in-degree vertices first (sorted by
// degree) and keeps cold vertices in original order — the lightweight
// frequency-based reordering of the follow-up literature (Balaji &
// Lucia, IISWC'18).
func HubSort(g *Graph) Permutation { return order.HubSort(g) }

// HubCluster moves above-average in-degree vertices to the front in
// their original relative order, cold vertices after — HubSort without
// the sort (Faldu et al., arXiv 2001.08448).
func HubCluster(g *Graph) Permutation { return order.HubCluster(g) }

// DBG computes Degree-Based Grouping: coarse degree classes laid out
// hottest-first with original order preserved inside each class.
func DBG(g *Graph) Permutation { return order.DBG(g) }

// BOBA computes the sort-free parallel ordering of arXiv 2306.10410:
// vertices in order of first appearance as a destination in the CSR
// edge stream, zero-in-degree vertices trailing in original order.
// Two O(m) passes; see order.BOBACtx for the cancellable, explicitly
// parallel form.
func BOBA(g *Graph) Permutation { return order.BOBA(g) }

// PackingFactor evaluates the hot-vertex packing metric of Faldu et
// al. (arXiv 2001.08448): average hot vertices per hot-occupied cache
// block, where hot means above-average in-degree and a block holds
// order.CacheBlockEntries consecutive new IDs.
func PackingFactor(g *Graph, p Permutation) float64 { return order.PackingFactor(g, p) }

// OrderIncremental extends an existing Gorder permutation to a grown
// graph: vertices 0..len(base)-1 keep their positions and the new
// vertices are placed greedily after them with the same windowed
// objective. This is the evolving-graph adaptation the paper's
// discussion calls for — it avoids re-running the full ordering on
// every batch of insertions. A base that is not a valid permutation
// of a prefix of g's vertices is an error, never a panic.
func OrderIncremental(g *Graph, base Permutation, opt Options) (Permutation, error) {
	return core.OrderIncremental(g, base, opt)
}

// OrderIncrementalCtx is OrderIncremental with cancellation and a
// dirty set: old vertices whose neighbourhoods changed (endpoints of
// inserted or deleted edges) are pulled out of the base order and
// re-placed greedily together with the new vertices, so the repair
// tolerates deletions, not just appended suffixes. Vertices neither
// new nor dirty keep their relative order. gorderd's quality monitor
// drives this as its decay-repair step.
func OrderIncrementalCtx(ctx context.Context, g *Graph, base Permutation, dirty []NodeID, opt Options) (Permutation, error) {
	return core.OrderIncrementalCtx(ctx, g, base, dirty, opt)
}

// ScoreDelta returns Score(gNew, p, w) - Score(gOld, pOld, w) in time
// proportional to the edit batch rather than the graph, where gNew
// derives from gOld by the given edge edits plus appended vertices and
// p extends pOld = p[:gOld.NumNodes()] without moving old vertices —
// the shape OrderIncrementalCtx produces with a nil dirty set. It is
// how the daemon's quality monitor tracks F(pi) across mutations.
func ScoreDelta(gOld, gNew *Graph, p Permutation, w int, added, removed []Edge) int64 {
	return order.ScoreDelta(gOld, gNew, p, w, added, removed)
}

// PartitionedOptions configures OrderPartitioned: worker bound and
// partition count.
type PartitionedOptions = core.PartitionedOptions

// DefaultPartitions is the default OrderPartitioned partition count.
const DefaultPartitions = core.DefaultPartitions

// OrderPartitioned computes the partition-parallel Gorder: the graph
// is cut into contiguous chunks of the BOBA guide sequence, each
// partition's ghost-extended subgraph is ordered with the exact
// unit-heap greedy concurrently, and the partition orders are stitched
// by inter-partition edge weight. The permutation depends only on
// (g, opt, Partitions) — never on Workers or GOMAXPROCS.
// On a 1M-edge web graph it retains >90% of the exact F(pi) at a
// severalfold speedup; see BenchmarkOrderPartitioned in BENCH_gorder.json.
func OrderPartitioned(g *Graph, opt Options, po PartitionedOptions) Permutation {
	return core.OrderPartitioned(g, opt, po)
}

// OrderPartitionedCtx is OrderPartitioned with cooperative
// cancellation; see OrderCtx.
func OrderPartitionedCtx(ctx context.Context, g *Graph, opt Options, po PartitionedOptions) (Permutation, error) {
	return core.OrderPartitionedCtx(ctx, g, opt, po)
}

// MultilevelOrder runs Gorder on a matching-coarsened graph and
// projects the order back to the full graph — a scalable
// approximation when the exact greedy (Order) is too slow.
// coarsenTo bounds the coarse graph's size (0 selects the default).
func MultilevelOrder(g *Graph, opt Options, coarsenTo int) Permutation {
	return core.MultilevelOrder(g, opt, coarsenTo)
}

// Multilevel computes a multilevel ordering with a caller-chosen
// coarse-level orderer (see order.MultilevelOptions); RCM by default.
func Multilevel(g *Graph, opt MultilevelOptions) Permutation {
	return order.Multilevel(g, opt)
}

// MultilevelOptions configures Multilevel.
type MultilevelOptions = order.MultilevelOptions
