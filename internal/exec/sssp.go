package exec

import (
	"context"
	"math"
	"sync/atomic"

	"gorder/internal/graph"
	"gorder/internal/par"
)

// Infinity marks unreachable vertices in weighted distance arrays,
// matching algos.WeightedInfinity.
const Infinity = int64(-1)

// relaxReq is one successful relaxation: vertex v now tentatively at
// distance d, to be filed into bucket d/delta.
type relaxReq struct {
	v graph.NodeID
	d int64
}

// relaxList is one chunk's relaxation requests for a round.
type relaxList []relaxReq

// DeltaStepping computes single-source shortest paths over
// non-negative edge weights with parallel delta-stepping and lazy
// buckets (Meyer & Sanders; the ordered-algorithm form GraphIt/
// PriorityGraph optimize, arXiv 1911.07260). weights aligns with g's
// CSR out-adjacency; nil means unit weights. delta <= 0 picks the
// average edge weight (at least 1).
//
// Buckets are lazy twice over: they are allocated only when a distance
// first lands in them, and entries are never deleted on improvement —
// a popped vertex is re-checked against its bucket's range and skipped
// if stale. Each round chunks the current bucket's frontier, relaxes
// out-edges with an atomic compare-and-swap min on the distance array,
// and files improvements into per-chunk request lists that merge
// serially after the round. The final distances are the shortest-path
// fixed point — exact integers, so the result is bit-identical to
// the serial Dijkstra/Bellman–Ford oracles at any worker count.
//
// It returns -1 (Infinity) for unreachable vertices and an error if a
// negative weight is found or ctx is cancelled mid-run.
func DeltaStepping(ctx context.Context, g *graph.Graph, weights []int32, src graph.NodeID, delta int64, workers int, sc *Scratch) ([]int64, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, ctx.Err()
	}
	if sc == nil {
		sc = new(Scratch)
	}
	outIdx, outAdj := g.OutIndex(), g.OutAdjacency()
	if delta <= 0 {
		delta = 1
		if weights != nil && n > 0 {
			var sum int64
			for _, w := range weights {
				sum += int64(w)
			}
			if m := int64(len(weights)); m > 0 && sum/m > 1 {
				delta = sum / m
			}
		}
	}

	const unreached = int64(math.MaxInt64)
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = unreached
	}
	dist[src] = 0

	// buckets[i] holds vertices tentatively in [i*delta, (i+1)*delta);
	// grown on demand, entries validated on pop.
	buckets := [][]graph.NodeID{{src}}
	file := func(v graph.NodeID, d int64) {
		b := int(d / delta)
		for b >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[b] = append(buckets[b], v)
	}

	frontier := sc.frontier[:0]
	defer func() { sc.frontier = frontier }() // keep regrown capacity

	var negErr atomic.Bool
	for i := 0; i < len(buckets); i++ {
		// Inner loop: light-edge relaxations can refile vertices into
		// the current bucket, so drain it until it stays empty.
		for len(buckets[i]) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			lo, hi := int64(i)*delta, int64(i+1)*delta
			frontier = frontier[:0]
			for _, v := range buckets[i] {
				// Lazy deletion: skip entries whose distance moved to
				// another bucket (or was already settled below lo).
				if d := dist[v]; d >= lo && d < hi {
					frontier = append(frontier, v)
				}
			}
			buckets[i] = buckets[i][:0]
			if len(frontier) == 0 {
				break
			}
			chunks := par.Chunks(len(frontier))
			if cap(sc.relax) < chunks {
				sc.relax = make([]relaxList, chunks)
			}
			sc.relax = sc.relax[:chunks]
			for c := range sc.relax {
				sc.relax[c] = sc.relax[c][:0]
			}
			relax := sc.relax
			if err := par.ForChunks(ctx, workers, chunks, func(c, _ int) {
				clo, chi := par.Range(len(frontier), chunks, c)
				buf := relax[c]
				for _, u := range frontier[clo:chi] {
					du := atomic.LoadInt64(&dist[u])
					if du >= hi {
						continue // improved mid-round; it will re-run later
					}
					for p := outIdx[u]; p < outIdx[u+1]; p++ {
						w := int64(1)
						if weights != nil {
							w = int64(weights[p])
							if w < 0 {
								negErr.Store(true)
								return
							}
						}
						v := outAdj[p]
						nd := du + w
						for {
							cur := atomic.LoadInt64(&dist[v])
							if cur <= nd {
								break
							}
							if atomic.CompareAndSwapInt64(&dist[v], cur, nd) {
								buf = append(buf, relaxReq{v, nd})
								break
							}
						}
					}
				}
				relax[c] = buf
			}); err != nil {
				return nil, err
			}
			if negErr.Load() {
				return nil, errNegativeWeight
			}
			// Serial merge in chunk order: duplicates are fine (lazy
			// deletion skips stale entries), and a vertex improved twice
			// files twice — only its final bucket's pass relaxes it.
			for _, buf := range relax {
				for _, r := range buf {
					file(r.v, r.d)
				}
			}
		}
	}

	for i := range dist {
		if dist[i] == unreached {
			dist[i] = Infinity
		}
	}
	return dist, nil
}

// errNegativeWeight mirrors the serial Dijkstra's panic as an error.
var errNegativeWeight = errorString("exec: negative weight in delta-stepping")

type errorString string

func (e errorString) Error() string { return string(e) }

// ShortestPaths is the paper's SP kernel on the engine: unit-weight
// shortest paths from src. With every weight 1 the shortest-path
// distance is the BFS hop count, so it runs DOBFS rather than
// delta-stepping; DeltaStepping stays the weighted kernel. The int32
// distances are bit-identical to algos.BellmanFord at any worker
// count; -1 marks unreachable vertices.
func ShortestPaths(ctx context.Context, g *graph.Graph, src graph.NodeID, workers int, sc *Scratch) ([]int32, error) {
	dist, _, err := DOBFS(ctx, g, src, workers, sc)
	return dist, err
}
