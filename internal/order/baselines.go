package order

import (
	"sort"

	"gorder/internal/gen"
	"gorder/internal/graph"
)

// Random returns a uniformly random permutation — the replication's
// added worst-case benchmark.
func Random(n int, seed uint64) Permutation {
	return Permutation(gen.NewRNG(seed).Perm(n))
}

// InDegSort orders vertices by descending in-degree, ties broken by
// original ID ("DegSort" in the papers). Vertices of similar degree
// end up on the same cache line.
func InDegSort(g *graph.Graph) Permutation {
	n := g.NumNodes()
	seq := make([]graph.NodeID, n)
	for i := range seq {
		seq[i] = graph.NodeID(i)
	}
	sort.SliceStable(seq, func(a, b int) bool {
		return g.InDegree(seq[a]) > g.InDegree(seq[b])
	})
	return FromSequence(seq)
}

// ChDFS orders vertices by depth-first discovery time ("children
// depth-first search"). Traversal starts at vertex 0, explores
// out-neighbours in ascending original-ID order, and restarts at the
// lowest-numbered unvisited vertex until all vertices are placed —
// exactly how the DFS kernel itself walks the graph, which is why this
// ordering serves DFS so well in the replication.
func ChDFS(g *graph.Graph) Permutation {
	n := g.NumNodes()
	seq := make([]graph.NodeID, 0, n)
	visited := make([]bool, n)
	stack := make([]graph.NodeID, 0, n)
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		stack = append(stack[:0], graph.NodeID(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[u] {
				continue
			}
			visited[u] = true
			seq = append(seq, u)
			adj := g.OutNeighbors(u)
			// Push in reverse so the smallest neighbour is visited first.
			for i := len(adj) - 1; i >= 0; i-- {
				if !visited[adj[i]] {
					stack = append(stack, adj[i])
				}
			}
		}
	}
	return FromSequence(seq)
}

// RCM computes the Reverse Cuthill–McKee ordering over the undirected
// view of g: a BFS that starts from a minimum-degree vertex of each
// component, enqueues neighbours in ascending degree order, and
// reverses the final visit sequence. It minimises bandwidth on
// mesh-like graphs and, per the papers, is the strongest simple
// challenger to Gorder for BFS-shaped kernels.
func RCM(g *graph.Graph) Permutation {
	u := g.Undirected()
	n := u.NumNodes()
	// Vertices sorted by degree once; used to pick component starts.
	byDegree := make([]graph.NodeID, n)
	for i := range byDegree {
		byDegree[i] = graph.NodeID(i)
	}
	sort.SliceStable(byDegree, func(a, b int) bool {
		return u.OutDegree(byDegree[a]) < u.OutDegree(byDegree[b])
	})
	seq := make([]graph.NodeID, 0, n)
	visited := make([]bool, n)
	queue := make([]graph.NodeID, 0, n)
	var nbuf []graph.NodeID
	for _, s := range byDegree {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			seq = append(seq, v)
			nbuf = append(nbuf[:0], u.OutNeighbors(v)...)
			sort.SliceStable(nbuf, func(a, b int) bool {
				return u.OutDegree(nbuf[a]) < u.OutDegree(nbuf[b])
			})
			for _, w := range nbuf {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	// Reverse the Cuthill–McKee sequence.
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	return FromSequence(seq)
}

// SlashBurn computes the simplified SlashBurn ordering the replication
// describes: repeatedly move one highest-degree hub to the front of
// the order, remove it, and move vertices that thereby become isolated
// to the back; iterate until no vertex remains. Degrees are over the
// undirected view. Among equal-degree hubs the lowest ID is taken, so
// the ordering is deterministic.
func SlashBurn(g *graph.Graph) Permutation {
	u := g.Undirected()
	n := u.NumNodes()
	deg := make([]int32, n)
	// buckets[d] holds vertices of current degree d; lazy entries are
	// filtered on pop (classic lazy bucket queue).
	maxDeg := 0
	for i := 0; i < n; i++ {
		deg[i] = int32(u.OutDegree(graph.NodeID(i)))
		if int(deg[i]) > maxDeg {
			maxDeg = int(deg[i])
		}
	}
	buckets := make([][]graph.NodeID, maxDeg+1)
	for i := n - 1; i >= 0; i-- { // reverse so lowest IDs pop first
		buckets[deg[i]] = append(buckets[deg[i]], graph.NodeID(i))
	}
	removed := make([]bool, n)
	front := make([]graph.NodeID, 0, n)
	back := make([]graph.NodeID, 0, n)
	remaining := n

	// Move all initially isolated vertices straight to the back.
	for _, v := range buckets[0] {
		removed[v] = true
		back = append(back, v)
		remaining--
	}
	buckets[0] = buckets[0][:0]

	// The maximum live degree never increases (removals only decrement
	// degrees), so the bucket scan proceeds monotonically downward.
	cur := maxDeg
	for remaining > 0 {
		// Find the highest-degree live vertex.
		var hub graph.NodeID
		found := false
		for cur > 0 && !found {
			b := buckets[cur]
			for len(b) > 0 {
				v := b[len(b)-1]
				b = b[:len(b)-1]
				if !removed[v] && deg[v] == int32(cur) {
					hub, found = v, true
					break
				}
			}
			buckets[cur] = b
			if !found {
				cur--
			}
		}
		if !found {
			break // only isolated vertices left; handled below
		}
		removed[hub] = true
		front = append(front, hub)
		remaining--
		for _, w := range u.OutNeighbors(hub) {
			if removed[w] {
				continue
			}
			deg[w]--
			if deg[w] == 0 {
				removed[w] = true
				back = append(back, w)
				remaining--
			} else {
				buckets[deg[w]] = append(buckets[deg[w]], w)
			}
		}
	}
	// Anything left (shouldn't happen) goes to the back in ID order.
	for v := 0; v < n; v++ {
		if !removed[v] {
			back = append(back, graph.NodeID(v))
		}
	}
	// Final order: hubs in removal order, then isolated-at-removal
	// vertices in reverse removal order (later burns sit closer to the
	// hubs that caused them).
	seq := front
	for i := len(back) - 1; i >= 0; i-- {
		seq = append(seq, back[i])
	}
	return FromSequence(seq)
}

// LDG computes the Linear Deterministic Greedy bin ordering: stream
// vertices in original order into bins of capacity binSize (the papers
// use 64 so a bin matches a cache line of 4-byte entries), placing
// each vertex in the bin maximising (1+|N(u) ∩ B|)·(1-|B|/binSize).
// The final order concatenates the bins. Neighbourhoods are over the
// undirected view.
func LDG(g *graph.Graph, binSize int) Permutation {
	if binSize < 1 {
		binSize = 64
	}
	u := g.Undirected()
	n := u.NumNodes()
	numBins := (n + binSize - 1) / binSize
	binOf := make([]int32, n)
	for i := range binOf {
		binOf[i] = -1
	}
	binSizeCount := make([]int, numBins)
	bins := make([][]graph.NodeID, numBins)
	nbrCount := make(map[int32]int, 16)
	for v := 0; v < n; v++ {
		for k := range nbrCount {
			delete(nbrCount, k)
		}
		for _, w := range u.OutNeighbors(graph.NodeID(v)) {
			if b := binOf[w]; b >= 0 {
				nbrCount[b]++
			}
		}
		best, bestScore := -1, -1.0
		consider := func(b int, cnt int) {
			if binSizeCount[b] >= binSize {
				return
			}
			score := (1 + float64(cnt)) * (1 - float64(binSizeCount[b])/float64(binSize))
			if score > bestScore || (score == bestScore && b < best) {
				best, bestScore = b, score
			}
		}
		for b, cnt := range nbrCount {
			consider(int(b), cnt)
		}
		// Also consider the emptiest bin as the cnt=0 fallback.
		minB := -1
		for b := 0; b < numBins; b++ {
			if binSizeCount[b] < binSize && (minB < 0 || binSizeCount[b] < binSizeCount[minB]) {
				minB = b
				if binSizeCount[b] == 0 {
					break // cannot beat an empty bin
				}
			}
		}
		if minB >= 0 {
			consider(minB, 0)
		}
		binOf[v] = int32(best)
		binSizeCount[best]++
		bins[best] = append(bins[best], graph.NodeID(v))
	}
	seq := make([]graph.NodeID, 0, n)
	for _, b := range bins {
		seq = append(seq, b...)
	}
	return FromSequence(seq)
}
