package graph

import (
	"fmt"
	"slices"
)

// EditStats summarises what an ApplyEdits call actually changed.
// Requested edits that were already satisfied (adding an edge that
// exists, deleting one that does not) are reported rather than failed,
// so clients can replay batches idempotently.
type EditStats struct {
	Added       int // edges newly present
	Deleted     int // edges removed
	SkippedAdds int // add requests for edges already present
	MissedDels  int // delete requests for edges not present
}

// ApplyEdits derives a new graph from g by appending addNodes fresh
// vertices (IDs g.NumNodes()..g.NumNodes()+addNodes-1) and applying a
// batch of edge deletions followed by insertions. g is not modified —
// versioned stores keep both.
//
// Deletes run before adds, so a batch that removes and re-adds the
// same edge leaves it present. Duplicate requests within a batch
// collapse. Self-loops are allowed, matching FromEdgesDedup. An
// endpoint outside the grown vertex range, a negative addNodes, or a
// grown vertex count past 1<<32 is an error (never a panic): mutation
// batches arrive from network clients.
//
// The new out-CSR is produced by per-vertex sorted merges of the old
// adjacency with the edit lists — no O(m) edge-list materialisation —
// and the in-CSR is derived by a counting pass, like ReadBinary.
func ApplyEdits(g *Graph, addNodes int, add, del []Edge) (*Graph, EditStats, error) {
	var st EditStats
	if addNodes < 0 {
		return nil, st, fmt.Errorf("graph: negative addNodes %d", addNodes)
	}
	// Vertex IDs are uint32, so a graph holds at most 1<<32 vertices
	// (ReadBinary's bound); refuse before allocating the offsets.
	if int64(addNodes) > 1<<32-int64(g.NumNodes()) {
		return nil, st, fmt.Errorf("graph: %d vertices plus addNodes %d exceed the 32-bit NodeID range", g.NumNodes(), addNodes)
	}
	n, n2 := g.NumNodes(), g.NumNodes()+addNodes
	for _, e := range del {
		if int(e.From) >= n2 || int(e.To) >= n2 {
			return nil, st, fmt.Errorf("graph: delete edge (%d,%d) out of range for n=%d", e.From, e.To, n2)
		}
	}
	for _, e := range add {
		if int(e.From) >= n2 || int(e.To) >= n2 {
			return nil, st, fmt.Errorf("graph: add edge (%d,%d) out of range for n=%d", e.From, e.To, n2)
		}
	}
	byEdge := func(a, b Edge) int {
		if a.From != b.From {
			if a.From < b.From {
				return -1
			}
			return 1
		}
		if a.To != b.To {
			if a.To < b.To {
				return -1
			}
			return 1
		}
		return 0
	}
	del = slices.Clone(del)
	slices.SortFunc(del, byEdge)
	del = slices.CompactFunc(del, func(a, b Edge) bool { return a == b })
	add = slices.Clone(add)
	slices.SortFunc(add, byEdge)
	add = slices.CompactFunc(add, func(a, b Edge) bool { return a == b })

	// Size pass: count each vertex's post-edit out-degree and classify
	// the requests. The edit lists are sorted by (From, To) and each
	// vertex's old adjacency is sorted by To, so a three-way merge per
	// vertex does both at once.
	idx := make([]int64, n2+1)
	di, ai := 0, 0
	for u := 0; u < n2; u++ {
		var old []NodeID
		if u < n {
			old = g.OutNeighbors(NodeID(u))
		}
		dlo := di
		for di < len(del) && int(del[di].From) == u {
			di++
		}
		alo := ai
		for ai < len(add) && int(add[ai].From) == u {
			ai++
		}
		deg := len(old)
		for _, e := range del[dlo:di] {
			if _, found := slices.BinarySearch(old, e.To); found {
				st.Deleted++
				deg--
			} else {
				st.MissedDels++
			}
		}
		for _, e := range add[alo:ai] {
			present := false
			if _, found := slices.BinarySearch(old, e.To); found {
				// Still present only if this batch did not delete it.
				if _, gone := slices.BinarySearchFunc(del[dlo:di], e, byEdge); !gone {
					present = true
				}
			}
			if present {
				st.SkippedAdds++
			} else {
				st.Added++
				deg++
			}
		}
		idx[u+1] = idx[u] + int64(deg)
	}

	adj := make([]NodeID, idx[n2])
	di, ai = 0, 0
	for u := 0; u < n2; u++ {
		var old []NodeID
		if u < n {
			old = g.OutNeighbors(NodeID(u))
		}
		dlo := di
		for di < len(del) && int(del[di].From) == u {
			di++
		}
		alo := ai
		for ai < len(add) && int(add[ai].From) == u {
			ai++
		}
		dels, adds := del[dlo:di], add[alo:ai]
		w := idx[u]
		oi := 0
		emit := func(v NodeID) {
			adj[w] = v
			w++
		}
		for _, e := range adds {
			// Old survivors below the inserted neighbour first.
			for oi < len(old) && old[oi] < e.To {
				if _, gone := slices.BinarySearchFunc(dels, Edge{NodeID(u), old[oi]}, byEdge); !gone {
					emit(old[oi])
				}
				oi++
			}
			if oi < len(old) && old[oi] == e.To {
				if _, gone := slices.BinarySearchFunc(dels, e, byEdge); gone {
					emit(e.To) // deleted then re-added
				} else {
					emit(old[oi]) // already present, add skipped
				}
				oi++
				continue
			}
			emit(e.To)
		}
		for ; oi < len(old); oi++ {
			if _, gone := slices.BinarySearchFunc(dels, Edge{NodeID(u), old[oi]}, byEdge); !gone {
				emit(old[oi])
			}
		}
		if w != idx[u+1] {
			panic("graph: ApplyEdits degree mismatch")
		}
	}
	return fromCSR(n2, idx, adj), st, nil
}
