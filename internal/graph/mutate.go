package graph

import (
	"cmp"
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

// CheckEdits reports why an edit batch cannot apply to a graph of n
// vertices: a negative addNodes, a grown vertex count past the 32-bit
// NodeID range, or an endpoint outside the grown range. It is the
// validation ApplyEdits and PatchBinary run first, for callers that
// hold only a vertex count.
func CheckEdits(n, addNodes int, add, del []Edge) error {
	if addNodes < 0 {
		return fmt.Errorf("graph: negative addNodes %d", addNodes)
	}
	// Vertex IDs are uint32, so a graph holds at most 1<<32 vertices
	// (ReadBinary's bound); refuse before anything is allocated.
	if int64(addNodes) > 1<<32-int64(n) {
		return fmt.Errorf("graph: %d vertices plus addNodes %d exceed the 32-bit NodeID range", n, addNodes)
	}
	n2 := n + addNodes
	for _, e := range del {
		if int(e.From) >= n2 || int(e.To) >= n2 {
			return fmt.Errorf("graph: delete edge (%d,%d) out of range for n=%d", e.From, e.To, n2)
		}
	}
	for _, e := range add {
		if int(e.From) >= n2 || int(e.To) >= n2 {
			return fmt.Errorf("graph: add edge (%d,%d) out of range for n=%d", e.From, e.To, n2)
		}
	}
	return nil
}

// ApplyEdits derives a new graph from g by appending addNodes fresh
// vertices (IDs g.NumNodes()..g.NumNodes()+addNodes-1) and applying a
// batch of edge deletions followed by insertions. g is not modified —
// versioned stores keep both.
//
// Deletes run before adds, so a batch that removes and re-adds the
// same edge leaves it present. Duplicate requests within a batch
// collapse. A delete removes every parallel copy of its edge; an add
// of an edge already present keeps the copies it has. Self-loops are
// allowed, matching FromEdgesDedup. A batch CheckEdits rejects is an
// error (never a panic): mutation batches arrive from network clients.
//
// The new out-CSR is produced by per-vertex sorted merges of the old
// adjacency with the edit lists (editRow, which PatchBinary shares) —
// no O(m) edge-list materialisation — and the in-CSR is derived by a
// counting pass, like ReadBinary.
func ApplyEdits(g *Graph, addNodes int, add, del []Edge) (*Graph, EditStats, error) {
	var st EditStats
	if err := CheckEdits(g.NumNodes(), addNodes, add, del); err != nil {
		return nil, st, err
	}
	n, n2 := g.NumNodes(), g.NumNodes()+addNodes
	b := newEditBatch(add, del)
	idx := make([]int64, n2+1)
	// Every row only loses entries or gains adds, so the old edge count
	// plus the distinct adds bounds the result: one allocation, no
	// sizing pass.
	adj := make([]NodeID, 0, len(g.outAdj)+len(b.add))
	for u := 0; u < n2; u++ {
		var old []NodeID
		if u < n {
			old = g.OutNeighbors(NodeID(u))
		}
		dels, adds := b.row(NodeID(u))
		adj = editRow(adj, old, dels, adds, &st)
		idx[u+1] = int64(len(adj))
	}
	return fromCSR(n2, idx, adj), st, nil
}

// editBatch is an edit batch sorted by (From, To) with duplicate
// requests collapsed, walked row by row in ascending From.
type editBatch struct {
	add, del []Edge
	ai, di   int // first unconsumed entry of each list
}

func newEditBatch(add, del []Edge) *editBatch {
	sorted := func(es []Edge) []Edge {
		es = slices.Clone(es)
		slices.SortFunc(es, func(a, b Edge) int {
			if c := cmp.Compare(a.From, b.From); c != 0 {
				return c
			}
			return cmp.Compare(a.To, b.To)
		})
		return slices.Compact(es)
	}
	return &editBatch{add: sorted(add), del: sorted(del)}
}

// row returns row u's deletes and adds, each sorted by To. Rows must be
// asked for in ascending order; rows skipped over are consumed.
func (b *editBatch) row(u NodeID) (dels, adds []Edge) {
	take := func(es []Edge, i *int) []Edge {
		for *i < len(es) && es[*i].From < u {
			*i++
		}
		lo := *i
		for *i < len(es) && es[*i].From == u {
			*i++
		}
		return es[lo:*i]
	}
	return take(b.del, &b.di), take(b.add, &b.ai)
}

// rows lists the rows the batch touches, ascending.
func (b *editBatch) rows() []NodeID {
	out := make([]NodeID, 0, len(b.add)+len(b.del))
	for _, es := range [][]Edge{b.add, b.del} {
		for _, e := range es {
			out = append(out, e.From)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// editRow appends to dst one row's adjacency after its edits: old is
// the row before, sorted, and dels and adds the row's requests, sorted
// by To and free of duplicates. Deletes apply first, so a deleted and
// re-added neighbour stays, once. It is the one place requests are
// classified, so st counts the same way for every caller.
func editRow(dst, old []NodeID, dels, adds []Edge, st *EditStats) []NodeID {
	if len(dels) == 0 && len(adds) == 0 {
		return append(dst, old...) // most rows of a small batch
	}
	di, ai := 0, 0
	for i := 0; i < len(old); {
		v := old[i]
		j := i + 1
		for j < len(old) && old[j] == v {
			j++ // parallel copies of (u, v)
		}
		for ; ai < len(adds) && adds[ai].To < v; ai++ {
			dst = append(dst, adds[ai].To)
			st.Added++
		}
		for ; di < len(dels) && dels[di].To < v; di++ {
			st.MissedDels++
		}
		gone := di < len(dels) && dels[di].To == v
		if gone {
			di++
			st.Deleted += j - i
		}
		readd := ai < len(adds) && adds[ai].To == v
		if readd {
			ai++
		}
		switch {
		case !gone:
			dst = append(dst, old[i:j]...)
			if readd {
				st.SkippedAdds++
			}
		case readd:
			dst = append(dst, v) // deleted, then added back
			st.Added++
		}
		i = j
	}
	for ; ai < len(adds); ai++ {
		dst = append(dst, adds[ai].To)
		st.Added++
	}
	st.MissedDels += len(dels) - di
	return dst
}
