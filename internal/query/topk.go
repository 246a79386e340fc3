package query

import (
	"cmp"
	"slices"

	"gorder/internal/graph"
	"gorder/internal/order"
	"gorder/internal/registry"
)

// Reading a result vector in natural vertex IDs, through perm when it
// is non-nil (vertex v's entry is vec[perm[v]]), with one loop per
// vector kind: the targets a response names, or its top-K — the K
// largest values, ties broken by vertex ID ascending, returned in that
// order. Top-K runs in one O(n) pass plus O(K log K) to sort the picks;
// the heap adds O(log K) per displacement.

// at returns the index of natural vertex v in a vector read through
// perm.
func at(perm order.Permutation, v int) int {
	if perm != nil {
		return int(perm[v])
	}
	return v
}

// readTargets returns the values of the targets' vertices, in order,
// or nil and the first target past the vector's end.
func readTargets(rv resultView, targets []int) ([]Value, int) {
	out := make([]Value, len(targets))
	n := rv.res.VectorLen()
	switch r := rv.res; {
	case r.Packed != nil:
		for i, t := range targets {
			if t >= n {
				return nil, t
			}
			out[i] = Value{Node: t, Value: float64(r.Packed.At(at(rv.perm, t)))}
		}
	case r.Int32s != nil:
		return readEach(r.Int32s, rv.perm, targets, out)
	case r.Int64s != nil:
		return readEach(r.Int64s, rv.perm, targets, out)
	default:
		return readEach(r.Floats, rv.perm, targets, out)
	}
	return out, 0
}

// readEach is readTargets for an unpacked vector.
func readEach[T int32 | int64 | float64](vec []T, perm order.Permutation, targets []int, out []Value) ([]Value, int) {
	for i, t := range targets {
		if t >= len(vec) {
			return nil, t
		}
		out[i] = Value{Node: t, Value: float64(vec[at(perm, t)])}
	}
	return out, 0
}

// topPacked selects from a packed vector: a count per code finds the
// K-th largest value t, then a scan in vertex order takes every entry
// above t and the lowest-ID entries equal to t until K are picked.
func topPacked(p *registry.PackedVector, perm order.Permutation, k int) []Value {
	counts := p.Histogram()
	t, above := len(counts)-1, 0
	for above+counts[t] < k {
		above += counts[t]
		t--
	}
	ties := k - above
	out := make([]Value, 0, k)
	for v := 0; len(out) < k; v++ {
		d := p.At(at(perm, v))
		switch code := int(d) + 1; {
		case code == t && ties > 0:
			ties--
		case code <= t:
			continue
		}
		out = append(out, Value{Node: v, Value: float64(d)})
	}
	slices.SortFunc(out, func(a, b Value) int {
		if c := cmp.Compare(b.Value, a.Value); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
	return out
}

// pick is one top-K candidate: a vector entry and its natural vertex.
type pick[T int32 | int64 | float64] struct {
	val  T
	node graph.NodeID
}

// worse orders picks by the answer's rank: a lower value, or an equal
// value at a higher vertex ID, ranks below.
func worse[T int32 | int64 | float64](a, b pick[T]) bool {
	return a.val < b.val || a.val == b.val && a.node > b.node
}

// topHeap selects with a K-entry min-heap whose root is the worst pick.
// Scanning in vertex order, an entry displaces the root only when its
// value is greater: an equal value arrives with a higher ID than every
// pick, so it ranks below them all.
func topHeap[T int32 | int64 | float64](vec []T, perm order.Permutation, k int) []Value {
	h := make([]pick[T], 0, k)
	for v := range vec {
		x := vec[at(perm, v)]
		if len(h) < k {
			h = append(h, pick[T]{x, graph.NodeID(v)})
			for c := len(h) - 1; c > 0; {
				parent := (c - 1) / 2
				if !worse(h[c], h[parent]) {
					break
				}
				h[c], h[parent] = h[parent], h[c]
				c = parent
			}
			continue
		}
		if x <= h[0].val {
			continue
		}
		// Replace the root bottom-up (Floyd): move the worse child up
		// into the hole down to a leaf, then sift the new pick up from
		// there. Most of a heap's slots lie near its leaves, so the
		// pick seldom climbs far, and the way down costs one
		// branch-free comparison per level.
		c := 0
		for {
			low := 2*c + 1
			if low >= k {
				break
			}
			if r := low + 1; r < k {
				// Which child is worse follows no pattern a branch
				// predictor could learn.
				a, b := h[r], h[low]
				low += b2i(a.val < b.val) | b2i(a.val == b.val)&b2i(a.node > b.node)
			}
			h[c] = h[low]
			c = low
		}
		in := pick[T]{x, graph.NodeID(v)}
		for c > 0 {
			parent := (c - 1) / 2
			if !worse(in, h[parent]) {
				break
			}
			h[c] = h[parent]
			c = parent
		}
		h[c] = in
	}
	slices.SortFunc(h, func(a, b pick[T]) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		}
		return 0
	})
	out := make([]Value, len(h))
	for i, p := range h {
		out[i] = Value{Node: int(p.node), Value: float64(p.val)}
	}
	return out
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
