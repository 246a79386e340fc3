package registry

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gorder/internal/graph"
	"gorder/internal/order"
)

// TestPackInt32sWidthEdges: PackInt32s picks the narrowest width whose
// range holds the largest entry, refuses entries outside [-1, 65534],
// and the packed vector reads back (At) and counts (Histogram) the
// permuted entries exactly, at lengths on both sides of a word.
func TestPackInt32sWidthEdges(t *testing.T) {
	for _, tc := range []struct {
		max  int32
		bits int // 0: refused
	}{
		{-1, 1}, {0, 1}, {1, 2}, {2, 2}, {3, 4}, {14, 4}, {15, 8}, {254, 8},
		{255, 16}, {65534, 16}, {65535, 0}, {math.MaxInt32, 0},
	} {
		if p := PackInt32s([]int32{-1, tc.max, 0}, nil); (p == nil) != (tc.bits == 0) || p != nil && p.Bits != tc.bits {
			t.Errorf("max entry %d: packed %+v, want %d bits", tc.max, p, tc.bits)
		}
	}
	for _, d := range []int32{-2, math.MinInt32} {
		if p := PackInt32s([]int32{0, d, 1}, nil); p != nil {
			t.Errorf("entry %d packed at %d bits, want refused", d, p.Bits)
		}
	}

	rng := rand.New(rand.NewSource(5))
	for _, bits := range []int{1, 2, 4, 8, 16} {
		top := int32(1)<<bits - 2
		for _, n := range []int{0, 1, 64/bits - 1, 64 / bits, 64/bits + 1, 1000} {
			vec := make([]int32, n)
			for i := range vec {
				vec[i] = int32(rng.Intn(int(top)+2)) - 1
			}
			if n > 1 {
				vec[0], vec[n-1] = top, -1
			}
			perm := make(order.Permutation, n)
			for i, p := range rng.Perm(n) {
				perm[i] = graph.NodeID(p)
			}
			p := PackInt32s(vec, perm)
			if n > 1 && p.Bits != bits {
				t.Fatalf("entries in [-1, %d]: %d bits, want %d", top, p.Bits, bits)
			}
			if p.Len != n || len(p.Words) != (n*p.Bits+63)/64 {
				t.Fatalf("%d entries at %d bits: Len %d, %d words", n, p.Bits, p.Len, len(p.Words))
			}
			counts := make([]int, 1<<p.Bits)
			for i := range vec {
				want := vec[perm[i]]
				if got := p.At(i); got != want {
					t.Fatalf("%d bits, n %d: At(%d) = %d, want %d", bits, n, i, got, want)
				}
				counts[want+1]++
			}
			if got := p.Histogram(); !reflect.DeepEqual(got, counts) {
				t.Fatalf("%d bits, n %d: Histogram differs from the entries' counts", bits, n)
			}
		}
	}
}
