package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gorder/internal/graph"
	"gorder/internal/order"
	"gorder/internal/registry"
)

// oracleValues is shapeValues by brute force: targets read one by one,
// else every vertex's value sorted by value descending, vertex ID
// ascending, and the first top kept.
func oracleValues(rv resultView, targets []int, top int) []Value {
	if len(targets) > 0 {
		out := make([]Value, len(targets))
		for i, t := range targets {
			out[i] = Value{Node: t, Value: rv.res.Value(at(rv.perm, t))}
		}
		return out
	}
	all := make([]Value, rv.res.VectorLen())
	for v := range all {
		all[v] = Value{Node: v, Value: rv.res.Value(at(rv.perm, v))}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Value > all[j].Value })
	return all[:min(top, len(all))]
}

// TestTopKMatchesSortOracle: top-K over every vector kind — packed at
// each width, int32 too wide to pack, int64 and float64, all with heavy
// ties — equals sorting the whole vector, on the permuted path (an
// answer read through the ordering) and the natural-order path, for K
// from 1 to past n.
func TestTopKMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 300
	random := make(order.Permutation, n)
	for i, p := range rng.Perm(n) {
		random[i] = graph.NodeID(p)
	}
	type vector struct {
		name string
		res  registry.KernelResult
	}
	var vectors []vector
	for _, bits := range []int{1, 2, 4, 8, 16} {
		top := int32(1)<<bits - 2
		vec := make([]int32, n)
		for v := range vec {
			// Mostly the range's two ends and one middle value: ties.
			vec[v] = [...]int32{-1, top, top / 2, int32(rng.Intn(int(top)+2)) - 1}[rng.Intn(4)]
		}
		res := registry.KernelResult{Kernel: "BFS", Int32s: vec}
		if mapResultBack(&res, nil); res.Packed == nil || res.Packed.Bits != bits {
			t.Fatalf("entries in [-1, %d]: packed %+v, want %d bits", top, res.Packed, bits)
		}
		vectors = append(vectors, vector{fmt.Sprintf("packed%d", bits), res})
	}
	wide := make([]int32, n)
	longs := make([]int64, n)
	floats := make([]float64, n)
	for v := range wide {
		wide[v] = int32(rng.Intn(5))*100_000 - 1
		longs[v] = int64(rng.Intn(4)) << 40
		floats[v] = float64(rng.Intn(6)) / 4
	}
	vectors = append(vectors,
		vector{"int32", registry.KernelResult{Kernel: "BFS", Int32s: wide}},
		vector{"int64", registry.KernelResult{Kernel: "NQ", Int64s: longs}},
		vector{"float64", registry.KernelResult{Kernel: "PR", Floats: floats}})

	for _, vec := range vectors {
		for _, perm := range []order.Permutation{nil, reversePerm(n), random} {
			rv := resultView{res: &vec.res, perm: perm}
			for _, k := range []int{1, 2, 7, 64, n - 1, n, n + 5} {
				got, qerr := shapeValues(rv, nil, k)
				if qerr != nil {
					t.Fatal(qerr)
				}
				if want := oracleValues(rv, nil, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (perm %v) top=%d:\n got %v\nwant %v", vec.name, perm != nil, k, got, want)
				}
			}
		}
	}

	// The documented tie order on the smallest case: top=2 over
	// [1, 1, 2] is vertex 2, then vertex 0 (not 1).
	want := []Value{{Node: 2, Value: 2}, {Node: 0, Value: 1}}
	packed := registry.KernelResult{Int32s: []int32{1, 1, 2}}
	mapResultBack(&packed, nil)
	for _, res := range []registry.KernelResult{
		{Int32s: []int32{1, 1, 2}}, {Floats: []float64{1, 1, 2}}, packed,
	} {
		if got, _ := shapeValues(resultView{res: &res}, nil, 2); !reflect.DeepEqual(got, want) {
			t.Errorf("top=2 over [1, 1, 2] (packed %v): %v, want %v", res.Packed != nil, got, want)
		}
	}
}
