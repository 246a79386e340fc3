package query

import (
	"math/rand"
	"testing"

	"gorder/internal/registry"
)

// benchValues keeps the benchmark's result live.
var benchValues []Value

// BenchmarkShapeValues times response shaping on a cached result:
// 1000 targets, top=10 and top=1000 over a 100k-vertex hop-distance
// vector in the cache's packed form, a 1M-entry ascending int32 vector
// (what a BFS from one end of a path returns; too wide to pack) and a
// 1M-entry random float vector (PageRank-like).
func BenchmarkShapeValues(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hops := make([]int32, 100_000)
	for v := range hops {
		hops[v] = int32(rng.Intn(10)) - 1 // [-1, 8]: unreached and ties
	}
	asc := make([]int32, 1_000_000)
	for v := range asc {
		asc[v] = int32(v)
	}
	floats := make([]float64, 1_000_000)
	for v := range floats {
		floats[v] = rng.Float64()
	}
	vectors := []struct {
		name string
		res  registry.KernelResult
	}{
		{"packed100k", registry.KernelResult{Kernel: "BFS", Int32s: hops}},
		{"int32asc1M", registry.KernelResult{Kernel: "BFS", Int32s: asc}},
		{"float1M", registry.KernelResult{Kernel: "PR", Floats: floats}},
	}
	for _, vec := range vectors {
		res := vec.res
		mapResultBack(&res, nil) // as the result cache holds it
		n := res.VectorLen()
		targets := make([]int, 1000)
		for i := range targets {
			targets[i] = rng.Intn(n)
		}
		for _, shape := range []struct {
			name    string
			targets []int
			top     int
		}{{"targets", targets, 0}, {"top10", nil, 10}, {"top1000", nil, 1000}} {
			b.Run(vec.name+"/"+shape.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					vals, qerr := shapeValues(resultView{res: &res}, shape.targets, shape.top)
					if qerr != nil {
						b.Fatal(qerr)
					}
					benchValues = vals
				}
			})
		}
	}
}
