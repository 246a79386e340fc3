package query

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
	"gorder/internal/registry"
)

// TestCompactRangeEdges: an int32 vector enters the cache packed at
// the narrowest width in {1, 2, 4, 8, 16} bits that holds its largest
// entry + 1, and stays int32 when an entry lies outside [-1, 65534];
// the packed form answers targets and top-K (ties included) exactly as
// the int32 form read through the same permutation, on the permuted
// and the natural-order path. Vectors span several words at every
// width, so top-K and targets cross word boundaries and the padding.
func TestCompactRangeEdges(t *testing.T) {
	// A base in [-1, 0] with ties and unreached vertices, so top-K has
	// to break ties by vertex ID and -1 sits among the values.
	const n = 150
	base := make([]int32, n)
	for v := range base {
		base[v] = int32(v*7%3)/2 - 1
	}
	with := func(vals ...int32) []int32 {
		v := append([]int32(nil), base...)
		copy(v[40:], vals)
		return v
	}
	unreached := make([]int32, n)
	for v := range unreached {
		unreached[v] = -1
	}
	for _, tc := range []struct {
		name string
		vec  []int32
		bits int // 0: stays int32
	}{
		{"all unreached", unreached, 1},
		{"-1 and 0", base, 1},
		{"1", with(1, 1), 2},
		{"2", with(2, 1, 2), 2},
		{"3", with(3), 4},
		{"14", with(14, 14, 3), 4},
		{"15", with(15), 8},
		{"254", with(254, 254), 8},
		{"255", with(255), 16},
		{"65534", with(65534, 0, 65534), 16},
		{"65535", with(65535), 0},
		{"-2", with(-2), 0},
		{"min int32", with(math.MinInt32), 0},
		{"max int32", with(math.MaxInt32), 0},
	} {
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		for _, perm := range []order.Permutation{nil, reversePerm(n)} {
			orig := registry.KernelResult{Kernel: "BFS", Int32s: append([]int32(nil), tc.vec...)}
			res := registry.KernelResult{Kernel: "BFS", Int32s: append([]int32(nil), tc.vec...)}
			mapResultBack(&res, perm)
			bits := 0
			if res.Packed != nil {
				bits = res.Packed.Bits
			}
			if bits != tc.bits || (res.Int32s != nil) == (tc.bits != 0) {
				t.Fatalf("%s (perm %v): packed at %d bits, Int32s set %v; want %d bits",
					tc.name, perm != nil, bits, res.Int32s != nil, tc.bits)
			}
			if res.VectorLen() != n {
				t.Fatalf("%s: VectorLen %d, want %d", tc.name, res.VectorLen(), n)
			}
			for _, shape := range []struct {
				targets []int
				top     int
			}{{all, 0}, {nil, 5}, {nil, 70}, {nil, n}} {
				want, qerr := shapeValues(resultView{res: &orig, perm: perm}, shape.targets, shape.top)
				if qerr != nil {
					t.Fatal(qerr)
				}
				got, qerr := shapeValues(resultView{res: &res}, shape.targets, shape.top)
				if qerr != nil {
					t.Fatal(qerr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s (perm %v, targets %d, top %d):\n got %v\nwant %v",
						tc.name, perm != nil, len(shape.targets), shape.top, got, want)
				}
			}
		}
	}
}

// TestResultCodecByteFormMatchesInt32: a result the cache holds packed
// encodes to exactly the blob of its int32 form, so the GQR1 format is
// unchanged, and decodes back to the int32 form.
func TestResultCodecByteFormMatchesInt32(t *testing.T) {
	// Vectors of 60 entries: long enough that the packed form's fixed
	// header is outweighed.
	long := func(vals ...int32) []int32 {
		vec := make([]int32, 60)
		for i := range vec {
			vec[i] = vals[i%len(vals)]
		}
		return vec
	}
	for _, tc := range []struct {
		res  registry.KernelResult
		bits int
	}{
		{registry.KernelResult{Kernel: "BFS", Summary: map[string]float64{"reached": 4, "ecc": 254}, Int32s: long(0, 1, -1, 254, 2)}, 8},
		{registry.KernelResult{Kernel: "BFS", Summary: map[string]float64{"reached": 5, "ecc": 9}, Int32s: long(0, 1, -1, 9, 2, 3)}, 4},
		{registry.KernelResult{Kernel: "Kcore", Summary: map[string]float64{"max_core": 2}, Int32s: long(2, 2, 2, 1, 0, 0)}, 2},
	} {
		res := tc.res
		wide := &cachedResult{res: res, method: "gorder", optKey: "abcd"}
		compact := &cachedResult{res: res, method: "gorder", optKey: "abcd"}
		compact.res.Int32s = append([]int32(nil), res.Int32s...)
		mapResultBack(&compact.res, nil)
		if compact.res.Packed == nil || compact.res.Packed.Bits != tc.bits {
			t.Fatalf("%s: packed %+v, want %d bits", res.Kernel, compact.res.Packed, tc.bits)
		}
		if compact.memBytes() >= wide.memBytes() {
			t.Errorf("%s: packed form accounts %d bytes, int32 form %d", res.Kernel, compact.memBytes(), wide.memBytes())
		}
		enc := encodeResult(compact)
		if !bytes.Equal(enc, encodeResult(wide)) {
			t.Fatalf("%s: packed form encodes differently from the int32 form", res.Kernel)
		}
		got, err := decodeResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wide) {
			t.Errorf("%s: decoded %+v, want the int32 form %+v", res.Kernel, got.res, wide.res)
		}
	}
}

// TestResultCodecIdentityEveryWidth: at every packed width, a vector
// holding both ends of the width's range — -1 and the largest entry the
// width holds — encodes byte for byte as the same int32 vector does.
func TestResultCodecIdentityEveryWidth(t *testing.T) {
	for _, bits := range []int{1, 2, 4, 8, 16} {
		top := int32(1)<<bits - 2
		// 70 entries cross a word boundary at every width.
		vec := make([]int32, 70)
		for v := range vec {
			vec[v] = int32(v)%(top+2) - 1
		}
		vec[0], vec[len(vec)-1] = -1, top
		wide := &cachedResult{res: registry.KernelResult{Kernel: "SP", Summary: map[string]float64{"reached": 1}, Int32s: vec}}
		packed := &cachedResult{res: registry.KernelResult{Kernel: "SP", Summary: map[string]float64{"reached": 1}, Int32s: append([]int32(nil), vec...)}}
		mapResultBack(&packed.res, nil)
		if packed.res.Packed == nil || packed.res.Packed.Bits != bits {
			t.Fatalf("entries in [-1, %d]: packed %+v, want %d bits", top, packed.res.Packed, bits)
		}
		if !bytes.Equal(encodeResult(packed), encodeResult(wide)) {
			t.Errorf("%d-bit packed vector encodes differently from its int32 form", bits)
		}
	}
}

// TestResultCacheWithinBudget floods an executor with distinct BFS
// sources, each asked twice so the doorkeeper admits it. The result
// cache never holds more than its budget plus one entry, its byte count
// is the sum of the held entries' sizes, and a packed entry accounts for
// about its width in bits per vertex, not 32: at most 4 on this small
// graph's hop distances.
func TestResultCacheWithinBudget(t *testing.T) {
	for _, orderReq := range []string{"", "natural"} {
		const budget = 4096
		ex, _, g := newTestExec(t, Config{ResultBudget: budget})
		n := g.NumNodes()
		ctx := context.Background()
		var maxEntry int64
		for s := 0; s < 60; s++ {
			for range 2 {
				src := s
				if _, qerr := ex.Run(ctx, Request{Graph: "web", Kernel: "BFS", Source: &src, Order: orderReq}); qerr != nil {
					t.Fatal(qerr)
				}
			}
			var sum int64
			ex.results.mu.Lock()
			for _, e := range ex.results.entries {
				c := e.value.(*cachedResult)
				p := c.res.Packed
				if p == nil || p.Bits > 4 {
					t.Fatalf("order %q source %d: BFS entry %+v not packed at 4 bits or fewer", orderReq, s, p)
				}
				if want := int64(n * p.Bits / 8); e.size < want || e.size > want+256 {
					t.Fatalf("order %q: a %d-vertex %d-bit entry accounts %d bytes, want about %d",
						orderReq, n, p.Bits, e.size, want)
				}
				if size := c.memBytes(); size != e.size {
					t.Fatalf("order %q: entry accounted %d bytes, memBytes %d", orderReq, e.size, size)
				}
				sum += e.size
				maxEntry = max(maxEntry, e.size)
			}
			ex.results.mu.Unlock()
			if b := ex.ResultCacheBytes(); b != sum || b > budget+maxEntry {
				t.Fatalf("order %q source %d: ResultCacheBytes %d, held entries sum to %d, budget %d + entry %d",
					orderReq, s, b, sum, budget, maxEntry)
			}
		}
		if ex.ResultCacheEvictions() == 0 || ex.ResultCacheEntries()+ex.ResultCacheEvictions() != ex.CacheAdmitted() {
			t.Errorf("order %q: entries %d + evictions %d, want the %d admitted results",
				orderReq, ex.ResultCacheEntries(), ex.ResultCacheEvictions(), ex.CacheAdmitted())
		}
	}
}

// TestByteCacheAnswersMatchOracle: over a graph with unreached
// vertices, every way a BFS, SP or Kcore answer is served — deferred,
// admitted and packed, cache hit, reloaded from its materialized blob —
// carries the int32 oracle's summary, targets and top-K (the top-K
// taken by sorting the whole oracle vector), on the gorder and the
// natural-order path.
func TestByteCacheAnswersMatchOracle(t *testing.T) {
	// Two components: vertices 200..299 form a ring no source below 200
	// reaches, so distance vectors hold Unreached.
	var edges []graph.Edge
	gen.BarabasiAlbert(200, 3, 5).Edges(func(u, v graph.NodeID) bool {
		edges = append(edges, graph.Edge{From: u, To: v})
		return true
	})
	for v := 200; v < 300; v++ {
		w := 200 + (v-200+1)%100
		edges = append(edges, graph.Edge{From: graph.NodeID(v), To: graph.NodeID(w)},
			graph.Edge{From: graph.NodeID(w), To: graph.NodeID(v)})
	}
	g := graph.FromEdgesDedup(300, edges)
	all := make([]int, g.NumNodes())
	for v := range all {
		all[v] = v
	}
	for _, orderReq := range []string{"", "natural"} {
		ex, st := execOver(t, Config{}, g)
		for _, kernel := range []string{"BFS", "SP", "Kcore"} {
			src := 7
			oracle := directResult(t, g, kernel, registry.KernelParams{SPSource: src})
			if kernel != "Kcore" && oracle.Summary["reached"] >= float64(g.NumNodes()) {
				t.Fatalf("%s reached every vertex; the graph needs unreached ones", kernel)
			}
			for _, shape := range []Request{{Targets: all}, {Top: 40}} {
				want := oracleValues(resultView{res: &oracle}, shape.Targets, shape.Top)
				for i := 0; i < 3; i++ {
					req := shape
					req.Graph, req.Kernel, req.Source, req.Order = "web", kernel, &src, orderReq
					resp, qerr := ex.Run(context.Background(), req)
					if qerr != nil {
						t.Fatal(qerr)
					}
					if !reflect.DeepEqual(resp.Values, want) || !reflect.DeepEqual(resp.Summary, oracle.Summary) {
						t.Fatalf("order %q %s query %d (top %d): answer differs from the int32 oracle",
							orderReq, kernel, i+1, shape.Top)
					}
				}
			}
		}
		// A fresh executor over the same store serves Kcore from its
		// materialized blob, decoded and packed on the way in.
		ex2 := New(Config{Source: ex.cfg.Source, Store: st})
		oracle := directResult(t, g, "Kcore", registry.KernelParams{})
		want := oracleValues(resultView{res: &oracle}, all, 0)
		resp, qerr := ex2.Run(context.Background(), Request{Graph: "web", Kernel: "Kcore", Targets: all, Order: orderReq})
		if qerr != nil {
			t.Fatal(qerr)
		}
		if !resp.Materialized || !reflect.DeepEqual(resp.Values, want) {
			t.Fatalf("order %q: materialized Kcore (materialized=%v) differs from the oracle", orderReq, resp.Materialized)
		}
		if v, ok := ex2.results.get("d1|kcore|" + resp.ParamKey); !ok || v.(*cachedResult).res.Packed == nil {
			t.Errorf("order %q: materialized Kcore not cached packed", orderReq)
		}
	}
}
