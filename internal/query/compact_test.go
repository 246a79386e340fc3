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

// TestCompactRangeEdges: an int32 vector enters the cache at one byte
// per vertex exactly when every entry lies in [-1, 254], and the byte
// form answers targets and top-K (ties included) exactly as the int32
// form read through the same permutation, on the permuted and the
// natural-order path.
func TestCompactRangeEdges(t *testing.T) {
	// A base with ties and unreached vertices, so top-K has to break
	// ties by vertex ID and -1 sits among the values.
	base := []int32{3, 1, -1, 3, 0, 2, 2, -1, 1, 3, 0, 2}
	with := func(vals ...int32) []int32 {
		v := append([]int32(nil), base...)
		copy(v, vals)
		return v
	}
	for _, tc := range []struct {
		name  string
		vec   []int32
		bytes bool
	}{
		{"254", with(254, 254), true},
		{"-1 and 0", with(-1, 0), true},
		{"all unreached", []int32{-1, -1, -1, -1}, true},
		{"255", with(255), false},
		{"-2", with(-2), false},
		{"min int32", with(math.MinInt32), false},
		{"max int32", with(math.MaxInt32), false},
	} {
		n := len(tc.vec)
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		for _, perm := range []order.Permutation{nil, reversePerm(n)} {
			orig := registry.KernelResult{Kernel: "BFS", Int32s: append([]int32(nil), tc.vec...)}
			res := registry.KernelResult{Kernel: "BFS", Int32s: append([]int32(nil), tc.vec...)}
			mapResultBack(&res, perm)
			if got := res.Uint8s != nil; got != tc.bytes || (res.Int32s != nil) == tc.bytes {
				t.Fatalf("%s (perm %v): Uint8s set %v, Int32s set %v; want bytes %v",
					tc.name, perm != nil, got, res.Int32s != nil, tc.bytes)
			}
			if res.VectorLen() != n {
				t.Fatalf("%s: VectorLen %d, want %d", tc.name, res.VectorLen(), n)
			}
			for _, shape := range []struct {
				targets []int
				top     int
			}{{all, 0}, {nil, 5}, {nil, n}} {
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

// TestResultCodecByteFormMatchesInt32: a result the cache holds in its
// byte form encodes to exactly the blob of its int32 form, so the GQR1
// format is unchanged, and decodes back to the int32 form.
func TestResultCodecByteFormMatchesInt32(t *testing.T) {
	for _, res := range []registry.KernelResult{
		{Kernel: "BFS", Summary: map[string]float64{"reached": 4, "ecc": 254}, Int32s: []int32{0, 1, -1, 254, 2}},
		{Kernel: "Kcore", Summary: map[string]float64{"max_core": 3}, Int32s: []int32{3, 3, 2, 1, 0, 0}},
	} {
		wide := &cachedResult{res: res, method: "gorder", optKey: "abcd"}
		compact := &cachedResult{res: res, method: "gorder", optKey: "abcd"}
		compact.res.Int32s = append([]int32(nil), res.Int32s...)
		mapResultBack(&compact.res, nil)
		if compact.res.Uint8s == nil {
			t.Fatalf("%s: not compacted", res.Kernel)
		}
		if compact.memBytes() >= wide.memBytes() {
			t.Errorf("%s: byte form accounts %d bytes, int32 form %d", res.Kernel, compact.memBytes(), wide.memBytes())
		}
		enc := encodeResult(compact)
		if !bytes.Equal(enc, encodeResult(wide)) {
			t.Fatalf("%s: byte form encodes differently from the int32 form", res.Kernel)
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

// TestResultCacheWithinBudget floods an executor with distinct BFS
// sources, each asked twice so the doorkeeper admits it. The result
// cache never holds more than its budget plus one entry, its byte count
// is the sum of the held entries' sizes, and a compacted entry accounts
// for about one byte per vertex, not four.
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
				if c.res.Uint8s == nil {
					t.Fatalf("order %q source %d: BFS entry not held at one byte per vertex", orderReq, s)
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
		if maxEntry < int64(n) || maxEntry > int64(n)+256 {
			t.Errorf("order %q: a %d-vertex entry accounts %d bytes, want about %d", orderReq, n, maxEntry, n)
		}
		if ex.ResultCacheEvictions() == 0 || ex.ResultCacheEntries()+ex.ResultCacheEvictions() != ex.CacheAdmitted() {
			t.Errorf("order %q: entries %d + evictions %d, want the %d admitted results",
				orderReq, ex.ResultCacheEntries(), ex.ResultCacheEvictions(), ex.CacheAdmitted())
		}
	}
}

// TestByteCacheAnswersMatchOracle: over a graph with unreached
// vertices, every way a BFS, SP or Kcore answer is served — deferred,
// admitted, cache hit, reloaded from its materialized blob — carries
// the int32 oracle's summary, targets and top-K, on the gorder and the
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
				want, qerr := shapeValues(resultView{res: &oracle}, shape.Targets, shape.Top)
				if qerr != nil {
					t.Fatal(qerr)
				}
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
		// materialized blob, decoded and compacted on the way in.
		ex2 := New(Config{Source: ex.cfg.Source, Store: st})
		oracle := directResult(t, g, "Kcore", registry.KernelParams{})
		want, _ := shapeValues(resultView{res: &oracle}, all, 0)
		resp, qerr := ex2.Run(context.Background(), Request{Graph: "web", Kernel: "Kcore", Targets: all, Order: orderReq})
		if qerr != nil {
			t.Fatal(qerr)
		}
		if !resp.Materialized || !reflect.DeepEqual(resp.Values, want) {
			t.Fatalf("order %q: materialized Kcore (materialized=%v) differs from the oracle", orderReq, resp.Materialized)
		}
		if v, ok := ex2.results.get("d1|kcore|" + resp.ParamKey); !ok || v.(*cachedResult).res.Uint8s == nil {
			t.Errorf("order %q: materialized Kcore not cached at one byte per vertex", orderReq)
		}
	}
}
