package graph

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// sameGraph compares all four CSR arrays — Equal only checks the out
// direction, but the builders must reproduce the in-CSR bit-for-bit
// too.
func sameGraph(g, h *Graph) bool {
	return g.Equal(h) && slices.Equal(g.inIdx, h.inIdx) && slices.Equal(g.inAdj, h.inAdj)
}

// oracleGraph is the graph FromEdges (FromEdgesDedup with dedup set)
// must build, computed without the CSR builder: each direction sorts
// a copy of the edge list by (source, target), drops repeats if
// dedup, and groups it into rows.
func oracleGraph(n int, edges []Edge, dedup bool) *Graph {
	g := &Graph{n: n}
	g.outIdx, g.outAdj = oracleRows(n, edges, false, dedup)
	g.inIdx, g.inAdj = oracleRows(n, edges, true, dedup)
	return g
}

func oracleRows(n int, edges []Edge, reverse, dedup bool) ([]int64, []NodeID) {
	es := slices.Clone(edges)
	if reverse {
		for i, e := range es {
			es[i] = Edge{e.To, e.From}
		}
	}
	slices.SortFunc(es, func(a, b Edge) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	if dedup {
		es = slices.Compact(es)
	}
	idx := make([]int64, n+1)
	adj := make([]NodeID, len(es))
	for i, e := range es {
		idx[e.From+1]++
		adj[i] = e.To
	}
	for u := 0; u < n; u++ {
		idx[u+1] += idx[u]
	}
	return idx, adj
}

// oracleParse is the graph a text rendering of edges must parse to:
// the vertex count is the largest endpoint plus one.
func oracleParse(edges []Edge) *Graph {
	n := 0
	for _, e := range edges {
		n = max(n, int(e.From)+1, int(e.To)+1)
	}
	return oracleGraph(n, edges, false)
}

// parseWith parses data with the ingest worker count forced to k.
func parseWith(k int, data []byte) (g *Graph, err error) {
	withParallelism(k, func() { g, err = ReadEdgeListBytes(data) })
	return g, err
}

// withParallelism runs fn with the ingest worker count forced to k and
// restores the automatic default afterwards.
func withParallelism(k int, fn func()) {
	forcedWorkers = k
	defer func() { forcedWorkers = 0 }()
	fn()
}

// messyEdges generates an edge list with duplicates and self-loops —
// the shapes real SNAP/Konect files contain.
func messyEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		switch {
		case len(edges) > 0 && rng.Intn(4) == 0: // duplicate an earlier edge
			edges = append(edges, edges[rng.Intn(len(edges))])
		case rng.Intn(8) == 0: // self-loop
			u := NodeID(rng.Intn(n))
			edges = append(edges, Edge{u, u})
		default:
			edges = append(edges, Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))})
		}
	}
	return edges
}

// The CSR builder must be bit-identical to the sort oracle at every
// worker count, one included, on randomized graphs of varied size,
// duplicate density, and self-loop density — for both the plain and
// the dedup builder.
func TestParallelBuildMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(300)
		m := rng.Intn(8 * n)
		edges := messyEdges(rng, n, m)
		want, wantDedup := oracleGraph(n, edges, false), oracleGraph(n, edges, true)
		for _, workers := range []int{1, 2, 3, 4, 8} {
			var got, gotDedup *Graph
			withParallelism(workers, func() {
				got = FromEdges(n, edges)
				gotDedup = FromEdgesDedup(n, edges)
			})
			if !sameGraph(want, got) {
				t.Fatalf("trial %d: FromEdges differs at %d workers (n=%d m=%d)", trial, workers, n, m)
			}
			if !sameGraph(wantDedup, gotDedup) {
				t.Fatalf("trial %d: FromEdgesDedup differs at %d workers (n=%d m=%d)", trial, workers, n, m)
			}
		}
	}
}

// Sharded construction (the form the parallel parser hands over) must
// equal single-slice construction regardless of how edges are split.
func TestShardedBuildMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(100)
		edges := messyEdges(rng, n, rng.Intn(5*n))
		want := oracleGraph(n, edges, false)
		// Split into random contiguous shards.
		var shards [][]Edge
		for rest := edges; len(rest) > 0; {
			k := 1 + rng.Intn(len(rest))
			shards = append(shards, rest[:k])
			rest = rest[k:]
		}
		for _, workers := range []int{1, 4} {
			withParallelism(workers, func() {
				if got := build(n, shards, false); !sameGraph(want, got) {
					t.Fatalf("trial %d: sharded build differs at %d workers", trial, workers)
				}
			})
		}
	}
}

func TestOutOfRangePanicsParallel(t *testing.T) {
	forcedWorkers = 4
	defer func() {
		forcedWorkers = 0
		if recover() == nil {
			t.Error("expected panic on out-of-range edge under forced parallelism")
		}
	}()
	FromEdges(2, []Edge{{0, 1}, {1, 2}})
}

// writeMessyEdgeList renders edges as text with the whitespace and
// comment variety the parser must tolerate.
func writeMessyEdgeList(rng *rand.Rand, edges []Edge) []byte {
	var sb bytes.Buffer
	sb.WriteString("# header comment\n% konect-style comment\n")
	for _, e := range edges {
		switch rng.Intn(6) {
		case 0:
			sb.WriteString("\n") // blank line
		case 1:
			fmt.Fprintf(&sb, "# comment %d\n", rng.Intn(100))
		}
		sep := " "
		if rng.Intn(3) == 0 {
			sep = "\t"
		}
		lead := ""
		if rng.Intn(5) == 0 {
			lead = "  "
		}
		eol := "\n"
		if rng.Intn(7) == 0 {
			eol = "\r\n"
		}
		fmt.Fprintf(&sb, "%s%d%s%d%s", lead, e.From, sep, e.To, eol)
	}
	return sb.Bytes()
}

// The parser must reproduce the edge list it was given on randomized
// inputs — same graph, for every worker count, at every chunk split.
func TestParallelReadEdgeListMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		edges := messyEdges(rng, n, rng.Intn(6*n))
		data := writeMessyEdgeList(rng, edges)
		want := oracleParse(edges)
		for _, workers := range []int{1, 2, 3, 5, 9} {
			got, err := parseWith(workers, data)
			if err != nil {
				t.Fatalf("trial %d: parse (%d workers): %v", trial, workers, err)
			}
			if !sameGraph(want, got) {
				t.Fatalf("trial %d: parse differs from the oracle at %d workers", trial, workers)
			}
		}
	}
}

// Malformed input must fail with the planted line's number and
// message no matter which chunk the bad line lands in.
func TestParallelReadEdgeListErrorParity(t *testing.T) {
	badLines := []struct{ line, msg string }{
		{"17 oops\n", "expected integer field"},                                   // non-numeric field
		{"17\n", "expected integer field"},                                        // missing field
		{"0 4294967296\n", "endpoint 4294967296 exceeds the 32-bit NodeID range"}, // past the NodeID range
		{"99999999999999999999 1\n", "integer field overflows int64"},             // int64 overflow
	}
	mk := func(bad string, badLine, total int) []byte {
		var sb strings.Builder
		for i := 1; i <= total; i++ {
			if i == badLine {
				sb.WriteString(bad)
			} else {
				fmt.Fprintf(&sb, "%d %d\n", i, i+1)
			}
		}
		return []byte(sb.String())
	}
	for _, badLine := range []int{1, 13, 50, 99, 100} {
		bad := badLines[badLine%len(badLines)]
		data := mk(bad.line, badLine, 100)
		want := fmt.Sprintf("graph: line %d: %s", badLine, bad.msg)
		for _, workers := range []int{1, 2, 3, 7} {
			_, err := parseWith(workers, data)
			if err == nil {
				t.Fatalf("bad line %d: parse (%d workers) accepted malformed input", badLine, workers)
			}
			if err.Error() != want {
				t.Fatalf("bad line %d, %d workers: error %q, want %q", badLine, workers, err, want)
			}
		}
	}
}

// Chunk boundaries must never split a line: a file of wide multi-digit
// lines parsed with worker counts that place boundaries mid-number
// must reproduce its edges exactly.
func TestParallelReadEdgeListChunkBoundaries(t *testing.T) {
	var sb strings.Builder
	var edges []Edge
	for i := 0; i < 101; i++ {
		e := Edge{NodeID(1000000 + i*7919), NodeID(2000000 + i*104729)}
		fmt.Fprintf(&sb, "%d %d\n", e.From, e.To)
		edges = append(edges, e)
	}
	data := []byte(sb.String())
	want := oracleParse(edges)
	for workers := 1; workers <= 16; workers++ {
		got, err := parseWith(workers, data)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if !sameGraph(want, got) {
			t.Fatalf("%d workers: parse differs from the oracle", workers)
		}
	}
}

// The public entry must produce identical results at the automatic
// worker count (one worker: the input is under the size cutoff) and a
// forced one.
func TestReadEdgeListBytesKnob(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	edges := messyEdges(rng, 80, 400)
	data := writeMessyEdgeList(rng, edges)
	want := oracleParse(edges)
	got, err := ReadEdgeListBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(want, got) {
		t.Fatal("ReadEdgeListBytes differs from the oracle at the automatic worker count")
	}
	if got, err = parseWith(6, data); err != nil {
		t.Fatal(err)
	}
	if !sameGraph(want, got) {
		t.Fatal("ReadEdgeListBytes differs from the oracle at 6 forced workers")
	}
}

// Undirected's merge-based closure must equal the edge-expansion
// oracle it replaced, in both directions, at any worker count.
func TestUndirectedMatchesExpansionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(150)
		g := FromEdges(n, messyEdges(rng, n, rng.Intn(6*n)))
		expanded := make([]Edge, 0, 2*int(g.NumEdges()))
		g.Edges(func(u, v NodeID) bool {
			expanded = append(expanded, Edge{u, v}, Edge{v, u})
			return true
		})
		want := oracleGraph(n, expanded, true)
		for _, workers := range []int{1, 4} {
			withParallelism(workers, func() {
				if got := g.Undirected(); !sameGraph(want, got) {
					t.Fatalf("trial %d: Undirected differs from oracle at %d workers", trial, workers)
				}
			})
		}
	}
}

// ReadBinary must reproduce the original graph exactly — including
// the derived in-CSR — serial and parallel.
func TestReadBinaryDirectMatchesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(120)
		g := FromEdges(n, messyEdges(rng, n, rng.Intn(6*n)))
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			withParallelism(workers, func() {
				h, err := ReadBinaryBytes(buf.Bytes())
				if err != nil {
					t.Fatalf("trial %d (%d workers): %v", trial, workers, err)
				}
				if !sameGraph(g, h) {
					t.Fatalf("trial %d (%d workers): binary round trip differs", trial, workers)
				}
			})
		}
	}
}

// A hand-crafted binary file with unsorted neighbour lists must come
// out sorted — the invariant FromEdges used to restore on load.
func TestReadBinarySortsUnsortedAdjacency(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	binary.Write(&buf, binary.LittleEndian, [2]int64{3, 3})
	binary.Write(&buf, binary.LittleEndian, []int64{0, 3, 3, 3})
	binary.Write(&buf, binary.LittleEndian, []NodeID{2, 0, 1}) // unsorted
	g, err := ReadBinaryBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := FromEdges(3, []Edge{{0, 2}, {0, 0}, {0, 1}})
	if !sameGraph(want, g) {
		t.Fatalf("out(0) = %v, want sorted [0 1 2]", g.OutNeighbors(0))
	}
}

func TestReadBinaryBytesRejectsGarbage(t *testing.T) {
	mk := func(parts ...any) []byte {
		var buf bytes.Buffer
		buf.Write(binaryMagic[:])
		for _, p := range parts {
			binary.Write(&buf, binary.LittleEndian, p)
		}
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"empty":             nil,
		"wrong magic":       []byte("NOTAGRPH stuff"),
		"truncated header":  mk(int64(4)),
		"negative n":        mk([2]int64{-1, 0}),
		"implausible n":     mk([2]int64{1 << 40, 0}),
		"missing offsets":   mk([2]int64{4, 2}),
		"bad first offset":  mk([2]int64{1, 1}, []int64{1, 1}, []NodeID{0}),
		"offset mismatch":   mk([2]int64{1, 2}, []int64{0, 1}, []NodeID{0, 0}),
		"non-monotone":      mk([2]int64{2, 1}, []int64{0, 2, 1}, []NodeID{0}),
		"missing adjacency": mk([2]int64{2, 3}, []int64{0, 2, 3}),
		"neighbour range":   mk([2]int64{2, 2}, []int64{0, 1, 2}, []NodeID{0, 7}),
	}
	for name, data := range cases {
		if _, err := ReadBinaryBytes(data); err == nil {
			t.Errorf("%s: ReadBinaryBytes accepted corrupt input", name)
		}
	}
}

// The direct binary loader must not materialize an O(m) []Edge slice:
// total allocation during the load stays within the graph's own CSR
// footprint plus bounded slack. The old pipeline allocated an 8m-byte
// edge list plus a second CSR build, which busts this budget at the
// sizes below.
func TestReadBinaryAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 1 << 14
	m := 1 << 18
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
	}
	g := FromEdges(n, edges)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Budget: out/in offset arrays, out/in adjacency arrays, the
	// scatter cursor, and 1 MiB of slack for everything else. The
	// eliminated []Edge alone is 8m = 2 MiB over this.
	budget := uint64(2*8*(n+1) + 2*4*m + 8*n + 1<<20)
	for _, workers := range []int{1, 4} {
		withParallelism(workers, func() {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h, err := ReadBinaryBytes(data)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if !sameGraph(g, h) {
				t.Fatalf("%d workers: loaded graph differs", workers)
			}
			if delta := after.TotalAlloc - before.TotalAlloc; delta > budget {
				t.Errorf("%d workers: ReadBinaryBytes allocated %d bytes, budget %d — is an edge list being materialized?",
					workers, delta, budget)
			}
		})
	}
}
