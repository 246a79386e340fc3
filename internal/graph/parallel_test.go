package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// sameGraph compares all four CSR arrays — Equal only checks the out
// direction, but the parallel builders must reproduce the in-CSR
// bit-for-bit too.
func sameGraph(g, h *Graph) bool {
	return g.Equal(h) && slices.Equal(g.inIdx, h.inIdx) && slices.Equal(g.inAdj, h.inAdj)
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

// The parallel CSR builder must be bit-identical to the serial oracle
// on randomized graphs of varied size, duplicate density, and
// self-loop density — for both the plain and the dedup builder.
func TestParallelBuildMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(300)
		m := rng.Intn(8 * n)
		edges := messyEdges(rng, n, m)
		var want, wantDedup *Graph
		withParallelism(1, func() {
			want = FromEdges(n, edges)
			wantDedup = FromEdgesDedup(n, edges)
		})
		for _, workers := range []int{2, 3, 4, 8} {
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
		want := FromEdges(n, edges)
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

// The parallel parser must agree with the serial parser on randomized
// inputs — same graph, for every worker count, at every chunk split.
func TestParallelReadEdgeListMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		edges := messyEdges(rng, n, rng.Intn(6*n))
		data := writeMessyEdgeList(rng, edges)
		want, err := readEdgeListSerial(data)
		if err != nil {
			t.Fatalf("trial %d: serial parse: %v", trial, err)
		}
		for _, workers := range []int{2, 3, 5, 9} {
			got, err := readEdgeListParallel(data, workers)
			if err != nil {
				t.Fatalf("trial %d: parallel parse (%d workers): %v", trial, workers, err)
			}
			if !sameGraph(want, got) {
				t.Fatalf("trial %d: parallel parse differs at %d workers", trial, workers)
			}
		}
	}
}

// Malformed input must fail identically — same line number, same
// message — no matter which chunk the bad line lands in.
func TestParallelReadEdgeListErrorParity(t *testing.T) {
	badLines := []string{
		"17 oops\n",                // non-numeric field
		"17\n",                     // missing field
		"0 4294967296\n",           // past the NodeID range
		"99999999999999999999 1\n", // int64 overflow
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
		data := mk(bad, badLine, 100)
		_, serialErr := readEdgeListSerial(data)
		if serialErr == nil {
			t.Fatalf("bad line %d: serial parse accepted malformed input", badLine)
		}
		for _, workers := range []int{2, 3, 7} {
			_, parallelErr := readEdgeListParallel(data, workers)
			if parallelErr == nil {
				t.Fatalf("bad line %d: parallel parse (%d workers) accepted malformed input", badLine, workers)
			}
			if parallelErr.Error() != serialErr.Error() {
				t.Fatalf("bad line %d, %d workers: error %q, serial says %q",
					badLine, workers, parallelErr, serialErr)
			}
		}
	}
}

// Chunk boundaries must never split a line: a file of wide multi-digit
// lines parsed with worker counts that place boundaries mid-number
// must match the serial parse exactly.
func TestParallelReadEdgeListChunkBoundaries(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 101; i++ {
		fmt.Fprintf(&sb, "%d %d\n", 1000000+i*7919, 2000000+i*104729)
	}
	data := []byte(sb.String())
	want, err := readEdgeListSerial(data)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 2; workers <= 16; workers++ {
		got, err := readEdgeListParallel(data, workers)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if !sameGraph(want, got) {
			t.Fatalf("%d workers: parse differs from serial", workers)
		}
	}
}

// The public entry must produce identical results whichever path the
// knob selects.
func TestReadEdgeListBytesKnob(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	edges := messyEdges(rng, 80, 400)
	data := writeMessyEdgeList(rng, edges)
	var want, got *Graph
	var err error
	withParallelism(1, func() { want, err = ReadEdgeListBytes(data) })
	if err != nil {
		t.Fatal(err)
	}
	withParallelism(6, func() { got, err = ReadEdgeListBytes(data) })
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(want, got) {
		t.Fatal("ReadEdgeListBytes differs between serial and forced-parallel")
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
		var want *Graph
		withParallelism(1, func() { want = FromEdgesDedup(n, expanded) })
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
