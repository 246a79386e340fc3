package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// Ingest benchmarks: edge-list parsing, CSR construction, and the
// binary loader, serial vs parallel. scripts/bench.sh ingest runs
// these and records BENCH_ingest.json. The workload is a ~1M-edge
// random graph — big enough that the parallel paths engage even in
// automatic mode.

var benchIngest struct {
	once  sync.Once
	n     int
	edges []Edge
	text  []byte // edge-list rendering of edges
	bin   []byte // binary CSR rendering
}

func benchSetup(b *testing.B) {
	benchIngest.once.Do(func() {
		rng := rand.New(rand.NewSource(42))
		n := 1 << 17
		m := 1 << 20
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
		}
		text := make([]byte, 0, 14*m)
		for _, e := range edges {
			text = strconv.AppendUint(text, uint64(e.From), 10)
			text = append(text, ' ')
			text = strconv.AppendUint(text, uint64(e.To), 10)
			text = append(text, '\n')
		}
		g := FromEdges(n, edges)
		var bb bytes.Buffer
		if err := g.WriteBinary(&bb); err != nil {
			panic(err)
		}
		benchIngest.n = n
		benchIngest.edges = edges
		benchIngest.text = text
		benchIngest.bin = bb.Bytes()
	})
	b.Helper()
}

// benchParallelisms is the worker-count axis: the serial oracle, a
// fixed 4-way point for cross-machine comparability, and whatever this
// machine's GOMAXPROCS gives (skipped if it duplicates an earlier
// point).
func benchParallelisms() []int {
	ps := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		ps = append(ps, p)
	}
	return ps
}

func benchLabel(k int) string {
	if k == 1 {
		return "serial"
	}
	return fmt.Sprintf("parallel-p%d", k)
}

func BenchmarkReadEdgeList(b *testing.B) {
	benchSetup(b)
	for _, k := range benchParallelisms() {
		b.Run(benchLabel(k), func(b *testing.B) {
			forcedWorkers = k
			defer func() { forcedWorkers = 0 }()
			b.SetBytes(int64(len(benchIngest.text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReadEdgeListBytes(benchIngest.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFromEdges(b *testing.B) {
	benchSetup(b)
	for _, k := range benchParallelisms() {
		b.Run(benchLabel(k), func(b *testing.B) {
			forcedWorkers = k
			defer func() { forcedWorkers = 0 }()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FromEdges(benchIngest.n, benchIngest.edges)
			}
		})
	}
}

func BenchmarkReadBinary(b *testing.B) {
	benchSetup(b)
	for _, k := range benchParallelisms() {
		b.Run("direct-"+benchLabel(k), func(b *testing.B) {
			forcedWorkers = k
			defer func() { forcedWorkers = 0 }()
			b.SetBytes(int64(len(benchIngest.bin)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReadBinaryBytes(benchIngest.bin); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The pre-optimization pipeline, kept here as the regression
	// reference: decode, materialize an []Edge, rebuild both CSR
	// directions from scratch.
	b.Run("via-edges-reference", func(b *testing.B) {
		forcedWorkers = 1
		defer func() { forcedWorkers = 0 }()
		b.SetBytes(int64(len(benchIngest.bin)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := readBinaryViaEdges(benchIngest.bin); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// readBinaryViaEdges reproduces the old ReadBinary pipeline for the
// benchmark baseline: decode the CSR payload, expand it to an O(m)
// edge list, and hand that to FromEdges.
func readBinaryViaEdges(data []byte) (*Graph, error) {
	b := data[len(binaryMagic)+16:]
	n := int64(binary.LittleEndian.Uint64(data[len(binaryMagic):]))
	m := int64(binary.LittleEndian.Uint64(data[len(binaryMagic)+8:]))
	outIdx := make([]int64, n+1)
	for i := range outIdx {
		outIdx[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	b = b[(n+1)*8:]
	outAdj := make([]NodeID, m)
	for i := range outAdj {
		outAdj[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	edges := make([]Edge, 0, m)
	for u := int64(0); u < n; u++ {
		for _, v := range outAdj[outIdx[u]:outIdx[u+1]] {
			edges = append(edges, Edge{NodeID(u), v})
		}
	}
	return FromEdges(int(n), edges), nil
}
