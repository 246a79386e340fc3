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
	"time"
)

// Ingest benchmarks: edge-list parsing, CSR construction, and the
// binary loader, at one worker and at several. scripts/bench.sh ingest runs
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

// benchParallelisms is the worker-count axis: one worker, a fixed
// 4-way point for cross-machine comparability, and whatever this
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

// benchIngestAt times load at k ingest workers (0: automatic),
// reporting size bytes per op. The clock starts after one untimed load
// and warmGoroutines, so allocs/op counts the loader's own allocations
// and not the runtime's first-use growth.
func benchIngestAt(b *testing.B, k int, size int, load func() error) {
	forcedWorkers = k
	defer func() { forcedWorkers = 0 }()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	if err := load(); err != nil {
		b.Fatal(err)
	}
	warmGoroutines()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := load(); err != nil {
			b.Fatal(err)
		}
	}
}

// warmGoroutines starts 64 goroutines per P plus 64, parks them all
// on a channel, then lets each sleep a millisecond and exit. Runtime
// structures the timed load would otherwise allocate on first use are
// then in place, so allocs/op counts the loader's own allocations:
//   - goroutine descriptors and wait-queue entries (sudogs): a P keeps
//     at most 63 exited descriptors and 128 sudogs locally and hands
//     the rest to shared lists, so every P can reuse them for the go
//     statements and blocking waits of par.ForChunks;
//   - threads (Ms): enough run the goroutines that an idle one is
//     there when a load's workers start;
//   - timer heaps: every P holds many sleep timers at once, so a
//     background runtime timer landing on a P never grows its heap.
//
// Without this, allocs/op of the parallel rows varied by up to ten
// between runs: whether a load allocated descriptors depended on which
// P the previous load's goroutines had exited on.
func warmGoroutines() {
	k := 64 * (runtime.GOMAXPROCS(0) + 1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(k)
	for i := 0; i < k; i++ {
		go func() {
			defer wg.Done()
			<-release
			time.Sleep(time.Millisecond)
		}()
	}
	close(release)
	wg.Wait()
}

func BenchmarkReadEdgeList(b *testing.B) {
	benchSetup(b)
	for _, k := range benchParallelisms() {
		b.Run(benchLabel(k), func(b *testing.B) {
			benchIngestAt(b, k, len(benchIngest.text), func() error {
				_, err := ReadEdgeListBytes(benchIngest.text)
				return err
			})
		})
	}
}

func BenchmarkFromEdges(b *testing.B) {
	benchSetup(b)
	for _, k := range benchParallelisms() {
		b.Run(benchLabel(k), func(b *testing.B) {
			benchIngestAt(b, k, 0, func() error {
				FromEdges(benchIngest.n, benchIngest.edges)
				return nil
			})
		})
	}
}

func BenchmarkReadBinary(b *testing.B) {
	benchSetup(b)
	for _, k := range benchParallelisms() {
		b.Run("direct-"+benchLabel(k), func(b *testing.B) {
			benchIngestAt(b, k, len(benchIngest.bin), func() error {
				_, err := ReadBinaryBytes(benchIngest.bin)
				return err
			})
		})
	}
	// The pre-optimization pipeline, kept here as the regression
	// reference: decode, materialize an []Edge, rebuild both CSR
	// directions from scratch.
	b.Run("via-edges-reference", func(b *testing.B) {
		benchIngestAt(b, 1, len(benchIngest.bin), func() error {
			_, err := readBinaryViaEdges(benchIngest.bin)
			return err
		})
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
