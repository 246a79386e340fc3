package graph

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func binaryOf(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomEditBatch draws a batch against g: appended vertices, adds among
// old and new vertices (self-loops included), real deletes, phantom
// deletes, and every kind of request repeated.
func randomEditBatch(rng *rand.Rand, g *Graph) (addNodes int, add, del []Edge) {
	n := g.NumNodes()
	addNodes = rng.Intn(4)
	n2 := n + addNodes
	if n2 == 0 {
		return addNodes, nil, nil
	}
	for i := rng.Intn(10); i > 0; i-- {
		add = append(add, Edge{NodeID(rng.Intn(n2)), NodeID(rng.Intn(n2))})
	}
	for i := rng.Intn(3); i > 0; i-- {
		v := NodeID(rng.Intn(n2))
		add = append(add, Edge{v, v})
	}
	g.Edges(func(u, v NodeID) bool {
		switch rng.Intn(12) {
		case 0:
			del = append(del, Edge{u, v})
		case 1:
			add = append(add, Edge{u, v}) // already present
		case 2:
			del = append(del, Edge{u, v})
			add = append(add, Edge{u, v}) // deleted and added back
		}
		return true
	})
	for i := rng.Intn(4); i > 0; i-- {
		del = append(del, Edge{NodeID(rng.Intn(n2)), NodeID(rng.Intn(n2))})
	}
	if len(add) > 0 {
		add = append(add, add[rng.Intn(len(add))])
	}
	if len(del) > 0 {
		del = append(del, del[rng.Intn(len(del))])
	}
	return addNodes, add, del
}

// TestPatchBinaryMatchesApplyEdits is the patch's contract: on random
// multigraphs (parallel edges and self-loops kept) and random batches,
// the patched encoding is byte for byte WriteBinary(ApplyEdits(g)), and
// the stats are ApplyEdits' — edit after edit, each patch reading the
// previous one's output.
func TestPatchBinaryMatchesApplyEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(50)
		var edges []Edge
		for i := 0; n > 0 && i < rng.Intn(6*n+1); i++ {
			e := Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
			edges = append(edges, e)
			if rng.Intn(5) == 0 {
				edges = append(edges, e) // a parallel copy
			}
		}
		g := FromEdges(n, edges)
		blob := binaryOf(t, g)
		for step := 0; step < 4; step++ {
			addNodes, add, del := randomEditBatch(rng, g)
			want, wantSt, err := ApplyEdits(g, addNodes, add, del)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			st, err := PatchBinary(&got, bytes.NewReader(blob), int64(len(blob)), addNodes, add, del)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if !bytes.Equal(got.Bytes(), binaryOf(t, want)) {
				t.Fatalf("trial %d step %d: patched blob differs from WriteBinary(ApplyEdits) (n=%d addNodes=%d add=%v del=%v)",
					trial, step, n, addNodes, add, del)
			}
			if st != wantSt {
				t.Fatalf("trial %d step %d: stats %+v, ApplyEdits says %+v", trial, step, st, wantSt)
			}
			g, blob = want, got.Bytes()
		}
	}
}

// A damaged, short or foreign parent is an error, never a quiet patch.
func TestPatchBinaryRejectsBadParent(t *testing.T) {
	g := FromEdges(40, []Edge{{0, 1}, {1, 2}, {5, 39}, {39, 0}, {7, 7}})
	blob := binaryOf(t, g)
	add := []Edge{{3, 4}}
	patch := func(b []byte) error {
		_, err := PatchBinary(new(bytes.Buffer), bytes.NewReader(b), int64(len(b)), 0, add, nil)
		return err
	}
	if err := patch(blob); err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{30, len(blob) / 2, len(blob) - 8} {
		bad := bytes.Clone(blob)
		bad[at] ^= 0x40
		if err := patch(bad); err == nil {
			t.Errorf("flipped byte %d: patched anyway", at)
		}
	}
	// A flip in the untouched adjacency passes every structural check,
	// so only the checksum can catch it.
	bad := bytes.Clone(blob)
	bad[len(blob)-6] ^= 0x01
	if err := patch(bad); !errors.Is(err, ErrChecksum) {
		t.Errorf("adjacency bit flip: err %v, want ErrChecksum", err)
	}
	if err := patch(blob[:len(blob)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short blob: err %v, want ErrTruncated", err)
	}
	if err := patch(append(bytes.Clone(blob), 0)); !errors.Is(err, ErrTruncated) {
		t.Errorf("blob with a trailing byte: err %v, want ErrTruncated", err)
	}
	v0 := bytes.Clone(blob[:len(blob)-4])
	copy(v0, binaryMagic[:])
	if err := patch(v0); !errors.Is(err, ErrBadMagic) {
		t.Errorf("v0 blob: err %v, want ErrBadMagic", err)
	}
	if _, err := PatchBinary(new(bytes.Buffer), bytes.NewReader(blob), int64(len(blob)), 0, []Edge{{0, 40}}, nil); err == nil ||
		err.Error() != "graph: add edge (0,40) out of range for n=40" {
		t.Errorf("out-of-range add: err %v", err)
	}
}

// Deleting an edge with parallel copies removes every copy and counts
// each; before, the size and fill passes disagreed and ApplyEdits
// panicked with a degree mismatch.
func TestApplyEditsDeletesParallelCopies(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {0, 1}, {0, 2}, {1, 2}, {1, 2}})
	g2, st, err := ApplyEdits(g, 0, []Edge{{1, 2}}, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g2.OutNeighbors(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("row 0 = %v, want [2]", got)
	}
	if got := g2.OutNeighbors(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("row 1 = %v, want the deleted-and-added-back edge once", got)
	}
	if st != (EditStats{Added: 1, Deleted: 4}) {
		t.Fatalf("stats %+v, want Added=1 Deleted=4", st)
	}
	if int64(st.Added-st.Deleted) != g2.NumEdges()-g.NumEdges() {
		t.Fatalf("stats %+v disagree with edge counts %d→%d", st, g.NumEdges(), g2.NumEdges())
	}
}

// BenchmarkPatchBinary patches a one-edge edit into a 100k-vertex,
// ~1M-edge encoding; B/op stays a few buffers, not the graph.
func BenchmarkPatchBinary(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 100_000
	edges := make([]Edge, 10*n)
	for i := range edges {
		edges[i] = Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
	}
	blob := binaryOf(b, FromEdgesDedup(n, edges))
	add := []Edge{{17, 99_999}}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PatchBinary(io.Discard, bytes.NewReader(blob), int64(len(blob)), 0, add, nil); err != nil {
			b.Fatal(err)
		}
	}
}
