package store

import (
	"hash/crc32"
	"io"
	"path/filepath"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
)

// BenchmarkEditOrderedTip times one one-edge edit of an ordered 100k-
// vertex web-graph tip whose relabeled copy is resident (a random
// permutation stands in for the ordering; ApplyEdits does not look at
// locality). Run with -benchmem: each sub-benchmark persists the new
// version's natural blob durably (temp file, fsync, rename) and builds
// what the edit must hold in memory.
//
//   - apply-once: the batch, mapped through the permutation, applied
//     once to the relabeled CSR, and the blob patched from the parent's
//     on disk (PatchGraph) — the edit path.
//   - apply-twice: ApplyEdits on the natural tip and again on the
//     relabeled copy, and the blob written whole from the new natural
//     CSR with WriteBinary — the path this replaced, rebuilt from the
//     primitives that remain.
func BenchmarkEditOrderedTip(b *testing.B) {
	g := gen.Web(100_000, gen.DefaultWeb, 1)
	n := g.NumNodes()
	perm := order.Permutation(gen.NewRNG(1).Perm(n))
	rel := g.Relabel(perm)
	add := []graph.Edge{{From: 17, To: graph.NodeID(n - 1)}}
	mapped := []graph.Edge{{From: perm[17], To: perm[n-1]}}
	dir := b.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AppendVersion("web", "tip", g, 0); err != nil {
		b.Fatal(err)
	}
	b.Logf("web graph: %d vertices, %d edges", n, g.NumEdges())

	b.Run("apply-once", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := graph.ApplyEdits(rel, 0, mapped, nil); err != nil {
				b.Fatal(err)
			}
			if _, _, _, err := s.PatchGraph("tip", "web", 0, add, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apply-twice", func(b *testing.B) {
		b.ReportAllocs()
		path := filepath.Join(dir, "whole")
		for i := 0; i < b.N; i++ {
			gNew, _, err := graph.ApplyEdits(g, 0, add, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := graph.ApplyEdits(rel, 0, mapped, nil); err != nil {
				b.Fatal(err)
			}
			err = WriteFileAtomic(path, 0o644, func(w io.Writer) error {
				return gNew.WriteBinary(io.MultiWriter(w, crc32.NewIEEE(), NewDigest()))
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
