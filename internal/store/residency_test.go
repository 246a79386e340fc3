package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/graph"
)

// Only a lineage's tip stays resident: twenty appends hold one version
// in memory, and reading a superseded version reloads it from disk
// without admitting it.
func TestResidencyHoldsOnlyTips(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	var tip *graph.Graph
	for i := 1; i <= 20; i++ {
		tip = gen.Ring(8 + i)
		if _, err := s.AppendVersion("g", fmt.Sprintf("d%d", i), tip, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.ResidentBytes(), tip.MemoryBytes(); got != want {
		t.Fatalf("resident bytes after 20 appends = %d, want the tip's %d", got, want)
	}
	if !s.IsTip("d20") || s.IsTip("d1") {
		t.Fatalf("IsTip(d20)=%v IsTip(d1)=%v, want true/false", s.IsTip("d20"), s.IsTip("d1"))
	}

	reloads := s.Reloads()
	g1, err := s.GetGraph("d1")
	if err != nil || !g1.Equal(gen.Ring(9)) {
		t.Fatalf("GetGraph(v1) returned the wrong graph (err %v)", err)
	}
	if s.Reloads() != reloads+1 {
		t.Fatalf("reloads %d -> %d, want one reload for a superseded version", reloads, s.Reloads())
	}
	if s.Resident("d1") || s.ResidentBytes() != tip.MemoryBytes() {
		t.Fatalf("superseded v1 admitted: resident=%v bytes=%d", s.Resident("d1"), s.ResidentBytes())
	}
}

// Content dedup lets one digest tip several lineages (an upload of
// the same bytes under another name is a lineage of its own): advancing
// one lineage keeps the digest resident for the others, and only the
// last lineage moving away releases it.
func TestResidencySharedTipStaysResident(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	shared, ga, gb := gen.Ring(16), gen.Ring(20), gen.Ring(24)
	for _, name := range []string{"a", "b"} {
		if _, err := s.AppendVersion(name, "d1", shared, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AppendVersion("alias", "d1", shared, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendVersion("a", "d2", ga, 0); err != nil {
		t.Fatal(err)
	}
	if !s.Resident("d1") {
		t.Fatal("digest still tipping lineage b was released when a advanced")
	}
	if _, err := s.AppendVersion("b", "d3", gb, 0); err != nil {
		t.Fatal(err)
	}
	if !s.Resident("d1") {
		t.Fatal("digest still tipping lineage alias was released")
	}
	if _, err := s.AppendVersion("alias", "d3", gb, 0); err != nil {
		t.Fatal(err)
	}
	if s.Resident("d1") {
		t.Fatal("digest no lineage tips is still resident")
	}
	if got, want := s.ResidentBytes(), ga.MemoryBytes()+gb.MemoryBytes(); got != want {
		t.Fatalf("resident bytes = %d, want the two tips' %d", got, want)
	}
}

// Evict drops a tip's natural graph from memory, counted as an
// eviction, and keeps its blob: the next GetGraph reloads it once and
// re-admits it. Evicting a graph that is not resident changes nothing.
func TestResidencyEvictKeepsBlob(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	g := gen.BarabasiAlbert(200, 3, 4)
	if _, err := s.AppendVersion("g", "d1", g, 0); err != nil {
		t.Fatal(err)
	}
	s.Evict("d1")
	if s.Resident("d1") || s.ResidentBytes() != 0 || s.Evictions() != 1 {
		t.Fatalf("after Evict: resident=%v bytes=%d evictions=%d, want false/0/1",
			s.Resident("d1"), s.ResidentBytes(), s.Evictions())
	}
	s.Evict("d1")
	s.Evict("unknown")
	if s.Evictions() != 1 {
		t.Fatalf("evicting nothing counted: evictions=%d", s.Evictions())
	}
	for i := 0; i < 2; i++ {
		got, err := s.GetGraph("d1")
		if err != nil || !got.Equal(g) {
			t.Fatalf("GetGraph after Evict: err %v", err)
		}
	}
	if s.Reloads() != 1 || !s.Resident("d1") || s.ResidentBytes() != g.MemoryBytes() {
		t.Fatalf("reloads=%d resident=%v bytes=%d, want one reload that re-admits the tip",
			s.Reloads(), s.Resident("d1"), s.ResidentBytes())
	}
}

// PatchGraph writes an edited version without building it, names it by
// the digest of its bytes — the digest an upload of the same binary
// encoding gets — and makes it a tip only through AppendVersion, which
// then admits nothing: the blob is byte-identical to WriteBinary of the
// edited graph.
func TestPatchGraphDigestsItsEncoding(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	g := gen.BarabasiAlbert(200, 3, 1)
	if _, err := s.AppendVersion("g", "d1", g, 0); err != nil {
		t.Fatal(err)
	}
	add, del := []graph.Edge{{From: 200, To: 3}, {From: 5, To: 200}}, []graph.Edge{{From: 0, To: g.OutNeighbors(0)[0]}}
	want, wantSt, err := graph.ApplyEdits(g, 1, add, del)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := want.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	h := NewDigest()
	h.Write(buf.Bytes())

	digest, size, st, err := s.PatchGraph("d1", "g", 1, add, del)
	if err != nil {
		t.Fatalf("PatchGraph: %v", err)
	}
	if digest != DigestSum(h) || size != int64(buf.Len()) || st != wantSt {
		t.Fatalf("digest %s size %d stats %+v, want %s, %d and %+v", digest, size, st, DigestSum(h), buf.Len(), wantSt)
	}
	blob, err := os.ReadFile(s.graphPath(digest))
	if err != nil || !bytes.Equal(blob, buf.Bytes()) {
		t.Fatalf("blob differs from the binary encoding (err %v)", err)
	}
	if s.IsTip(digest) {
		t.Fatal("a patched version is a tip before AppendVersion")
	}
	if v, err := s.AppendVersion("g", digest, nil, 0); err != nil || v != 2 {
		t.Fatalf("AppendVersion of the patched digest: v%d err %v", v, err)
	}
	if s.Resident(digest) || s.Resident("d1") || s.ResidentBytes() != 0 {
		t.Fatalf("resident: new=%v old=%v bytes=%d, want nothing", s.Resident(digest), s.Resident("d1"), s.ResidentBytes())
	}
	if meta, ok := s.Lookup("g"); !ok || meta.Digest != digest || meta.Nodes != 201 || meta.Edges != want.NumEdges() {
		t.Fatalf("tip meta %+v, want %s with 201 nodes and %d edges", meta, digest, want.NumEdges())
	}

	// The same edit again derives content already stored: the discarded
	// second blob leaves no temp file behind, and appending it is an
	// idempotent tip replay.
	if d2, _, _, err := s.PatchGraph("d1", "g", 1, add, del); err != nil || d2 != digest {
		t.Fatalf("repeat patch: %s err %v", d2, err)
	}
	if v, err := s.AppendVersion("g", digest, nil, 0); err != nil || v != 2 {
		t.Fatalf("replay: v%d err %v", v, err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, graphsDirName))
	if err != nil || len(entries) != 2 {
		t.Fatalf("graphs dir holds %d entries, want the two blobs (err %v)", len(entries), err)
	}
	if _, err := s.AppendVersion("g", "never-stored", nil, 0); err == nil {
		t.Fatal("appended a digest with neither a blob nor a graph")
	}

	// The manifest record (size, CRC) matches the blob across a reopen.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 0)
	got, err := s2.GetGraph(digest)
	if err != nil || !want.Equal(got) {
		t.Fatalf("reopened version differs (err %v)", err)
	}
}

// A parent blob that fails its checksum is not patched: no new blob is
// renamed into place, and the parent is dropped like GetGraph drops it,
// so its lineage heals to the previous version.
func TestPatchGraphCorruptParent(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for i, d := range []string{"d1", "d2"} {
		if _, err := s.AppendVersion("g", d, gen.BarabasiAlbert(300, 3, uint64(4+i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(s.graphPath("d2"))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-40] ^= 0x10 // deep in the adjacency, far from the edit
	if err := os.WriteFile(s.graphPath("d2"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = s.PatchGraph("d2", "g", 0, []graph.Edge{{From: 1, To: 2}}, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("patching a corrupt parent: err %v, want ErrCorrupt", err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, graphsDirName))
	if err != nil || len(entries) != 1 || entries[0].Name() != "d1" {
		t.Fatalf("graphs dir after the failed patch: %v (err %v), want only d1", entries, err)
	}
	if meta, ok := s.Lookup("g"); !ok || meta.Digest != "d1" {
		t.Fatalf("lineage tip after the failed patch: %+v, want d1", meta)
	}
	// A batch out of range fails before the parent is read.
	if _, _, _, err := s.PatchGraph("d1", "g", 0, []graph.Edge{{From: 0, To: 300}}, nil); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range batch: err %v", err)
	}
}
