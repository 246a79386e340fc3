package store

import (
	"bytes"
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

// AppendGraph encodes a new version once and names it by the digest of
// those bytes — the digest an upload of the same binary encoding gets —
// with the blob byte-identical to that encoding.
func TestAppendGraphDigestsItsEncoding(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	g := gen.BarabasiAlbert(200, 3, 1)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	h := NewDigest()
	h.Write(buf.Bytes())

	digest, size, v, err := s.AppendGraph("g", g)
	if err != nil || v != 1 {
		t.Fatalf("AppendGraph: v%d err %v", v, err)
	}
	if digest != DigestSum(h) || size != int64(buf.Len()) {
		t.Fatalf("digest %s size %d, want %s and %d", digest, size, DigestSum(h), buf.Len())
	}
	blob, err := os.ReadFile(s.graphPath(digest))
	if err != nil || !bytes.Equal(blob, buf.Bytes()) {
		t.Fatalf("blob differs from the binary encoding (err %v)", err)
	}
	if !s.Resident(digest) {
		t.Fatal("new tip not resident")
	}

	// The same content again is an idempotent tip replay, and the
	// discarded second encoding leaves no temp file behind.
	if d2, _, v2, err := s.AppendGraph("g", g); err != nil || d2 != digest || v2 != 1 {
		t.Fatalf("replay: %s v%d err %v", d2, v2, err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, graphsDirName))
	if err != nil || len(entries) != 1 {
		t.Fatalf("graphs dir holds %d entries, want the one blob (err %v)", len(entries), err)
	}

	// The manifest record (size, CRC) matches the blob across a reopen.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 0)
	got, err := s2.GetGraph(digest)
	if err != nil || !g.Equal(got) {
		t.Fatalf("reopened version differs (err %v)", err)
	}
}
