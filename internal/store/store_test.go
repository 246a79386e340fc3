package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
)

func open(t *testing.T, dir string, budget int64) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	g := gen.Ring(32)
	if err := s.PutGraph("d1", "ring32", g, 100); err != nil {
		t.Fatal(err)
	}
	if !s.Resident("d1") {
		t.Error("freshly put graph not resident")
	}
	got, err := s.GetGraph("d1")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(got) {
		t.Error("GetGraph returned a different graph")
	}
	if s.Reloads() != 0 {
		t.Errorf("resident hit counted %d reloads", s.Reloads())
	}
	if _, err := s.GetGraph("nope"); !errors.Is(err, ErrUnknownGraph) {
		t.Errorf("unknown digest error = %v", err)
	}
}

func TestStoreRestartRestoresCatalog(t *testing.T) {
	dir := t.TempDir()
	g := gen.Ring(16)
	s := open(t, dir, 0)
	if err := s.PutGraph("d1", "ring16", g, 42); err != nil {
		t.Fatal(err)
	}
	if err := s.PutGraph("d1", "alias", g, 42); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	cat := s2.Catalog()
	if len(cat) != 1 || cat[0].Digest != "d1" || cat[0].Name != "ring16" ||
		cat[0].Nodes != 16 || cat[0].SrcBytes != 42 {
		t.Fatalf("restored catalog = %+v", cat)
	}
	if meta, ok := s2.Lookup("alias"); !ok || meta.Digest != "d1" || meta.Version != 1 {
		t.Errorf("alias not restored: %+v ok=%v", meta, ok)
	}
	if s2.Resident("d1") {
		t.Error("graph resident before first use after restart")
	}
	got, err := s2.GetGraph("d1")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(got) {
		t.Error("reloaded graph differs")
	}
	if s2.Reloads() != 1 || !s2.Resident("d1") {
		t.Errorf("reloads=%d resident=%v after cold load", s2.Reloads(), s2.Resident("d1"))
	}
}

func TestStoreLRUEvictionKeepsBudget(t *testing.T) {
	g := gen.Ring(64)
	per := g.MemoryBytes()
	// Room for two rings, not three.
	s := open(t, t.TempDir(), 2*per)
	for _, d := range []string{"a", "b", "c"} {
		if err := s.PutGraph(d, d, gen.Ring(64), 1); err != nil {
			t.Fatal(err)
		}
	}
	if s.ResidentBytes() > 2*per {
		t.Errorf("resident bytes %d exceed budget %d", s.ResidentBytes(), 2*per)
	}
	if s.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions())
	}
	if s.Resident("a") {
		t.Error("least-recently-used graph a still resident")
	}
	// Evicted graphs remain servable from disk and re-enter residency,
	// displacing the new least-recently-used entry (b).
	if _, err := s.GetGraph("a"); err != nil {
		t.Fatalf("evicted graph not servable: %v", err)
	}
	if !s.Resident("a") || s.Resident("b") {
		t.Errorf("after reload: resident(a)=%v resident(b)=%v", s.Resident("a"), s.Resident("b"))
	}
	if s.ResidentBytes() > 2*per {
		t.Errorf("resident bytes %d exceed budget after reload", s.ResidentBytes())
	}
}

func TestStoreOversizedGraphServedUncached(t *testing.T) {
	s := open(t, t.TempDir(), 8) // smaller than any graph
	if err := s.PutGraph("big", "big", gen.Ring(128), 1); err != nil {
		t.Fatal(err)
	}
	if s.Resident("big") || s.ResidentBytes() != 0 {
		t.Error("graph larger than the whole budget was admitted")
	}
	if _, err := s.GetGraph("big"); err != nil {
		t.Fatalf("oversized graph not servable: %v", err)
	}
}

func TestStoreCorruptBlobDropped(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if err := s.PutGraph("d1", "g", gen.Ring(16), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: the CRC32 footer must catch it.
	path := s.graphPath("d1")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	if _, err := s2.GetGraph("d1"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt blob error = %v, want ErrCorrupt", err)
	}
	// The blob and every trace of it are gone, so re-upload can heal.
	if s2.Has("d1") {
		t.Error("corrupt graph still in the catalog")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt blob file not removed")
	}

	// A third open must not resurrect it from a stale manifest.
	s3 := open(t, dir, 0)
	if s3.Has("d1") {
		t.Error("corrupt graph resurrected on reopen")
	}
}

func TestStoreForeignFormatBlobKept(t *testing.T) {
	dir := t.TempDir()
	s0 := open(t, dir, 0)
	if err := s0.PutGraph("d1", "g", gen.Ring(16), 1); err != nil {
		t.Fatal(err)
	}
	if err := s0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s0.graphPath("d1"), []byte("NOTAGRPH????????"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, 0) // fresh residency: the next Get must hit the blob
	_, err := s.GetGraph("d1")
	if err == nil || !errors.Is(err, graph.ErrBadMagic) {
		t.Fatalf("foreign blob error = %v, want ErrBadMagic", err)
	}
	// Format mismatch is not bit rot: the blob stays for inspection.
	if !s.Has("d1") {
		t.Error("foreign-format blob was dropped")
	}
}

func TestStoreOrderArtifacts(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	perm := order.Identity(16)
	perm[0], perm[1] = 1, 0

	if _, ok := s.GetOrder("d1", "gorder", "abcd", 16); ok {
		t.Fatal("hit on an empty store")
	}
	if s.Misses() != 1 {
		t.Errorf("misses = %d, want 1", s.Misses())
	}
	if err := s.PutOrder("d1", "gorder", "abcd", perm); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetOrder("d1", "gorder", "abcd", 16)
	if !ok || got[0] != 1 || got[1] != 0 {
		t.Fatalf("artifact hit = %v, perm prefix %v", ok, got[:2])
	}
	if s.Hits() != 1 {
		t.Errorf("hits = %d, want 1", s.Hits())
	}
	// Wrong expected length invalidates rather than serving a
	// mismatched permutation.
	if _, ok := s.GetOrder("d1", "gorder", "abcd", 8); ok {
		t.Fatal("length-mismatched artifact served")
	}
	if _, ok := s.GetOrder("d1", "gorder", "abcd", 16); ok {
		t.Fatal("invalidated artifact served again")
	}

	// Survives a restart.
	if err := s.PutOrder("d1", "rcm", "ffff", perm); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Orders whose graph is gone are reconciled away on open; register
	// the graph so the artifact survives.
	s2 := open(t, dir, 0)
	if _, ok := s2.GetOrder("d1", "rcm", "ffff", 16); ok {
		t.Fatal("artifact for an unknown graph survived reconciliation")
	}

	// With the graph present, artifacts persist across restarts.
	s3 := open(t, dir, 0)
	if err := s3.PutGraph("d2", "g", gen.Ring(16), 1); err != nil {
		t.Fatal(err)
	}
	if err := s3.PutOrder("d2", "rcm", "ffff", perm); err != nil {
		t.Fatal(err)
	}
	s3.Close()
	s4 := open(t, dir, 0)
	if _, ok := s4.GetOrder("d2", "rcm", "ffff", 16); !ok {
		t.Fatal("artifact did not survive restart")
	}

	// A corrupted artifact file is detected and recomputation forced.
	file := filepath.Join(dir, ordersDirName, orderFileName("d2", "rcm", "ffff"))
	if err := os.WriteFile(file, []byte("5\n4\n3\n2\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s4.GetOrder("d2", "rcm", "ffff", 16); ok {
		t.Fatal("artifact with a wrong checksum served")
	}
}

// TestStoreColdWarm is the CI smoke: a generated graph's ordering
// artifact is computed once (cold: miss, then persisted) and served
// from the store on the warm pass, across a store reopen.
func TestStoreColdWarm(t *testing.T) {
	dir := t.TempDir()
	g := gen.BarabasiAlbert(500, 4, 7)
	perm := order.Identity(g.NumNodes())

	s := open(t, dir, 0)
	if err := s.PutGraph("digest", "social", g, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetOrder("digest", "gorder", "k1", g.NumNodes()); ok {
		t.Fatal("cold pass hit")
	}
	if err := s.PutOrder("digest", "gorder", "k1", perm); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	if _, err := s2.GetGraph("digest"); err != nil {
		t.Fatalf("warm pass graph load: %v", err)
	}
	if _, ok := s2.GetOrder("digest", "gorder", "k1", g.NumNodes()); !ok {
		t.Fatal("warm pass missed the persisted artifact")
	}
	if s2.Hits() != 1 || s2.Misses() != 0 || s2.Reloads() != 1 {
		t.Errorf("warm pass counters: hits=%d misses=%d reloads=%d",
			s2.Hits(), s2.Misses(), s2.Reloads())
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	write := func(content string) error {
		return WriteFileAtomic(path, 0o644, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
	}
	if err := write("first"); err != nil {
		t.Fatal(err)
	}
	if err := write("second"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "second" {
		t.Fatalf("content = %q, %v", data, err)
	}
	// A failing writer leaves the previous content and no temp litter.
	boom := errors.New("boom")
	err = WriteFileAtomic(path, 0o644, func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("writer error not propagated: %v", err)
	}
	data, _ = os.ReadFile(path)
	if string(data) != "second" {
		t.Errorf("failed write clobbered the file: %q", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

func TestStoreResultArtifacts(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	blob := []byte("GQR1 pretend-encoded-pagerank-result")

	// Results for unregistered graphs are refused: a result must never
	// outlive (or predate) the graph it describes.
	if err := s.PutResult("d1", "pr", "abcd", blob); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("orphan result error = %v, want ErrUnknownGraph", err)
	}
	if err := s.PutGraph("d1", "g", gen.Ring(16), 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetResult("d1", "pr", "abcd"); ok {
		t.Fatal("hit on an empty result store")
	}
	if s.ResultMisses() != 1 {
		t.Errorf("result misses = %d, want 1", s.ResultMisses())
	}
	if err := s.PutResult("d1", "pr", "abcd", blob); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetResult("d1", "pr", "abcd")
	if !ok || string(got) != string(blob) {
		t.Fatalf("round trip = %v, %q", ok, got)
	}
	if s.ResultHits() != 1 || s.ResultCount() != 1 {
		t.Errorf("hits=%d count=%d, want 1,1", s.ResultHits(), s.ResultCount())
	}

	// Survives a restart byte for byte.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 0)
	got, ok = s2.GetResult("d1", "pr", "abcd")
	if !ok || string(got) != string(blob) {
		t.Fatalf("restart round trip = %v, %q", ok, got)
	}

	// A corrupted result blob is dropped so the caller recomputes; the
	// file is removed and no reopen resurrects the record.
	file := filepath.Join(dir, resultsDirName, resultFileName("d1", "pr", "abcd"))
	if err := os.WriteFile(file, []byte("bitrot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.GetResult("d1", "pr", "abcd"); ok {
		t.Fatal("corrupt result served")
	}
	if _, err := os.Stat(file); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt result file not removed")
	}
	if s2.ResultCount() != 0 {
		t.Errorf("result count = %d after corrupt drop", s2.ResultCount())
	}
	s2.Close()
	s3 := open(t, dir, 0)
	if _, ok := s3.GetResult("d1", "pr", "abcd"); ok {
		t.Fatal("corrupt result resurrected on reopen")
	}

	// Re-put heals, and dropping the graph takes its results with it.
	if err := s3.PutResult("d1", "pr", "abcd", blob); err != nil {
		t.Fatal(err)
	}
	s3.dropGraph("d1")
	if s3.ResultCount() != 0 {
		t.Errorf("results survived their graph: count = %d", s3.ResultCount())
	}
}

func TestStoreLatestOrder(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if _, _, ok := s.LatestOrder("d1", ""); ok {
		t.Fatal("latest order on an empty store")
	}
	perm := order.Identity(16)
	if err := s.PutOrder("d1", "rcm", "aaaa", perm); err != nil {
		t.Fatal(err)
	}
	if err := s.PutOrder("d1", "gorder", "bbbb", perm); err != nil {
		t.Fatal(err)
	}
	if err := s.PutOrder("other", "slashburn", "cccc", perm); err != nil {
		t.Fatal(err)
	}
	// Touching an artifact makes it the latest; other graphs' artifacts
	// never leak in.
	if _, ok := s.GetOrder("d1", "rcm", "aaaa", 16); !ok {
		t.Fatal("artifact gone")
	}
	if m, k, ok := s.LatestOrder("d1", ""); !ok || m != "rcm" || k != "aaaa" {
		t.Fatalf("latest = %s/%s %v, want rcm/aaaa", m, k, ok)
	}
	// Method filter pins the scan to that method's artifacts.
	if m, k, ok := s.LatestOrder("d1", "gorder"); !ok || m != "gorder" || k != "bbbb" {
		t.Fatalf("latest gorder = %s/%s %v, want gorder/bbbb", m, k, ok)
	}
	if _, _, ok := s.LatestOrder("d1", "slashburn"); ok {
		t.Fatal("method filter leaked another graph's artifact")
	}
}

// A PutOrder that replaces an artifact under a reader is not
// corruption: every GetOrder racing the replacements returns one of the
// two permutations, and the artifact is never dropped.
func TestOrderReplaceRacingReads(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	const n = 5000
	a, b := order.Identity(n), order.Identity(n)
	b[0], b[1] = 1, 0
	if err := s.PutOrder("d1", "gorder", "abcd", a); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			p := a
			if i%2 == 0 {
				p = b
			}
			if err := s.PutOrder("d1", "gorder", "abcd", p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var bad string
	for reading := true; reading && bad == ""; {
		select {
		case <-done:
			reading = false
		default:
		}
		got, ok := s.GetOrder("d1", "gorder", "abcd", n)
		switch {
		case !ok:
			bad = "a replaced artifact was dropped as corrupt"
		case got[0] != 0 && got[0] != 1:
			bad = fmt.Sprintf("read a permutation starting %d, neither of the two written", got[0])
		}
	}
	<-done
	if bad != "" {
		t.Fatal(bad)
	}
}
