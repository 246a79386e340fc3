package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
)

func TestLineageAppendAndResolve(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	g1, g2 := gen.Ring(8), gen.Ring(12)
	v, err := s.AppendVersion("social", "d1", g1, 10)
	if err != nil || v != 1 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	v, err = s.AppendVersion("social", "d2", g2, 0)
	if err != nil || v != 2 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	// Replaying the tip digest is a no-op.
	v, err = s.AppendVersion("social", "d2", g2, 0)
	if err != nil || v != 2 {
		t.Fatalf("idempotent append v=%d err=%v", v, err)
	}

	digest, resolved, latest, err := s.ResolveVersion("social", 0)
	if err != nil || digest != "d2" || resolved != 2 || latest != 2 {
		t.Fatalf("latest = %s v%d/%d err=%v", digest, resolved, latest, err)
	}
	digest, resolved, _, err = s.ResolveVersion("social", 1)
	if err != nil || digest != "d1" || resolved != 1 {
		t.Fatalf("pinned = %s v%d err=%v", digest, resolved, err)
	}
	if _, _, _, err := s.ResolveVersion("social", 3); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("v3 err = %v", err)
	}
	if _, _, _, err := s.ResolveVersion("nope", 0); !errors.Is(err, ErrUnknownLineage) {
		t.Fatalf("unknown lineage err = %v", err)
	}

	info, ok := s.Lineage("social")
	if !ok || len(info.Versions) != 2 {
		t.Fatalf("lineage info %+v ok=%v", info, ok)
	}
	if info.Versions[0].Digest != "d1" || info.Versions[1].Digest != "d2" ||
		info.Versions[1].Nodes != 12 {
		t.Fatalf("version metadata %+v", info.Versions)
	}
	// The name alias follows the tip (upload/registry paths read it).
	if s.Names()["social"] != "d2" {
		t.Fatalf("name alias = %q, want d2", s.Names()["social"])
	}
}

func TestPutGraphExtendsLineage(t *testing.T) {
	// Re-uploading different content under an existing name is a new
	// version, not a silent alias re-point.
	s := open(t, t.TempDir(), 0)
	if err := s.PutGraph("d1", "g", gen.Ring(8), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.PutGraph("d2", "g", gen.Ring(9), 1); err != nil {
		t.Fatal(err)
	}
	info, ok := s.Lineage("g")
	if !ok || len(info.Versions) != 2 || info.Versions[1].Digest != "d2" {
		t.Fatalf("lineage after re-upload: %+v ok=%v", info, ok)
	}
}

func TestLineageSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if _, err := s.AppendVersion("g", "d1", gen.Ring(8), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendVersion("g", "d2", gen.Ring(12), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SetQuality("g", Quality{
		Method: "gorder", OptKey: "abcd", OptionsJSON: `{"window":5}`, Window: 5,
		BaseF: 100, BaseEdges: 50, CurF: 90, CurEdges: 55,
		CleanNodes: 8, Repairs: 1, Dirty: []graph.NodeID{3, 4},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	info, ok := s2.Lineage("g")
	if !ok || len(info.Versions) != 2 {
		t.Fatalf("lineage lost across restart: %+v ok=%v", info, ok)
	}
	q, ok := s2.GetQuality("g")
	if !ok || q.Method != "gorder" || q.CurF != 90 || q.CleanNodes != 8 ||
		q.Repairs != 1 || len(q.Dirty) != 2 || q.OptionsJSON != `{"window":5}` {
		t.Fatalf("quality lost across restart: %+v ok=%v", q, ok)
	}
	if d := q.Decay(); d < 0.81 || d > 0.82 { // (90/55)/(100/50)
		t.Fatalf("decay = %v", d)
	}
}

func TestQualityDirtyCapOverflow(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if _, err := s.AppendVersion("g", "d1", gen.Ring(8), 0); err != nil {
		t.Fatal(err)
	}
	dirty := make([]graph.NodeID, MaxDirtyTracked+10)
	for i := range dirty {
		dirty[i] = graph.NodeID(i)
	}
	if err := s.SetQuality("g", Quality{Method: "gorder", Dirty: dirty}); err != nil {
		t.Fatal(err)
	}
	q, _ := s.GetQuality("g")
	if !q.DirtyOverflow || len(q.Dirty) != MaxDirtyTracked {
		t.Fatalf("overflow=%v len=%d", q.DirtyOverflow, len(q.Dirty))
	}
	if err := s.SetQuality("nope", Quality{}); !errors.Is(err, ErrUnknownLineage) {
		t.Fatalf("quality on unknown lineage err = %v", err)
	}
}

// A corrupt tip blob heals the lineage to the previous version — not
// to nothing. The name follows, the stale quality record is dropped,
// and the surviving version keeps serving.
func TestLineageCorruptTipHealsToPrevious(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	g1, g2 := gen.Ring(8), gen.Ring(12)
	if _, err := s.AppendVersion("g", "d1", g1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendVersion("g", "d2", g2, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SetQuality("g", Quality{Method: "gorder", CurF: 9}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the tip blob (keeping the magic so it reads as a damaged
	// gorder blob, not a foreign file) and force a disk read.
	blobPath := filepath.Join(dir, graphsDirName, "d2")
	blob, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(blobPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	if rg, ok := s.resident["d2"]; ok {
		s.residentBytes -= rg.bytes
		delete(s.resident, "d2")
	}
	s.mu.Unlock()
	if _, err := s.GetGraph("d2"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt tip err = %v", err)
	}

	info, ok := s.Lineage("g")
	if !ok || len(info.Versions) != 1 || info.Versions[0].Digest != "d1" {
		t.Fatalf("lineage after corrupt tip: %+v ok=%v", info, ok)
	}
	if s.Names()["g"] != "d1" {
		t.Fatalf("name points at %q, want healed tip d1", s.Names()["g"])
	}
	if _, ok := s.GetQuality("g"); ok {
		t.Fatal("stale quality record survived the healed tip")
	}
	if got, err := s.GetGraph("d1"); err != nil || !g1.Equal(got) {
		t.Fatalf("previous version unusable after heal: %v", err)
	}
	// v1 left residency when v2 superseded it; as the healed tip it is
	// admitted again.
	if !s.Resident("d1") || s.ResidentBytes() != g1.MemoryBytes() {
		t.Fatalf("healed tip not re-admitted: resident=%v bytes=%d", s.Resident("d1"), s.ResidentBytes())
	}
	digest, resolved, latest, err := s.ResolveVersion("g", 0)
	if err != nil || digest != "d1" || resolved != 1 || latest != 1 {
		t.Fatalf("resolve after heal = %s v%d/%d err=%v", digest, resolved, latest, err)
	}
}

// Same healing on the restart path: a tip blob missing at Open time
// truncates the lineage to the last version whose blob survives.
func TestLineageOpenHealsMissingTip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if _, err := s.AppendVersion("g", "d1", gen.Ring(8), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendVersion("g", "d2", gen.Ring(12), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendVersion("g", "d3", gen.Ring(16), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, graphsDirName, "d3")); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	info, ok := s2.Lineage("g")
	if !ok || len(info.Versions) != 2 || info.Versions[1].Digest != "d2" {
		t.Fatalf("lineage after missing tip: %+v ok=%v", info, ok)
	}
	if s2.Names()["g"] != "d2" {
		t.Fatalf("name points at %q, want d2", s2.Names()["g"])
	}
	// A middle version vanishing closes the hole but keeps the tip.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, graphsDirName, "d1")); err != nil {
		t.Fatal(err)
	}
	s3 := open(t, dir, 0)
	info, ok = s3.Lineage("g")
	if !ok || len(info.Versions) != 1 || info.Versions[0].Digest != "d2" {
		t.Fatalf("lineage after missing middle: %+v ok=%v", info, ok)
	}
	if s3.Names()["g"] != "d2" {
		t.Fatalf("name points at %q, want d2", s3.Names()["g"])
	}
}

func TestOrdersFor(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	perm := order.Identity(8)
	for _, k := range []OrderKey{{"rcm", "kk"}, {"gorder", "aa"}, {"gorder", "bb"}} {
		if err := s.PutOrder("d1", k.Method, k.OptKey, perm); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutOrder("d2", "gorder", "aa", perm); err != nil {
		t.Fatal(err)
	}
	got := s.OrdersFor("d1")
	want := []OrderKey{{"gorder", "aa"}, {"gorder", "bb"}, {"rcm", "kk"}}
	if len(got) != len(want) {
		t.Fatalf("OrdersFor = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OrdersFor = %v, want %v", got, want)
		}
	}
}

// LatestOrder tie-breaking is deterministic: equal LastAccess falls
// to Added, equal both fall to the file name. Records are manipulated
// directly — wall-clock writes can't reproduce exact ties reliably.
func TestLatestOrderTieBreaking(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	perm := order.Identity(8)
	for _, k := range []OrderKey{{"amethod", "k1"}, {"bmethod", "k2"}, {"cmethod", "k3"}} {
		if err := s.PutOrder("d1", k.Method, k.OptKey, perm); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	later := t0.Add(time.Hour)
	s.mu.Lock()
	for file, rec := range s.man.Orders {
		rec.LastAccess, rec.Added = t0, t0
		if rec.Method == "bmethod" {
			rec.Added = later
		}
		_ = file
	}
	s.mu.Unlock()
	// Equal LastAccess everywhere: the newest Added wins.
	if m, _, ok := s.LatestOrder("d1", ""); !ok || m != "bmethod" {
		t.Fatalf("added tie-break chose %q, want bmethod", m)
	}
	// Equal LastAccess and Added: the greatest file name wins —
	// cmethod sorts after amethod in the artifact naming scheme.
	s.mu.Lock()
	for _, rec := range s.man.Orders {
		rec.Added = t0
	}
	s.mu.Unlock()
	if m, _, ok := s.LatestOrder("d1", ""); !ok || m != "cmethod" {
		t.Fatalf("file-name tie-break chose %q, want cmethod", m)
	}
	// LastAccess still dominates both.
	s.mu.Lock()
	for _, rec := range s.man.Orders {
		if rec.Method == "amethod" {
			rec.LastAccess = later
		}
	}
	s.mu.Unlock()
	if m, _, ok := s.LatestOrder("d1", ""); !ok || m != "amethod" {
		t.Fatalf("last-access chose %q, want amethod", m)
	}
}
