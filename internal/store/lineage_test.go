package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
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
	// A bare name follows the tip.
	if meta, ok := s.Lookup("social"); !ok || meta.Digest != "d2" || meta.Version != 2 || meta.Latest != 2 {
		t.Fatalf("Lookup(social) = %+v ok=%v, want d2 v2/2", meta, ok)
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
	if err := s.SetQuality("g", "d2", Quality{
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

// readManifestKeys returns the top-level JSON objects of dir's manifest.
func readManifestKeys(t *testing.T, dir string) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// A manifest written before lineages existed records names only; it
// reopens with one one-version lineage per name, aliases included.
func TestManifestNamesOnlyMigratesToLineages(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if err := s.PutGraph("d1", "ring", gen.Ring(16), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.PutGraph("d2", "grid", gen.Grid(3, 3), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := readManifestKeys(t, dir)
	delete(m, "lineages")
	m["names"] = json.RawMessage(`{"ring":"d1","alias":"d1","grid":"d2"}`)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	for name, digest := range map[string]string{"ring": "d1", "alias": "d1", "grid": "d2"} {
		info, ok := s2.Lineage(name)
		if !ok || len(info.Versions) != 1 || info.Versions[0].Digest != digest {
			t.Errorf("lineage %q = %+v ok=%v, want one version %s", name, info, ok, digest)
		}
		if meta, ok := s2.Lookup(name); !ok || meta.Digest != digest || meta.Version != 1 || meta.Latest != 1 {
			t.Errorf("Lookup(%q) = %+v ok=%v, want %s@v1", name, meta, ok, digest)
		}
	}
}

// The names field is derivable from the lineage tips, so a saved
// manifest does not carry it.
func TestManifestSaveOmitsNames(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if _, err := s.AppendVersion("g", "d1", gen.Ring(8), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := readManifestKeys(t, dir)
	if _, ok := m["names"]; ok {
		t.Errorf("saved manifest has a names key: %s", m["names"])
	}
	if _, ok := m["lineages"]; !ok {
		t.Error("saved manifest has no lineages key")
	}
}

// A quality record describes its lineage's tip: moving the tip clears
// it, and a record computed for a superseded version is refused.
func TestQualityStaleTipRefused(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if _, err := s.AppendVersion("g", "d1", gen.Ring(8), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SetQuality("g", "d1", Quality{Method: "gorder", CurEdges: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendVersion("g", "d2", gen.Ring(12), 0); err != nil {
		t.Fatal(err)
	}
	if q, ok := s.GetQuality("g"); ok {
		t.Fatalf("d1's record %+v survived the tip move to d2", q)
	}
	if err := s.SetQuality("g", "d1", Quality{Method: "gorder", CurEdges: 8}); !errors.Is(err, ErrStaleTip) {
		t.Fatalf("record for the superseded d1: err = %v, want ErrStaleTip", err)
	}
	if err := s.SetQuality("g", "d2", Quality{Method: "gorder", CurEdges: 12}); err != nil {
		t.Fatal(err)
	}
	if q, ok := s.GetQuality("g"); !ok || q.CurEdges != 12 {
		t.Fatalf("record = %+v ok=%v, want d2's", q, ok)
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
	if err := s.SetQuality("g", "d1", Quality{Method: "gorder", Dirty: dirty}); err != nil {
		t.Fatal(err)
	}
	q, _ := s.GetQuality("g")
	if !q.DirtyOverflow || len(q.Dirty) != MaxDirtyTracked {
		t.Fatalf("overflow=%v len=%d", q.DirtyOverflow, len(q.Dirty))
	}
	if err := s.SetQuality("nope", "", Quality{}); !errors.Is(err, ErrUnknownLineage) {
		t.Fatalf("quality on unknown lineage err = %v", err)
	}
}

// A lineage's quality record is stored under fixed JSON keys: a
// record in the manifest format reads back field for field, and saving
// it again writes the same keys and values.
func TestQualityRecordJSONKeys(t *testing.T) {
	const rec = `{"method":"gorder","opt_key":"k1","options_json":"{\"window\":5}",` +
		`"window":5,"base_f":100,"base_edges":40,"base_packing":0.5,` +
		`"cur_f":90,"cur_edges":42,"cur_packing":0.25,"clean_nodes":8,` +
		`"repairs":2,"dirty":[3,1,7],"dirty_overflow":true}`
	want := Quality{
		Method: "gorder", OptKey: "k1", OptionsJSON: `{"window":5}`, Window: 5,
		BaseF: 100, BaseEdges: 40, BasePacking: 0.5,
		CurF: 90, CurEdges: 42, CurPacking: 0.25,
		CleanNodes: 8, Repairs: 2, Dirty: []graph.NodeID{3, 1, 7}, DirtyOverflow: true,
	}
	dir := t.TempDir()
	s := open(t, dir, 0)
	if _, err := s.AppendVersion("g", "d1", gen.Ring(8), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := readManifestKeys(t, dir)
	m["lineages"] = json.RawMessage(`{"g":{"versions":["d1"],"quality":` + rec + `}}`)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s = open(t, dir, 0)
	got, ok := s.GetQuality("g")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("quality = %+v ok=%v, want %+v", got, ok, want)
	}
	got.Dirty[0] = 99 // the returned record is a copy
	if again, _ := s.GetQuality("g"); again.Dirty[0] != 3 {
		t.Fatal("GetQuality aliases the stored dirty list")
	}
	if err := s.SetQuality("g", "d1", want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var lins map[string]struct {
		Quality json.RawMessage `json:"quality"`
	}
	if err := json.Unmarshal(readManifestKeys(t, dir)["lineages"], &lins); err != nil {
		t.Fatal(err)
	}
	var saved, orig map[string]any
	if err := json.Unmarshal(lins["g"].Quality, &saved); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(rec), &orig); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(saved, orig) {
		t.Fatalf("saved quality record = %s, want %s", lins["g"].Quality, rec)
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
	if err := s.SetQuality("g", "d2", Quality{Method: "gorder", CurF: 9}); err != nil {
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
	if meta, ok := s.Lookup("g"); !ok || meta.Digest != "d1" {
		t.Fatalf("name points at %q, want healed tip d1", meta.Digest)
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
	if meta, ok := s2.Lookup("g"); !ok || meta.Digest != "d2" {
		t.Fatalf("name points at %q, want d2", meta.Digest)
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
	if meta, ok := s3.Lookup("g"); !ok || meta.Digest != "d2" {
		t.Fatalf("name points at %q, want d2", meta.Digest)
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

// TestParseRef pins the version-reference grammar.
func TestParseRef(t *testing.T) {
	cases := []struct {
		ref     string
		name    string
		version int
	}{
		{"web", "web", 0},
		{"web@latest", "web", 0},
		{"web@v1", "web", 1},
		{"web@v12", "web", 12},
		{"web@v0", "web@v0", 0},
		{"web@", "web@", 0},
		{"@v1", "@v1", 0},
		{"web@vx", "web@vx", 0},
		{"a@b@v2", "a@b", 2},
	}
	for _, c := range cases {
		name, ver := parseRef(c.ref)
		if name != c.name || ver != c.version {
			t.Errorf("parseRef(%q) = (%q, %d), want (%q, %d)", c.ref, name, ver, c.name, c.version)
		}
	}
}

// Lookup resolves a digest first, then a lineage version, and reports
// where a lineage reference landed.
func TestLookupResolvesRefs(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for i, d := range []string{"d1", "d2"} {
		if _, err := s.AppendVersion("web", d, gen.Ring(8+i), 0); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		ref, digest, lineage string
		version              int
	}{
		{"d1", "d1", "", 0},
		{"web", "d2", "web", 2},
		{"web@latest", "d2", "web", 2},
		{"web@v1", "d1", "web", 1},
	}
	for _, c := range cases {
		meta, ok := s.Lookup(c.ref)
		if !ok || meta.Digest != c.digest || meta.Lineage != c.lineage || meta.Version != c.version {
			t.Errorf("Lookup(%q) = %+v ok=%v, want %s %q v%d", c.ref, meta, ok, c.digest, c.lineage, c.version)
		}
		if c.lineage != "" && meta.Latest != 2 {
			t.Errorf("Lookup(%q).Latest = %d, want 2", c.ref, meta.Latest)
		}
	}
	for _, ref := range []string{"web@v3", "nope", "nope@latest"} {
		if meta, ok := s.Lookup(ref); ok {
			t.Errorf("Lookup(%q) = %+v, want absent", ref, meta)
		}
	}
	if digest, nodes, ok := s.Stat("web@v1"); !ok || digest != "d1" || nodes != 8 {
		t.Errorf("Stat(web@v1) = %s %d %v", digest, nodes, ok)
	}
	if g, digest, ok := s.Resolve("web"); !ok || digest != "d2" || g.NumNodes() != 9 {
		t.Errorf("Resolve(web) = %s ok=%v", digest, ok)
	}
}
