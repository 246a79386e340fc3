package server

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gorder/internal/gen"
)

func TestRegistryLoadDir(t *testing.T) {
	dir := t.TempDir()
	// One text edge list, one binary CSR, one ignored extension, one
	// subdirectory.
	if err := os.WriteFile(filepath.Join(dir, "tiny.el"), []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gen.Ring(16).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ring16.bin"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.md"), []byte("# not a graph"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}

	st := openTestStore(t)
	n, err := New(Config{Store: st}).LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d graphs, want 2", n)
	}
	g, _, ok := st.Resolve("ring16")
	if !ok || g.NumNodes() != 16 {
		t.Fatalf("ring16 lookup: ok=%v", ok)
	}
	if meta, _ := st.Lookup("ring16"); meta.Name != "ring16" || meta.Version != 1 {
		t.Fatalf("ring16 is %+v, want v1 of its own lineage", meta)
	}
	if _, ok := st.Lookup("notes"); ok {
		t.Fatal("non-graph file was registered")
	}
	if got := len(st.Catalog()); got != 2 {
		t.Fatalf("catalog has %d entries, want 2", got)
	}
}

func TestRegistryLoadDirCorruptFileFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.el"), []byte("zap pow"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Store: openTestStore(t)}).LoadDir(dir); err == nil {
		t.Fatal("corrupt dataset dir loaded without error")
	}
}

func TestRegistryLoadDirVersionRefStemFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "web@v2.el"), []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t)
	if _, err := New(Config{Store: st}).LoadDir(dir); err == nil {
		t.Fatal("file stem web@v2 loaded as a lineage name")
	}
	if len(st.Lineages()) != 0 {
		t.Fatalf("lineages after a refused load: %+v", st.Lineages())
	}
}

// Every graph parsed into the store is timed into the ingest metrics;
// a dedup hit (same bytes again) stores nothing new and must not count.
func TestRegistryRecordsIngestMetrics(t *testing.T) {
	s := New(Config{Store: openTestStore(t)})
	if _, _, err := s.ingest("tiny", strings.NewReader("0 1\n1 2\n")); err != nil {
		t.Fatal(err)
	}
	if _, created, err := s.ingest("alias", strings.NewReader("0 1\n1 2\n")); err != nil || created {
		t.Fatalf("dedup upload: created=%v err=%v", created, err)
	}
	snap := s.Metrics.Snapshot()
	if snap["ingest_total"] != 1 {
		t.Errorf("ingest_total = %d, want 1 (dedup hits must not count)", snap["ingest_total"])
	}
	if snap["ingest_edges_total"] != 2 {
		t.Errorf("ingest_edges_total = %d, want 2", snap["ingest_edges_total"])
	}
	if _, ok := snap["ingest_ms_total"]; !ok {
		t.Error("ingest_ms_total missing from metrics snapshot")
	}
}

func TestRegistryRejectsEmptyName(t *testing.T) {
	s := New(Config{Store: openTestStore(t)})
	if _, _, err := s.ingest("   ", strings.NewReader("0 1\n")); err == nil {
		t.Fatal("blank name accepted")
	}
}

func TestMetricsWriteJSON(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("alpha_total")
	c.Add(3)
	g := m.Gauge("beta_depth")
	g.Set(-2)
	m.Func("gamma_func", func() int64 { return 7 })

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"alpha_total": 3`, `"beta_depth": -2`, `"gamma_func": 7`, `"uptime_seconds"`} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics JSON missing %s:\n%s", want, out)
		}
	}
	// Keys come out sorted.
	if strings.Index(out, "alpha_total") > strings.Index(out, "beta_depth") {
		t.Errorf("keys unsorted:\n%s", out)
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	m := NewMetrics()
	m.Counter("dup")
	m.Gauge("dup")
}
