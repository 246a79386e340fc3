package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gorder/internal/gen"
)

func TestReadGraphFromSniffsBinary(t *testing.T) {
	g := gen.Ring(10)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraphBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("binary sniff round trip failed")
	}
}

func TestReadGraphFromSniffsText(t *testing.T) {
	text := "# comment\n0 1\n1 2\n"
	h, err := ReadGraphBytes([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 3 || h.NumEdges() != 2 {
		t.Fatalf("sniffed text graph n=%d m=%d", h.NumNodes(), h.NumEdges())
	}
}

func TestReadGraphFromRejectsGarbage(t *testing.T) {
	if _, err := ReadGraphBytes([]byte("completely bogus")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadGraphFile(t *testing.T) {
	g := gen.Ring(6)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	h, err := ReadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("file round trip failed")
	}
	if _, err := ReadGraph(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}
