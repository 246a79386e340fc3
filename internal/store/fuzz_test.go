package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadManifest feeds arbitrary bytes to the store as its
// manifest.json: Open must return an error or a usable store, never
// panic.
func FuzzLoadManifest(f *testing.F) {
	f.Add([]byte(`{"version":1,"graphs":{},"orders":{}}`))
	f.Add([]byte(`{"version":1,"graphs":{"d1":{"name":"g","nodes":3}},"lineages":{"g":{"versions":["d1"]}}}`))
	f.Add([]byte(`{"version":1,"names":{"g":"d1"}}`))
	f.Add([]byte(`{"version":1,"graphs":{"x":null}}`))
	f.Add([]byte(`{"version":1,"orders":{"x":null}}`))
	f.Add([]byte(`{"version":1,"results":{"x":null}}`))
	f.Add([]byte(`{"version":1,"lineages":{"x":null}}`))
	f.Add([]byte(`{"version":1,"lineages":{"x":{"versions":[]}}}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir})
		if err != nil {
			return
		}
		// Usable: every read of the catalog answers, and the manifest
		// writes back.
		for _, m := range s.Catalog() {
			s.Lookup(m.Digest)
			s.OrdersFor(m.Digest)
		}
		for _, l := range s.Lineages() {
			s.Lineage(l.Name)
			s.Stat(l.Name + "@latest")
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close after open: %v", err)
		}
	})
}
