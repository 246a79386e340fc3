package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/order"
)

// scanLatestOrder is LatestOrder as a scan over every artifact record:
// the oracle the digest index must agree with.
func scanLatestOrder(s *Store, digest, method string) (string, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var bestFile string
	var best *orderRec
	for file, rec := range s.man.Orders {
		if rec.Graph != digest || (method != "" && rec.Method != method) {
			continue
		}
		if best == nil ||
			rec.LastAccess.After(best.LastAccess) ||
			(rec.LastAccess.Equal(best.LastAccess) &&
				(rec.Added.After(best.Added) ||
					(rec.Added.Equal(best.Added) && file > bestFile))) {
			best, bestFile = rec, file
		}
	}
	if best == nil {
		return "", "", false
	}
	return best.Method, best.OptKey, true
}

// scanOrdersFor is OrdersFor as a scan over every artifact record.
func scanOrdersFor(s *Store, digest string) []OrderKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []OrderKey
	for _, rec := range s.man.Orders {
		if rec.Graph == digest {
			out = append(out, OrderKey{Method: rec.Method, OptKey: rec.OptKey})
		}
	}
	slices.SortFunc(out, func(a, b OrderKey) int {
		if c := strings.Compare(a.Method, b.Method); c != 0 {
			return c
		}
		return strings.Compare(a.OptKey, b.OptKey)
	})
	return out
}

// TestOrderIndexMatchesScan: across a 500-version lineage whose
// artifacts are written, replaced, read (moving LastAccess), dropped as
// corrupt, and dropped with their corrupt graph, LatestOrder and
// OrdersFor answer exactly what a scan of every record answers — and so
// does the index Open rebuilds.
func TestOrderIndexMatchesScan(t *testing.T) {
	const versions = 500
	dir := t.TempDir()
	s := open(t, dir, 0)
	// The lineage is written straight into the manifest, saved once:
	// 500 appends would each rewrite it.
	var blob bytes.Buffer
	if err := gen.Ring(8).WriteBinary(&blob); err != nil {
		t.Fatal(err)
	}
	digests := make([]string, versions)
	s.mu.Lock()
	for i := range digests {
		digests[i] = fmt.Sprintf("v%03d", i+1)
		if err := os.WriteFile(s.graphPath(digests[i]), blob.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		s.man.Graphs[digests[i]] = &graphRec{Name: "g", Nodes: 8, Edges: 8, FileBytes: int64(blob.Len()),
			CRC32: fmt.Sprintf("%08x", crc32.ChecksumIEEE(blob.Bytes()))}
	}
	s.man.Lineages["g"] = &lineageRec{Versions: digests}
	err := s.saveManifestLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	methods := []string{"gorder", "hubsort", "rcm"}
	perm := order.Identity(8)
	check := func(when string) {
		t.Helper()
		for _, d := range append(digests, "never-stored") {
			if got, want := s.OrdersFor(d), scanOrdersFor(s, d); !slices.Equal(got, want) {
				t.Fatalf("%s: OrdersFor(%s) = %v, scan says %v", when, d, got, want)
			}
			for _, m := range append([]string{""}, methods...) {
				gm, gk, gok := s.LatestOrder(d, m)
				wm, wk, wok := scanLatestOrder(s, d, m)
				if gm != wm || gk != wk || gok != wok {
					t.Fatalf("%s: LatestOrder(%s, %q) = %s/%s %v, scan says %s/%s %v",
						when, d, m, gm, gk, gok, wm, wk, wok)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(3))
	// Most artifacts sit on recent versions, as an edit stream leaves
	// them; older ones get a few.
	pick := func() string {
		if rng.Intn(4) == 0 {
			return digests[rng.Intn(versions)]
		}
		return digests[versions-1-rng.Intn(20)]
	}
	for step := 0; step < 600; step++ {
		d := pick()
		m, k := methods[rng.Intn(len(methods))], fmt.Sprintf("k%d", rng.Intn(2))
		switch op := rng.Intn(10); {
		case op < 6:
			if err := s.PutOrder(d, m, k, perm); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			s.GetOrder(d, m, k, 8)
		case op < 9:
			// A damaged artifact is dropped by the read that finds it.
			path := filepath.Join(dir, ordersDirName, orderFileName(d, m, k))
			if _, err := os.Stat(path); err == nil {
				if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				if _, ok := s.GetOrder(d, m, k, 8); ok {
					t.Fatalf("step %d: corrupt artifact served", step)
				}
			}
		default:
			// A damaged graph is dropped with every artifact it had.
			if !s.Has(d) || s.IsTip(d) {
				continue
			}
			if err := os.WriteFile(s.graphPath(d), []byte("GORDCSR2 torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetGraph(d); err == nil {
				t.Fatalf("step %d: corrupt graph served", step)
			}
		}
		if step%150 == 0 {
			check(fmt.Sprintf("step %d", step))
		}
	}
	check("end")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open(t, dir, 0)
	check("after reopen")
}
