package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList cross-checks the edge-list parser at several worker
// counts against one worker on arbitrary bytes: they must accept or
// reject together, with byte-identical error messages (same global
// line numbers), and on acceptance produce bit-identical graphs, so
// chunk boundaries land everywhere — mid-line, mid-number, inside
// comments, on CRLF pairs.
func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"",
		"0 1\n",
		"0 1",
		"# comment\n% comment\n\n0 1\n1 2\n2 0\n",
		"  7\t8\n8 9\r\n9 7\r\n",
		"a b\n",
		"0\n",
		"0 x\n",
		"0 4294967296\n",
		"99999999999999999999 1\n",
		"1 2 trailing junk\n",
		"\r\n\r\n0 1\r\n",
		strings.Repeat("12345 67890\n", 257),
		"# only comments\n% nothing else\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The format's vertex count is max(endpoint)+1, so a single
		// 8-digit line legitimately asks for hundreds of MB of CSR
		// arrays. Cap endpoint width to keep fuzzing exploring parser
		// and chunking logic instead of exhausting memory; wider
		// fields still get coverage up to the cap via the seeds.
		digits := 0
		for _, c := range data {
			if c >= '0' && c <= '9' {
				if digits++; digits > 6 {
					t.Skip("endpoint magnitude capped for fuzzing")
				}
			} else {
				digits = 0
			}
		}
		want, serialErr := parseWith(1, data)
		for _, workers := range []int{2, 3, 5} {
			got, parallelErr := parseWith(workers, data)
			if (serialErr == nil) != (parallelErr == nil) {
				t.Fatalf("%d workers: serial err %v, parallel err %v", workers, serialErr, parallelErr)
			}
			if serialErr != nil {
				if serialErr.Error() != parallelErr.Error() {
					t.Fatalf("%d workers: error mismatch: serial %q, parallel %q",
						workers, serialErr, parallelErr)
				}
				continue
			}
			if !sameGraph(want, got) {
				t.Fatalf("%d workers: parallel parse produced a different graph", workers)
			}
		}
	})
}

// FuzzReadBinaryBytes feeds arbitrary bytes to the binary CSR decoder
// (both format versions): it must return an error or a graph, never
// panic or allocate past what the input can back, and an accepted
// graph must survive a WriteBinary round trip unchanged.
func FuzzReadBinaryBytes(f *testing.F) {
	var v1 bytes.Buffer
	if err := diamond().WriteBinary(&v1); err != nil {
		f.Fatal(err)
	}
	v0 := append(append([]byte{}, binaryMagic[:]...), v1.Bytes()[8:v1.Len()-4]...)
	f.Add(v1.Bytes())
	f.Add(v0)
	f.Add(hugeEdgeCountV0())
	f.Add(binaryMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinaryBytes(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := ReadBinaryBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded graph rejected: %v", err)
		}
		if !sameGraph(g, h) {
			t.Fatal("binary round trip changed the graph")
		}
	})
}
