package order

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadPermutation feeds arbitrary bytes to the permutation file
// reader: it must return an error or a permutation, never panic, and
// an accepted permutation must validate and survive a WriteTo round
// trip unchanged.
func FuzzReadPermutation(f *testing.F) {
	seeds := []string{
		"2\n0\n1\n",
		"0\n0\n",
		"0\n5\n",
		"4294967296\n",
		"\n1\n\n0\n\n",
		strings.Repeat("7", 1<<20+1) + "\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPermutation(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted an invalid permutation: %v", err)
		}
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		q, err := ReadPermutation(&buf)
		if err != nil {
			t.Fatalf("re-reading the written permutation: %v", err)
		}
		if len(q) != len(p) {
			t.Fatalf("round trip length %d, want %d", len(q), len(p))
		}
		for i := range p {
			if p[i] != q[i] {
				t.Fatalf("round trip differs at %d: %d, want %d", i, q[i], p[i])
			}
		}
	})
}
