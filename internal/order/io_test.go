package order

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPermutationRoundTrip(t *testing.T) {
	p := Permutation{2, 0, 1, 3}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPermutation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if p[i] != q[i] {
			t.Fatalf("round trip = %v, want %v", q, p)
		}
	}
}

func TestReadPermutationRejects(t *testing.T) {
	cases := map[string]string{
		"non-numeric":  "0\nx\n",
		"duplicate":    "0\n0\n",
		"out of range": "0\n5\n",
		"negative":     "-1\n",
	}
	for name, in := range cases {
		if _, err := ReadPermutation(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestWritePermutationRoundTrip(t *testing.T) {
	p := Permutation{3, 1, 4, 0, 2}
	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	q, err := ReadPermutation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if p[i] != q[i] {
			t.Fatalf("round trip = %v, want %v", q, p)
		}
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(b []byte) (int, error) {
	if w.after -= len(b); w.after <= 0 {
		return 0, errors.New("disk full")
	}
	return len(b), nil
}

func TestWritePermutationPropagatesWriteError(t *testing.T) {
	p := Permutation(Identity(10000))
	if _, err := p.WriteTo(&failWriter{after: 16}); err == nil {
		t.Fatal("write error swallowed")
	}
}

func TestReadPermutationShortFile(t *testing.T) {
	// A valid 4-vertex file truncated after two lines: the surviving
	// values reference positions past the truncated length, so the
	// validator must reject it rather than yield a 2-vertex "perm".
	full := "2\n0\n1\n3\n"
	if _, err := ReadPermutation(strings.NewReader(full)); err != nil {
		t.Fatalf("full file rejected: %v", err)
	}
	if _, err := ReadPermutation(strings.NewReader(full[:4])); err == nil {
		t.Fatal("truncated file accepted")
	}
}

type failReader struct{ r io.Reader }

func (f *failReader) Read(b []byte) (int, error) {
	n, err := f.r.Read(b)
	if err == io.EOF {
		err = errors.New("connection reset")
	}
	return n, err
}

func TestReadPermutationPropagatesReadError(t *testing.T) {
	if _, err := ReadPermutation(&failReader{strings.NewReader("0\n1\n")}); err == nil {
		t.Fatal("read error swallowed")
	}
}

func TestReadPermutationSkipsBlankLines(t *testing.T) {
	p, err := ReadPermutation(strings.NewReader("1\n\n0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 || p[0] != 1 || p[1] != 0 {
		t.Fatalf("parsed %v", p)
	}
}

func TestQuickPermutationIORoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		p := Permutation(randPerm(rng, n))
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			return false
		}
		q, err := ReadPermutation(&buf)
		if err != nil || len(q) != n {
			return false
		}
		for i := range p {
			if p[i] != q[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
