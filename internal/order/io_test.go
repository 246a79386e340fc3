package order

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"gorder/internal/graph"
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

// readPermutationScanner is ReadPermutation as it was written over
// bufio.Scanner: the oracle for results and error text.
func readPermutationScanner(r io.Reader) (Permutation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var p Permutation
	lineNo := 0
	for sc.Scan() {
		lineNo++
		txt := sc.Text()
		if txt == "" {
			continue
		}
		v, err := strconv.ParseUint(txt, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("order: line %d: %w", lineNo, err)
		}
		p = append(p, graph.NodeID(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("order: reading permutation: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// TestReadPermutationMatchesScanner: the in-place parser accepts what
// the scanner-based reader accepted, yields the same permutation, and
// fails with the same error text — on hand-picked edge cases and on
// random mutations of valid files, whole or through a trickling reader.
func TestReadPermutationMatchesScanner(t *testing.T) {
	cases := []string{
		"", "\n", "0", "0\n", "1\n0", "1\r\n0\r\n", "1\n\n0\n\n", "\r\n0\r", "00000000000000001\n0\n",
		"0\nx\n", "0\n0\n", "0\n5\n", "-1\n", "+0\n", " 0\n", "0 \n", "4294967295\n", "4294967296\n",
		"99999999999\n", "0\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n", "1\n0\r\r\n",
		strings.Repeat("7", 1<<20-1) + "\n", strings.Repeat("7", 1<<20) + "\n", strings.Repeat("0", 1<<20+1),
		"0\n" + strings.Repeat("\n", 70000) + "1\n",
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		var buf bytes.Buffer
		Permutation(randPerm(rng, 1+rng.Intn(3000))).WriteTo(&buf)
		b := buf.Bytes()
		for j := rng.Intn(4); j > 0; j-- {
			const alphabet = "0123456789\n\r x"
			b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
		}
		cases = append(cases, string(b))
	}
	for i, in := range cases {
		want, wantErr := readPermutationScanner(strings.NewReader(in))
		for _, r := range []io.Reader{strings.NewReader(in), &trickle{s: in, step: 1 + i%7}} {
			got, err := ReadPermutation(r)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("case %d (%q...): err %v, scanner says %v", i, in[:min(len(in), 40)], err, wantErr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("case %d: got %d IDs, scanner says %d", i, len(got), len(want))
			}
		}
	}
}

// trickle hands out s a few bytes per Read, so lines straddle reads.
type trickle struct {
	s    string
	step int
}

func (t *trickle) Read(b []byte) (int, error) {
	if t.s == "" {
		return 0, io.EOF
	}
	k := copy(b[:min(len(b), t.step)], t.s)
	t.s = t.s[k:]
	return k, nil
}

// Reading a stored artifact allocates about the permutation itself:
// the slice is sized from the reader's length, lines are parsed in
// place, and the only other allocation is the fixed read buffer.
func TestReadPermutationAllocatesTheSlice(t *testing.T) {
	const n = 100_000
	var buf bytes.Buffer
	Permutation(randPerm(rand.New(rand.NewSource(1)), n)).WriteTo(&buf)
	data := buf.Bytes()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		if _, err := ReadPermutation(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRead := float64(after.TotalAlloc-before.TotalAlloc) / runs
	slice := float64(4 * n)
	t.Logf("%.0f bytes allocated per read of a %d-vertex permutation (slice %.0f bytes)", perRead, n, slice)
	if perRead > 1.1*slice+64<<10 {
		t.Fatalf("%.0f bytes per read, want about the %.0f-byte slice", perRead, slice)
	}
}

// BenchmarkReadPermutation reads a 100k-vertex artifact as the store
// does; compare B/op with the 400 KB slice.
func BenchmarkReadPermutation(b *testing.B) {
	var buf bytes.Buffer
	Permutation(randPerm(rand.New(rand.NewSource(1)), 100_000)).WriteTo(&buf)
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadPermutation(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
