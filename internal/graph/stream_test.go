package graph

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// chunkyReader returns at most max bytes per Read, exercising the
// partial-fill path of the streaming loader.
type chunkyReader struct {
	data []byte
	max  int
}

func (r *chunkyReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, fmt.Errorf("unexpected read past EOF")
	}
	n := min(min(len(p), r.max), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	if len(r.data) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// randomEdgeList renders a reproducible messy edge list: comments,
// blank lines, tabs, CRLF on some lines, no trailing newline when odd.
// It returns the text and the edges it holds.
func randomEdgeList(seed int64, n, m int) ([]byte, []Edge) {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	var edges []Edge
	b.WriteString("# header comment\n\n% konect-style comment\n")
	for i := 0; i < m; i++ {
		sep := " "
		if rng.Intn(3) == 0 {
			sep = "\t"
		}
		e := Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
		edges = append(edges, e)
		fmt.Fprintf(&b, "%d%s%d", e.From, sep, e.To)
		if rng.Intn(5) == 0 {
			b.WriteString("\r\n")
		} else {
			b.WriteString("\n")
		}
		if rng.Intn(17) == 0 {
			b.WriteString("\n# interior comment\n")
		}
	}
	data := []byte(b.String())
	if seed%2 == 1 {
		data = bytes.TrimRight(data, "\n") // exercise the unterminated final line
	}
	return data, edges
}

// TestStreamMatchesSerial: the streaming loader must produce a graph
// bit-identical to the sort oracle over the rendered edges, across
// buffer sizes that force single- and many-round parses and reader
// chunk sizes that force partial fills.
func TestStreamMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		data, edges := randomEdgeList(seed, 500, 3000)
		want := oracleParse(edges)
		for _, bufSize := range []int{4 << 10, 8 << 10, 1 << 20} {
			for _, readMax := range []int{1 << 30, 1000, 7} {
				got, err := readEdgeListStreamBuffer(&chunkyReader{data: data, max: readMax}, bufSize)
				if err != nil {
					t.Fatalf("seed %d buf %d read %d: %v", seed, bufSize, readMax, err)
				}
				if !sameGraph(got, want) {
					t.Fatalf("seed %d buf %d read %d: stream CSR differs from the oracle", seed, bufSize, readMax)
				}
			}
		}
	}
}

// TestStreamErrorLineNumbers: a bad line deep in the input must report
// its global line number, even when the error lands many buffer rounds
// in.
func TestStreamErrorLineNumbers(t *testing.T) {
	var b strings.Builder
	b.WriteString("# c\n")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&b, "%d %d\n", i%97, (i+1)%97)
	}
	b.WriteString("12 oops\n1 2\n")
	data := []byte(b.String())

	const want = "graph: line 3002: expected integer field"
	_, streamErr := readEdgeListStreamBuffer(bytes.NewReader(data), 4<<10)
	if streamErr == nil {
		t.Fatal("stream parse accepted the bad line")
	}
	if streamErr.Error() != want {
		t.Fatalf("stream error %q, want %q", streamErr, want)
	}
}

func TestStreamOverlongLine(t *testing.T) {
	data := []byte("1 2\n" + strings.Repeat("9", 10<<10)) // one 10 KiB "line"
	_, err := readEdgeListStreamBuffer(&chunkyReader{data: data, max: 512}, 4<<10)
	if err == nil || !strings.Contains(err.Error(), "streaming buffer") {
		t.Fatalf("overlong line not refused: %v", err)
	}
}

func TestStreamEmptyAndCommentOnly(t *testing.T) {
	for _, in := range []string{"", "# only comments\n\n% more\n"} {
		g, err := readEdgeListStreamBuffer(strings.NewReader(in), 4<<10)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if g.NumNodes() != 0 || g.NumEdges() != 0 {
			t.Fatalf("%q: got %d nodes %d edges", in, g.NumNodes(), g.NumEdges())
		}
	}
}

func TestStreamRejectsOversizeEndpoint(t *testing.T) {
	_, err := readEdgeListStreamBuffer(strings.NewReader("1 4294967296\n"), 4<<10)
	if err == nil || !strings.Contains(err.Error(), "NodeID") {
		t.Fatalf("oversize endpoint not refused: %v", err)
	}
}

func TestSniffBinary(t *testing.T) {
	var buf bytes.Buffer
	if err := FromEdges(3, []Edge{{0, 1}, {1, 2}}).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if !sniffBinary(buf.Bytes()) {
		t.Fatal("binary CSR bytes not recognized")
	}
	if sniffBinary([]byte("0 1\n1 2\n")) {
		t.Fatal("text edge list sniffed as binary")
	}
	if sniffBinary([]byte("GORD")) {
		t.Fatal("short prefix sniffed as binary")
	}
}

func TestReadSniffsBinary(t *testing.T) {
	for _, g := range []*Graph{FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}}), FromEdges(0, nil)} {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := Read(&chunkyReader{data: buf.Bytes(), max: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(h) {
			t.Fatalf("binary round trip of n=%d failed", g.NumNodes())
		}
	}
}

func TestReadSniffsText(t *testing.T) {
	h, err := Read(strings.NewReader("# comment\n0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 3 || h.NumEdges() != 2 {
		t.Fatalf("sniffed text graph n=%d m=%d", h.NumNodes(), h.NumEdges())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for name, in := range map[string][]byte{
		"text":             []byte("completely bogus"),
		"truncated binary": binaryMagic[:],
	} {
		if _, err := Read(bytes.NewReader(in)); err == nil {
			t.Errorf("%s garbage accepted", name)
		}
	}
}

// TestStreamParallelWorkers forces the sharded path inside each block.
func TestStreamParallelWorkers(t *testing.T) {
	forcedWorkers = 4
	defer func() { forcedWorkers = 0 }()
	data, edges := randomEdgeList(2, 300, 2000)
	got, err := readEdgeListStreamBuffer(bytes.NewReader(data), 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(got, oracleParse(edges)) {
		t.Fatal("forced-parallel stream CSR differs from the oracle")
	}
}
