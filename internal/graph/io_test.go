package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadEdgeList(t *testing.T) {
	in := `# a comment
% another comment

0 1
0	2
  1 3
3 0
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d, want 4, 4", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(3, 0) {
		t.Error("missing parsed edges")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"0", "a b", "0 x", "0 99999999999999999999"} {
		if _, err := ReadEdgeList(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadEdgeList(%q) succeeded, want error", bad)
		}
	}
}

func TestReadEdgeListRejectsOutOfRangeEndpoints(t *testing.T) {
	// NodeID is uint32: endpoints past math.MaxUint32 must be rejected,
	// not silently truncated by the NodeID(u) conversion.
	cases := map[string]string{
		"source too large": "4294967296 1\n",
		"target too large": "0 1\n1 4294967296\n",
		"way too large":    "0 1099511627776\n",
	}
	for name, in := range cases {
		_, err := ReadEdgeList(strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "NodeID range") {
			t.Errorf("%s: error %v does not mention the NodeID range", name, err)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := diamond()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Error("edge list round trip changed the graph")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := diamond()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Error("binary round trip changed the graph")
	}
}

// WriteBinary streams the arrays through a fixed buffer; the bytes must
// be the v1 layout exactly — what binary.Write of each whole array
// gives, then the CRC footer — including across buffer boundaries.
func TestWriteBinaryLayout(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 3000, 20000)
	var want bytes.Buffer
	want.Write(binaryMagicV1[:])
	binary.Write(&want, binary.LittleEndian, [2]int64{int64(g.NumNodes()), g.NumEdges()})
	binary.Write(&want, binary.LittleEndian, g.OutIndex())
	binary.Write(&want, binary.LittleEndian, g.OutAdjacency())
	binary.Write(&want, binary.LittleEndian, crc32.ChecksumIEEE(want.Bytes()))
	var got bytes.Buffer
	if err := g.WriteBinary(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteBinary wrote %d bytes that differ from the %d-byte v1 layout", got.Len(), want.Len())
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a graph file at all"),
		append(append([]byte{}, binaryMagic[:]...), 0xFF), // truncated header
	}
	for i, b := range cases {
		if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d: ReadBinary succeeded on garbage", i)
		}
	}
}

// TestReadBinaryErrorSentinels pins the corruption-vs-format-mismatch
// contract internal/store relies on: bad magic and unknown versions
// wrap ErrBadMagic, short files wrap ErrTruncated, and a v1 file with
// a flipped byte wraps ErrChecksum.
func TestReadBinaryErrorSentinels(t *testing.T) {
	var buf bytes.Buffer
	if err := diamond().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := buf.Bytes()

	check := func(name string, data []byte, want error) {
		t.Helper()
		_, err := ReadBinaryBytes(data)
		if !errors.Is(err, want) {
			t.Errorf("%s: error %v, want %v", name, err, want)
		}
	}
	check("empty", nil, ErrBadMagic)
	check("wrong magic", []byte("NOTAGRPHxxxxxxxx"), ErrBadMagic)
	check("unknown version", append([]byte("GORDCSR9"), v1[8:]...), ErrBadMagic)
	check("magic only", v1[:8], ErrTruncated)
	// A longer cut of a v1 file leaves 4 trailing bytes that misread as
	// the footer, so the CRC check reports it — still corruption-class,
	// just via the checksum sentinel.
	check("mid-header cut", v1[:12], ErrChecksum)
	check("mid-array cut", v1[:len(v1)-6], ErrChecksum)

	flipped := append([]byte(nil), v1...)
	flipped[10] ^= 0x01
	check("flipped header byte", flipped, ErrChecksum)
	flipped = append([]byte(nil), v1...)
	flipped[len(flipped)-1] ^= 0x01
	check("flipped footer byte", flipped, ErrChecksum)

	// A truncated v0 file has no footer to fail first: the payload
	// checks themselves must classify it.
	var v0 bytes.Buffer
	v0.Write(binaryMagic[:])
	binary.Write(&v0, binary.LittleEndian, [2]int64{3, 3})
	binary.Write(&v0, binary.LittleEndian, []int64{0, 3, 3, 3})
	check("v0 missing adjacency", v0.Bytes(), ErrTruncated)
}

// hugeEdgeCountV0 is a v0 file whose header claims m = 2^62 edges
// (offsets [0, 2^62] agree) over 4 adjacency bytes: m*4 overflows to 0,
// so a size check that multiplies passes it on to make([]NodeID, m).
func hugeEdgeCountV0() []byte {
	var b bytes.Buffer
	b.Write(binaryMagic[:])
	binary.Write(&b, binary.LittleEndian, [2]int64{1, 1 << 62})
	binary.Write(&b, binary.LittleEndian, []int64{0, 1 << 62})
	b.Write([]byte{0, 0, 0, 0})
	return b.Bytes()
}

// TestReadBinaryHugeEdgeCountIsTruncated: an edge count whose byte
// size overflows int64 is a truncated file, not a panic.
func TestReadBinaryHugeEdgeCountIsTruncated(t *testing.T) {
	if _, err := ReadBinaryBytes(hugeEdgeCountV0()); !errors.Is(err, ErrTruncated) {
		t.Fatalf("error %v, want %v", err, ErrTruncated)
	}
}

// TestReadBinaryAcceptsV0 guards backward compatibility: files in the
// original footer-less layout (version byte '1') still load and equal
// their v1 round trip.
func TestReadBinaryAcceptsV0(t *testing.T) {
	g := diamond()
	var v0 bytes.Buffer
	v0.Write(binaryMagic[:])
	binary.Write(&v0, binary.LittleEndian, [2]int64{int64(g.NumNodes()), g.NumEdges()})
	binary.Write(&v0, binary.LittleEndian, g.OutIndex())
	binary.Write(&v0, binary.LittleEndian, g.OutAdjacency())
	h, err := ReadBinaryBytes(v0.Bytes())
	if err != nil {
		t.Fatalf("v0 file rejected: %v", err)
	}
	if !g.Equal(h) {
		t.Error("v0 load changed the graph")
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(5*n))
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			return false
		}
		h, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return g.Equal(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickEdgeListRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 1+rng.Intn(4*n))
		// Ensure the max vertex appears so n survives the trip: add a
		// self-loop on n-1.
		g = FromEdges(n, appendEdges(g, Edge{NodeID(n - 1), NodeID(n - 1)}))
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			return false
		}
		h, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		return g.Equal(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func appendEdges(g *Graph, extra ...Edge) []Edge {
	var edges []Edge
	g.Edges(func(u, v NodeID) bool {
		edges = append(edges, Edge{u, v})
		return true
	})
	return append(edges, extra...)
}
