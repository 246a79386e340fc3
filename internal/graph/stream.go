package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// Streaming edge-list ingest: parse a text edge list incrementally
// from an io.Reader without ever materializing the whole body. The
// reader is consumed in fixed-size buffers; each buffer is cut at its
// last newline and the complete-line prefix goes through the same
// sharded parser ReadEdgeListBytes uses (parseBlock), with
// the partial tail carried into the next buffer. Peak memory is the
// parse buffer plus the accumulated edge shards plus the final CSR —
// the raw text never exists in memory at once, which is what lets
// gorderd accept uploads much larger than its RAM headroom would
// otherwise allow.

// streamBuffer is the per-round parse buffer of
// ReadEdgeListStream: big enough to amortize the sharded parser's
// fan-out, small enough that buffering is not "the whole upload".
const streamBuffer = 4 << 20

// ReadEdgeListStream parses a text edge list incrementally from r with
// the default buffer size. Identical semantics to ReadEdgeListBytes —
// same comment/blank-line rules, same error line numbers, bit-identical
// CSR — at bounded peak memory.
func ReadEdgeListStream(r io.Reader) (*Graph, error) {
	return readEdgeListStreamBuffer(r, streamBuffer)
}

// readEdgeListStreamBuffer is ReadEdgeListStream with an explicit
// buffer size (minimum 4 KiB), so tests can force many small rounds.
func readEdgeListStreamBuffer(r io.Reader, bufSize int) (*Graph, error) {
	if bufSize < 4<<10 {
		bufSize = 4 << 10
	}
	buf := make([]byte, 0, bufSize)
	var shards [][]Edge
	maxID := int64(-1)
	lineBase := 0
	for {
		// Fill the buffer as far as the reader allows this round.
		var rerr error
		for len(buf) < cap(buf) && rerr == nil {
			var n int
			n, rerr = r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
		}
		if rerr != nil && rerr != io.EOF {
			return nil, fmt.Errorf("graph: reading edge list: %w", rerr)
		}
		eof := rerr == io.EOF

		// Cut at the last newline; at EOF the unterminated tail is a
		// complete final line and parses too.
		block, rest := buf, []byte(nil)
		if !eof {
			i := bytes.LastIndexByte(buf, '\n')
			if i < 0 {
				// One line larger than the whole buffer: refuse rather than
				// silently fall back to unbounded buffering.
				return nil, fmt.Errorf("graph: line %d: line exceeds the %d-byte streaming buffer",
					lineBase+1, cap(buf))
			}
			block, rest = buf[:i+1], buf[i+1:]
		}
		if len(block) > 0 {
			s, mx, lines, errLine, err := parseBlock(block, parseWorkers(len(block)))
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineBase+errLine, err)
			}
			lineBase += lines
			if mx > maxID {
				maxID = mx
			}
			shards = append(shards, s...)
		}
		if eof {
			break
		}
		// Slide the partial tail to the front of the buffer (overlapping
		// copy into the same backing array is fine: dst precedes src).
		buf = buf[:copy(buf[:cap(buf)], rest)]
	}
	return build(int(maxID+1), shards, false), nil
}

// Read parses a graph in either on-disk format: a body that starts
// with the binary CSR magic (any format version) goes whole to
// ReadBinaryBytes, anything else streams through ReadEdgeListStream.
// Binary CSR is already the in-memory layout and compact, so
// buffering it is the cheap path; text never exists in memory whole.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	prefix, err := br.Peek(len(binaryMagic))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("graph: reading: %w", err)
	}
	if !sniffBinary(prefix) {
		return ReadEdgeListStream(br)
	}
	data, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("graph: reading binary CSR: %w", err)
	}
	return ReadBinaryBytes(data)
}

// sniffBinary reports whether prefix begins with the binary CSR magic
// (any format version); version validation stays in ReadBinaryBytes.
func sniffBinary(prefix []byte) bool {
	return len(prefix) >= 7 && [7]byte(prefix[:7]) == [7]byte(binaryMagic[:7])
}
