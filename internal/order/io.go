package order

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"

	"gorder/internal/graph"
)

// Permutation files are plain text — one new ID per line, line number
// = old ID — so they interoperate with the ordering files the
// original Gorder release and the replication's scripts exchange.

// WriteTo writes p in the text format. It returns the number of bytes
// written.
func (p Permutation) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	for _, v := range p {
		line := append(strconv.AppendUint(bw.AvailableBuffer(), uint64(v), 10), '\n')
		n, err := bw.Write(line)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// maxLine is the longest line ReadPermutation accepts, the limit the
// format has always had.
const maxLine = 1 << 20

// ReadPermutation parses the text format and validates the result.
// Lines end in "\n" or "\r\n"; blank lines are skipped but counted in
// error positions. r streams through a fixed buffer and each line's
// digits are parsed where they lie, so nothing is allocated per line.
// When r reports how many bytes it holds (bytes.Reader, strings.Reader,
// bytes.Buffer), the result is sized from that up front — exactly, for
// a file WriteTo wrote — so reading a stored artifact allocates little
// beyond the permutation itself.
func ReadPermutation(r io.Reader) (Permutation, error) {
	var p Permutation
	if l, ok := r.(interface{ Len() int }); ok {
		p = make(Permutation, 0, linesIn(int64(l.Len())))
	}
	buf := make([]byte, 32<<10)
	var carry []byte // a line split across two reads
	lineNo := 0
	parse := func(line []byte) error {
		lineNo++
		if k := len(line); k > 0 && line[k-1] == '\r' {
			line = line[:k-1]
		}
		if len(line) == 0 {
			return nil
		}
		if v, ok := parseID(line); ok {
			p = append(p, v)
			return nil
		}
		// Malformed, or legal but unusual (leading zeros past ten
		// digits): strconv gives the verdict and the error text.
		v, err := strconv.ParseUint(string(line), 10, 32)
		if err != nil {
			return fmt.Errorf("order: line %d: %w", lineNo, err)
		}
		p = append(p, graph.NodeID(v))
		return nil
	}
	tooLong := fmt.Errorf("order: reading permutation: %w", bufio.ErrTooLong)
	for {
		k, rerr := r.Read(buf)
		data := buf[:k]
		for len(data) > 0 {
			i := bytes.IndexByte(data, '\n')
			if i < 0 {
				if len(carry)+len(data) >= maxLine {
					return nil, tooLong
				}
				carry = append(carry, data...)
				break
			}
			line := data[:i]
			if len(carry) > 0 {
				line = append(carry, line...)
				carry = carry[:0]
			}
			if len(line) >= maxLine {
				return nil, tooLong
			}
			if err := parse(line); err != nil {
				return nil, err
			}
			data = data[i+1:]
		}
		if rerr != nil {
			// A final line without a newline still counts, as it does
			// before a read error.
			if len(carry) > 0 {
				if err := parse(carry); err != nil {
					return nil, err
				}
			}
			if rerr != io.EOF {
				return nil, fmt.Errorf("order: reading permutation: %w", rerr)
			}
			break
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseID reads a line of at most ten decimal digits whose value fits
// a NodeID; anything else is left to strconv for its exact verdict.
func parseID(b []byte) (graph.NodeID, bool) {
	if len(b) > 10 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	if v > math.MaxUint32 {
		return 0, false
	}
	return graph.NodeID(v), true
}

// linesIn is the number of lines in a size-byte file WriteTo wrote:
// the n whose IDs 0..n-1, one per line, take size bytes. A file with
// blank lines or "\r\n" endings comes out an overestimate, which only
// costs spare capacity.
func linesIn(size int64) int {
	n := int64(0)
	for digits, first := int64(1), int64(0); size > 0 && digits <= 10; digits++ {
		count := 9 * first
		if first == 0 {
			count = 10
		}
		k := min(count, size/(digits+1))
		n += k
		size -= k * (digits + 1)
		if k < count {
			break
		}
		first = max(10*first, 10)
	}
	return int(n)
}
