package order

import (
	"bufio"
	"fmt"
	"io"
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
		n, err := fmt.Fprintln(bw, v)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// ReadPermutation parses the text format and validates the result.
func ReadPermutation(r io.Reader) (Permutation, error) {
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
