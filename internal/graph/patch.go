package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// PatchBinary writes to w the binary encoding of ApplyEdits(g, addNodes,
// add, del), byte for byte what WriteBinary of that graph writes, where
// r holds g's encoding as WriteBinary wrote it (format v1, rows sorted)
// in its first size bytes. Neither graph is built: the rows the batch
// touches are read up front and merged with editRow, ApplyEdits' own
// row merge, so the stats are the ones ApplyEdits reports; then r is
// streamed once, in order, through a fixed buffer — offsets shifted by
// the merged rows' degree changes, untouched rows copied as they are,
// appended rows written at the end. Memory is O(touched rows), not
// O(graph).
//
// The CRC32 footer of r is checked over the streamed bytes, and only
// after the whole result has gone to w: a caller writing w to a
// temporary file must discard it when PatchBinary fails. A footer
// mismatch wraps ErrChecksum, a short or oversized input ErrTruncated,
// and anything but a v1 encoding ErrBadMagic; a batch CheckEdits
// rejects is reported before anything is written.
func PatchBinary(w io.Writer, r io.ReaderAt, size int64, addNodes int, add, del []Edge) (EditStats, error) {
	var st EditStats
	le := binary.LittleEndian
	var hdr [24]byte
	if err := readFullAt(r, hdr[:], 0, size); err != nil {
		return st, fmt.Errorf("graph: reading header: %w", err)
	}
	if [8]byte(hdr[:8]) != binaryMagicV1 {
		return st, fmt.Errorf("graph: %w (patching needs format v1)", ErrBadMagic)
	}
	n, m := int64(le.Uint64(hdr[8:])), int64(le.Uint64(hdr[16:]))
	if n < 0 || m < 0 || n > 1<<32 {
		return st, fmt.Errorf("graph: implausible header n=%d m=%d", n, m)
	}
	adjAt := 24 + 8*(n+1)
	if m > size/4 || size != adjAt+4*m+4 {
		return st, fmt.Errorf("graph: %d bytes for n=%d m=%d: %w", size, n, m, ErrTruncated)
	}
	if err := CheckEdits(int(n), addNodes, add, del); err != nil {
		return st, err
	}

	// Pass 1: merge every touched row, reading old rows where they lie.
	type touchedRow struct {
		u      int64
		lo, hi int64    // the old row's extent in the adjacency (0, 0 for appended rows)
		row    []NodeID // the row after the batch
	}
	b := newEditBatch(add, del)
	var touched []touchedRow
	var raw []byte
	var old []NodeID
	prevHi := int64(0)
	for _, u := range b.rows() {
		t := touchedRow{u: int64(u)}
		old = old[:0]
		if t.u < n {
			var ext [16]byte
			if err := readFullAt(r, ext[:], 24+8*t.u, size); err != nil {
				return st, fmt.Errorf("graph: reading offsets: %w", err)
			}
			t.lo, t.hi = int64(le.Uint64(ext[:])), int64(le.Uint64(ext[8:]))
			if t.lo < prevHi || t.hi < t.lo || t.hi > m {
				return st, errors.New("graph: corrupt offset array")
			}
			prevHi = t.hi
			raw = slices.Grow(raw[:0], int(4*(t.hi-t.lo)))[:4*(t.hi-t.lo)]
			if err := readFullAt(r, raw, adjAt+4*t.lo, size); err != nil {
				return st, fmt.Errorf("graph: reading adjacency: %w", err)
			}
			for i := 0; i < len(raw); i += 4 {
				old = append(old, NodeID(le.Uint32(raw[i:])))
			}
		}
		dels, adds := b.row(u)
		t.row = editRow(nil, old, dels, adds, &st)
		touched = append(touched, t)
	}
	m2 := m + int64(st.Added-st.Deleted)
	n2 := n + int64(addNodes)

	// Pass 2: stream r into w.
	inSum, outSum := crc32.NewIEEE(), crc32.NewIEEE()
	in := bufio.NewReaderSize(io.TeeReader(io.NewSectionReader(r, 0, size-4), inSum), 64<<10)
	out := bufio.NewWriterSize(io.MultiWriter(w, outSum), 64<<10)
	if _, err := in.Discard(24); err != nil {
		return st, fmt.Errorf("graph: reading header: %w", err)
	}
	hdrOut := hdr
	le.PutUint64(hdrOut[8:], uint64(n2))
	le.PutUint64(hdrOut[16:], uint64(m2))
	out.Write(hdrOut[:])

	// Offsets: old row u starts shift later, shift being the degree
	// change of the touched rows before u. The extents pass 1 read must
	// be the ones streaming past.
	var word [8]byte
	shift, ti := int64(0), 0
	for u := int64(0); u <= n; u++ {
		if _, err := io.ReadFull(in, word[:]); err != nil {
			return st, fmt.Errorf("graph: reading offsets: %w", err)
		}
		off := int64(le.Uint64(word[:]))
		if ti < len(touched) && touched[ti].u == u-1 {
			t := touched[ti]
			if off != t.hi {
				return st, errors.New("graph: corrupt offset array")
			}
			shift += int64(len(t.row)) - (t.hi - t.lo)
			ti++
		}
		if (u == 0 && off != 0) || (u == n && off != m) ||
			(ti < len(touched) && touched[ti].u == u && u < n && off != touched[ti].lo) {
			return st, errors.New("graph: corrupt offset array")
		}
		le.PutUint64(word[:], uint64(off+shift))
		out.Write(word[:])
	}
	// Appended rows hold only their adds.
	end := m + shift
	for u := n; u < n2; u++ {
		if ti < len(touched) && touched[ti].u == u {
			end += int64(len(touched[ti].row))
			ti++
		}
		le.PutUint64(word[:], uint64(end))
		out.Write(word[:])
	}

	// Adjacency: copy the untouched stretches, swap in the merged rows.
	pos := int64(0)
	for _, t := range touched {
		if t.u < n {
			if _, err := io.CopyN(out, in, 4*(t.lo-pos)); err != nil {
				return st, fmt.Errorf("graph: reading adjacency: %w", err)
			}
			if _, err := in.Discard(int(4 * (t.hi - t.lo))); err != nil {
				return st, fmt.Errorf("graph: reading adjacency: %w", err)
			}
			pos = t.hi
		} else if pos < m {
			if _, err := io.CopyN(out, in, 4*(m-pos)); err != nil {
				return st, fmt.Errorf("graph: reading adjacency: %w", err)
			}
			pos = m
		}
		for _, v := range t.row {
			le.PutUint32(word[:4], uint32(v))
			out.Write(word[:4])
		}
	}
	if _, err := io.CopyN(out, in, 4*(m-pos)); err != nil {
		return st, fmt.Errorf("graph: reading adjacency: %w", err)
	}

	var foot [4]byte
	if err := readFullAt(r, foot[:], size-4, size); err != nil {
		return st, fmt.Errorf("graph: reading checksum footer: %w", err)
	}
	if want, got := le.Uint32(foot[:]), inSum.Sum32(); got != want {
		return st, fmt.Errorf("graph: %w (file says %08x, contents sum to %08x)", ErrChecksum, want, got)
	}
	if err := out.Flush(); err != nil {
		return st, err
	}
	le.PutUint32(foot[:], outSum.Sum32())
	_, err := w.Write(foot[:])
	return st, err
}

// readFullAt fills buf from r at off, within the first size bytes;
// reading past them is ErrTruncated.
func readFullAt(r io.ReaderAt, buf []byte, off, size int64) error {
	if off < 0 || off+int64(len(buf)) > size {
		return ErrTruncated
	}
	k, err := r.ReadAt(buf, off)
	if k == len(buf) {
		return nil
	}
	if err == io.EOF {
		return ErrTruncated
	}
	return err
}
