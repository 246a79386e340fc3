package query

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"gorder/internal/registry"
)

// The materialization codec: a kernel result plus the ordering that
// computed it, encoded as a little-endian blob the store persists
// verbatim. Results are stored in the caller's (natural) ID space, so
// a blob written under one ordering satisfies queries served under any
// other — the ordering fields exist only so responses can report what
// did the work. The store's CRC covers bit-rot; decode errors here
// mean a format change and read as a cache miss, never a failure.

// codecMagic versions the blob layout.
const codecMagic = "GQR1"

// vector-kind tags.
const (
	vecNone byte = iota
	vecInt32
	vecInt64
	vecFloat64
)

// cachedResult is what the result cache and the materialization codec
// carry: the natural-ID-space result and the ordering that produced it.
type cachedResult struct {
	res    registry.KernelResult
	method string // ordering method that computed it ("" = natural)
	optKey string
}

func (c *cachedResult) memBytes() int64 {
	return c.res.MemBytes() + int64(len(c.method)+len(c.optKey)) + 32
}

func encodeResult(c *cachedResult) []byte {
	var buf bytes.Buffer
	buf.WriteString(codecMagic)
	writeString(&buf, c.res.Kernel)
	writeString(&buf, c.method)
	writeString(&buf, c.optKey)

	keys := make([]string, 0, len(c.res.Summary))
	for k := range c.res.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	writeU32(&buf, uint32(len(keys)))
	for _, k := range keys {
		writeString(&buf, k)
		writeU64(&buf, math.Float64bits(c.res.Summary[k]))
	}

	switch {
	case c.res.Int32s != nil:
		buf.WriteByte(vecInt32)
		writeU32(&buf, uint32(len(c.res.Int32s)))
		for _, v := range c.res.Int32s {
			writeU32(&buf, uint32(v))
		}
	case c.res.Packed != nil:
		// The packed form is the cache's, not the format's: it is
		// written widened, as the int32 vector it stands for, and
		// decodes as one.
		p := c.res.Packed
		buf.WriteByte(vecInt32)
		writeU32(&buf, uint32(p.Len))
		for i := 0; i < p.Len; i++ {
			writeU32(&buf, uint32(p.At(i)))
		}
	case c.res.Int64s != nil:
		buf.WriteByte(vecInt64)
		writeU32(&buf, uint32(len(c.res.Int64s)))
		for _, v := range c.res.Int64s {
			writeU64(&buf, uint64(v))
		}
	case c.res.Floats != nil:
		buf.WriteByte(vecFloat64)
		writeU32(&buf, uint32(len(c.res.Floats)))
		for _, v := range c.res.Floats {
			writeU64(&buf, math.Float64bits(v))
		}
	default:
		buf.WriteByte(vecNone)
	}
	return buf.Bytes()
}

func decodeResult(data []byte) (*cachedResult, error) {
	r := &byteReader{data: data}
	if string(r.take(len(codecMagic))) != codecMagic {
		return nil, fmt.Errorf("result blob: bad magic")
	}
	c := &cachedResult{}
	c.res.Kernel = r.str()
	c.method = r.str()
	c.optKey = r.str()

	// Counts are checked against the bytes left before they size an
	// allocation, so a corrupt count cannot allocate past the blob: a
	// summary entry takes at least 12 bytes (key length and value), a
	// vector element its width.
	nsum := int(r.u32())
	if r.err == nil && nsum > r.left()/12 {
		return nil, fmt.Errorf("result blob: summary count %d exceeds blob", nsum)
	}
	c.res.Summary = make(map[string]float64, nsum)
	for i := 0; i < nsum && r.err == nil; i++ {
		k := r.str()
		c.res.Summary[k] = math.Float64frombits(r.u64())
	}

	kind := r.byte()
	if kind != vecNone {
		n := int(r.u32())
		width := 8
		if kind == vecInt32 {
			width = 4
		}
		if r.err == nil && n > r.left()/width {
			return nil, fmt.Errorf("result blob: vector length %d exceeds blob", n)
		}
		switch kind {
		case vecInt32:
			vec := make([]int32, n)
			for i := range vec {
				vec[i] = int32(r.u32())
			}
			c.res.Int32s = vec
		case vecInt64:
			vec := make([]int64, n)
			for i := range vec {
				vec[i] = int64(r.u64())
			}
			c.res.Int64s = vec
		case vecFloat64:
			vec := make([]float64, n)
			for i := range vec {
				vec[i] = math.Float64frombits(r.u64())
			}
			c.res.Floats = vec
		default:
			return nil, fmt.Errorf("result blob: unknown vector kind %d", kind)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != r.off {
		return nil, fmt.Errorf("result blob: %d trailing bytes", len(r.data)-r.off)
	}
	return c, nil
}

// ---- little-endian primitives -------------------------------------------

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func writeString(buf *bytes.Buffer, s string) {
	writeU32(buf, uint32(len(s)))
	buf.WriteString(s)
}

// byteReader is a bounds-checked cursor: the first short read latches
// err and every later read returns zeros, so decode loops stay simple.
type byteReader struct {
	data []byte
	off  int
	err  error
}

// left returns the number of unread bytes.
func (r *byteReader) left() int { return len(r.data) - r.off }

func (r *byteReader) take(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.data) {
		if r.err == nil {
			r.err = fmt.Errorf("result blob: truncated at offset %d", r.off)
		}
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *byteReader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *byteReader) str() string {
	n := int(r.u32())
	if r.err == nil && n > r.left() {
		r.err = fmt.Errorf("result blob: string length %d exceeds blob", n)
		return ""
	}
	return string(r.take(n))
}
