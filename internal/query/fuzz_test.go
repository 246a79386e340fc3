package query

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"gorder/internal/registry"
)

// FuzzDecodeResult feeds arbitrary bytes to the result codec that
// reads materialized results back from the store: it must return an
// error or a result, never panic or allocate much more than the blob
// holds (a corrupt count must not size an allocation), and an accepted
// result must survive an encode/decode round trip unchanged. A decoded
// int32 vector that packs must re-encode from its packed form to the
// bytes of its int32 form: the input itself whenever the input was
// written canonically (summary keys sorted), as every blob the store
// holds was.
func FuzzDecodeResult(f *testing.F) {
	valid := encodeResult(&cachedResult{
		res: registry.KernelResult{
			Kernel:  "PR",
			Summary: map[string]float64{"sum": 1, "iters": 20},
			Floats:  []float64{0.5, 0.25, 0.125},
		},
		method: "gorder", optKey: "abcd",
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(encodeResult(&cachedResult{res: registry.KernelResult{Kernel: "BFS", Int32s: []int32{0, 1, -1}}}))
	f.Add(encodeResult(&cachedResult{res: registry.KernelResult{Kernel: "NQ", Int64s: []int64{1 << 40}}}))
	// Core numbers, written from the result cache's packed form (the
	// blob holds them widened to int32), one at the 16-bit edge, and one
	// too deep to pack.
	f.Add(encodeResult(&cachedResult{res: registry.KernelResult{
		Kernel: "Kcore", Summary: map[string]float64{"max_core": 4},
		Packed: registry.PackInt32s([]int32{4, 4, 3, 1, 0, 0}, nil),
	}}))
	f.Add(encodeResult(&cachedResult{res: registry.KernelResult{
		Kernel: "Kcore", Summary: map[string]float64{"max_core": 65534}, Int32s: []int32{65534, 300, 2, 0, -1},
	}}))
	f.Add(encodeResult(&cachedResult{res: registry.KernelResult{
		Kernel: "Kcore", Summary: map[string]float64{"max_core": 65535}, Int32s: []int32{65535, 300, 2, 0},
	}}))
	// Inflated counts: a summary count, a vector length and a string
	// length far beyond the bytes that follow them, and a summary count
	// below the blob's length that its bytes still cannot back.
	header := func() *bytes.Buffer {
		var b bytes.Buffer
		b.WriteString(codecMagic)
		writeString(&b, "PR")
		writeString(&b, "")
		writeString(&b, "")
		return &b
	}
	b := header()
	writeU32(b, 1<<31)
	f.Add(b.Bytes())
	b = header()
	writeU32(b, 0)
	b.WriteByte(vecFloat64)
	writeU32(b, 1<<30)
	writeU64(b, 0)
	f.Add(b.Bytes())
	b = header()
	writeU32(b, 1)
	writeU32(b, 1<<31)
	f.Add(b.Bytes())
	b = header()
	writeU32(b, 1000)
	b.Write(make([]byte, 1000))
	f.Add(b.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc is process-wide, and under -fuzz the worker's own
		// goroutines allocate beside the decode. The decoder allocates the
		// same on every run of one input and other allocations only add to
		// a delta, so the least of a few deltas is the decoder's.
		grew := uint64(math.MaxUint64)
		var c *cachedResult
		var err error
		for range 4 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c, err = decodeResult(data)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > 8*uint64(len(data))+4096 {
			t.Fatalf("decoding a %d-byte blob allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		enc := encodeResult(c)
		if c.res.Int32s != nil {
			packed := *c
			packed.res.Int32s = append([]int32(nil), c.res.Int32s...)
			mapResultBack(&packed.res, nil)
			if packed.res.Packed != nil && !bytes.Equal(encodeResult(&packed), enc) {
				t.Fatalf("%d-bit packed form encodes differently from the int32 form", packed.res.Packed.Bits)
			}
		}
		again, err := decodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoded result rejected: %v", err)
		}
		if !bytes.Equal(encodeResult(again), enc) {
			t.Fatal("encode/decode round trip changed the result")
		}
	})
}
