package query

import (
	"bytes"
	"runtime"
	"testing"

	"gorder/internal/registry"
)

// FuzzDecodeResult feeds arbitrary bytes to the result codec that
// reads materialized results back from the store: it must return an
// error or a result, never panic or allocate much more than the blob
// holds (a corrupt count must not size an allocation), and an accepted
// result must survive an encode/decode round trip unchanged.
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
	// Core numbers, written from the result cache's one-byte form (the
	// blob holds them widened to int32), and a core too deep for a byte.
	f.Add(encodeResult(&cachedResult{res: registry.KernelResult{
		Kernel: "Kcore", Summary: map[string]float64{"max_core": 4}, Uint8s: []uint8{4, 4, 3, 1, 0, 0},
	}}))
	f.Add(encodeResult(&cachedResult{res: registry.KernelResult{
		Kernel: "Kcore", Summary: map[string]float64{"max_core": 300}, Int32s: []int32{300, 300, 2, 0},
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := decodeResult(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(data))+4096 {
			t.Fatalf("decoding a %d-byte blob allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		enc := encodeResult(c)
		again, err := decodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoded result rejected: %v", err)
		}
		if !bytes.Equal(encodeResult(again), enc) {
			t.Fatal("encode/decode round trip changed the result")
		}
	})
}
