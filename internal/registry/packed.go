package registry

import "gorder/internal/order"

// PackedVector is an int32 vector whose entries all lie in [-1, 65534],
// held at Bits ∈ {1, 2, 4, 8, 16} bits per entry: entry d is stored as
// the code d+1, so code 0 stands for algos.Unreached. Word i holds
// entries i·64/Bits onward, the lowest entry in the lowest bits; an
// entry never straddles a word, and the bits past Len in the last word
// are zero.
type PackedVector struct {
	Bits  int
	Len   int
	Words []uint64
}

// PackInt32s packs vec read through perm — entry v is vec[perm[v]], or
// vec[v] when perm is nil — at the smallest width that holds its
// largest entry + 1: one pass over vec finds the width, one writes the
// words. It returns nil when an entry lies outside [-1, 65534]; such a
// vector stays int32.
func PackInt32s(vec []int32, perm order.Permutation) *PackedVector {
	var or uint32
	for _, d := range vec {
		// -1 maps to 0 and 65534 to 0xFFFF; everything else, wrapped
		// negatives included, sets a bit above the low 16. The OR of
		// the codes fits a width exactly when every code does.
		or |= uint32(d) + 1
	}
	if or > 0xFFFF {
		return nil
	}
	w := 1
	for or>>w != 0 {
		w *= 2
	}
	per := 64 / w
	p := &PackedVector{Bits: w, Len: len(vec), Words: make([]uint64, (len(vec)+per-1)/per)}
	for i := range p.Words {
		lo := i * per
		var word uint64
		for v := min(lo+per, len(vec)) - 1; v >= lo; v-- {
			src := v
			if perm != nil {
				src = int(perm[v])
			}
			word = word<<w | uint64(uint32(vec[src])+1)
		}
		p.Words[i] = word
	}
	return p
}

// At returns entry i.
func (p *PackedVector) At(i int) int32 {
	w := uint(p.Bits) & 63 // the mask tells the compiler the shift stays below 64
	off := uint(i) * w
	return int32(p.Words[off/64]>>(off%64)&(1<<w-1)) - 1
}

// Histogram counts the entries by value: index d+1 holds how many
// entries equal d, index 0 the unreached ones. Its length is 1<<Bits.
func (p *PackedVector) Histogram() []int {
	counts := make([]int, 1<<p.Bits)
	mask := uint64(1)<<p.Bits - 1
	for _, word := range p.Words {
		for s := 0; s < 64; s += p.Bits {
			counts[word>>s&mask]++
		}
	}
	// The zero padding past Len in the last word reads as code 0.
	counts[0] -= len(p.Words)*(64/p.Bits) - p.Len
	return counts
}
