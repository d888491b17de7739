// Package bitvec provides bit-packed vectors over the domains {0,1} and
// {−1,+1}, together with the concatenation (⊕), repetition and tensor (⊗)
// operators used by the gap embeddings of Ahle et al. (Lemma 3).
//
// Both representations pack 64 coordinates per machine word so that inner
// products reduce to AND/XOR + popcount kernels. Unused tail bits are kept
// at zero as an invariant, which the dot-product kernels rely on.
package bitvec

import (
	"fmt"
	"math/bits"
)

func words(n int) int { return (n + 63) / 64 }

// tailMask returns the mask of valid bits in the last word of an n-bit
// vector, or ^0 when n is a multiple of 64 (including n = 0 with no words).
func tailMask(n int) uint64 {
	r := n % 64
	if r == 0 {
		return ^uint64(0)
	}
	return (uint64(1) << r) - 1
}

// Bits is a packed vector over {0,1}.
type Bits struct {
	N int
	W []uint64
}

// NewBits returns an all-zero {0,1} vector of dimension n.
func NewBits(n int) *Bits {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative dimension %d", n))
	}
	return &Bits{N: n, W: make([]uint64, words(n))}
}

// BitsFromInts builds a {0,1} vector from a slice of 0/1 integers.
func BitsFromInts(xs []int) *Bits {
	b := NewBits(len(xs))
	for i, v := range xs {
		switch v {
		case 0:
		case 1:
			b.SetBit(i, 1)
		default:
			panic(fmt.Sprintf("bitvec: BitsFromInts value %d at %d not in {0,1}", v, i))
		}
	}
	return b
}

// Clone returns a deep copy.
func (b *Bits) Clone() *Bits {
	w := make([]uint64, len(b.W))
	copy(w, b.W)
	return &Bits{N: b.N, W: w}
}

// Bit returns coordinate i as 0 or 1.
func (b *Bits) Bit(i int) int {
	if i < 0 || i >= b.N {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, b.N))
	}
	return int(b.W[i/64] >> (uint(i) % 64) & 1)
}

// SetBit assigns coordinate i to v ∈ {0,1}.
func (b *Bits) SetBit(i, v int) {
	if i < 0 || i >= b.N {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, b.N))
	}
	m := uint64(1) << (uint(i) % 64)
	switch v {
	case 0:
		b.W[i/64] &^= m
	case 1:
		b.W[i/64] |= m
	default:
		panic(fmt.Sprintf("bitvec: SetBit value %d not in {0,1}", v))
	}
}

// OnesCount returns the number of 1 coordinates.
func (b *Bits) OnesCount() int {
	c := 0
	for _, w := range b.W {
		c += bits.OnesCount64(w)
	}
	return c
}

// DotBits returns the inner product of two {0,1} vectors, i.e. the size
// of the intersection of their supports. Panics on dimension mismatch.
func DotBits(x, y *Bits) int {
	if x.N != y.N {
		panic(fmt.Sprintf("bitvec: DotBits dimension mismatch %d != %d", x.N, y.N))
	}
	c := 0
	for i, w := range x.W {
		c += bits.OnesCount64(w & y.W[i])
	}
	return c
}

// Ints returns the vector as a slice of 0/1 integers.
func (b *Bits) Ints() []int {
	out := make([]int, b.N)
	for i := range out {
		out[i] = b.Bit(i)
	}
	return out
}

// Floats returns the vector as float64 coordinates.
func (b *Bits) Floats() []float64 {
	out := make([]float64, b.N)
	for i := range out {
		out[i] = float64(b.Bit(i))
	}
	return out
}

// String renders the vector as a 0/1 string, most significant coordinate
// last (coordinate order).
func (b *Bits) String() string {
	buf := make([]byte, b.N)
	for i := 0; i < b.N; i++ {
		buf[i] = byte('0' + b.Bit(i))
	}
	return string(buf)
}

// writer appends bit runs to a packed word slice, handling arbitrary
// (non-word-aligned) offsets.
type writer struct {
	w []uint64
	n int
}

func newWriter(capBits int) *writer {
	return &writer{w: make([]uint64, 0, words(capBits))}
}

// writeBits appends the low n bits of src (packed) to the stream. If flip
// is true every appended bit is complemented.
func (wr *writer) writeBits(src []uint64, n int, flip bool) {
	if n == 0 {
		return
	}
	need := words(wr.n + n)
	for len(wr.w) < need {
		wr.w = append(wr.w, 0)
	}
	off := uint(wr.n % 64)
	wi := wr.n / 64
	full := n / 64
	for k := 0; k < full; k++ {
		v := src[k]
		if flip {
			v = ^v
		}
		wr.w[wi+k] |= v << off
		if off != 0 {
			wr.w[wi+k+1] |= v >> (64 - off)
		}
	}
	rem := n % 64
	if rem > 0 {
		v := src[full]
		if flip {
			v = ^v
		}
		v &= (uint64(1) << uint(rem)) - 1
		idx := wi + full
		wr.w[idx] |= v << off
		if off != 0 && int(off)+rem > 64 {
			wr.w[idx+1] |= v >> (64 - off)
		}
	}
	wr.n += n
}

func (wr *writer) bits() *Bits {
	b := &Bits{N: wr.n, W: wr.w}
	if len(b.W) > 0 {
		b.W[len(b.W)-1] &= tailMask(b.N)
	}
	return b
}

// ConcatBits returns x ⊕ y (coordinates of x followed by those of y).
func ConcatBits(xs ...*Bits) *Bits {
	total := 0
	for _, x := range xs {
		total += x.N
	}
	wr := newWriter(total)
	for _, x := range xs {
		wr.writeBits(x.W, x.N, false)
	}
	return wr.bits()
}

// RepeatBits returns x^{⊕n}: x concatenated with itself n times.
func RepeatBits(x *Bits, n int) *Bits {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: RepeatBits negative count %d", n))
	}
	wr := newWriter(x.N * n)
	for i := 0; i < n; i++ {
		wr.writeBits(x.W, x.N, false)
	}
	return wr.bits()
}

// TensorBits returns x ⊗ y for {0,1} vectors, laid out row-major:
// (x⊗y)[i·dim(y)+j] = x[i] AND y[j]. It satisfies
// DotBits(x1⊗x2, y1⊗y2) = DotBits(x1,y1)·DotBits(x2,y2).
func TensorBits(x, y *Bits) *Bits {
	wr := newWriter(x.N * y.N)
	zero := make([]uint64, len(y.W))
	for i := 0; i < x.N; i++ {
		if x.Bit(i) == 1 {
			wr.writeBits(y.W, y.N, false)
		} else {
			wr.writeBits(zero, y.N, false)
		}
	}
	return wr.bits()
}

// Signs is a packed vector over {−1,+1}. Bit 0 encodes +1 and bit 1
// encodes −1, so coordinate i has value 1 − 2·bit(i).
type Signs struct {
	N int
	W []uint64
}

// NewSigns returns the all +1 vector of dimension n.
func NewSigns(n int) *Signs {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative dimension %d", n))
	}
	return &Signs{N: n, W: make([]uint64, words(n))}
}

// SignsFromInts builds a {−1,+1} vector from a slice of ±1 integers.
func SignsFromInts(xs []int) *Signs {
	s := NewSigns(len(xs))
	for i, v := range xs {
		switch v {
		case 1:
		case -1:
			s.setBitRaw(i, 1)
		default:
			panic(fmt.Sprintf("bitvec: SignsFromInts value %d at %d not in {-1,1}", v, i))
		}
	}
	return s
}

// Clone returns a deep copy.
func (s *Signs) Clone() *Signs {
	w := make([]uint64, len(s.W))
	copy(w, s.W)
	return &Signs{N: s.N, W: w}
}

func (s *Signs) setBitRaw(i, v int) {
	m := uint64(1) << (uint(i) % 64)
	if v == 0 {
		s.W[i/64] &^= m
	} else {
		s.W[i/64] |= m
	}
}

// Sign returns coordinate i as +1 or −1.
func (s *Signs) Sign(i int) int {
	if i < 0 || i >= s.N {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, s.N))
	}
	return 1 - 2*int(s.W[i/64]>>(uint(i)%64)&1)
}

// SetSign assigns coordinate i to v ∈ {−1,+1}.
func (s *Signs) SetSign(i, v int) {
	if i < 0 || i >= s.N {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, s.N))
	}
	switch v {
	case 1:
		s.setBitRaw(i, 0)
	case -1:
		s.setBitRaw(i, 1)
	default:
		panic(fmt.Sprintf("bitvec: SetSign value %d not in {-1,1}", v))
	}
}

// DotSigns returns the inner product of two {−1,+1} vectors:
// n − 2·(number of disagreeing coordinates). Panics on dimension mismatch.
func DotSigns(x, y *Signs) int {
	if x.N != y.N {
		panic(fmt.Sprintf("bitvec: DotSigns dimension mismatch %d != %d", x.N, y.N))
	}
	dis := 0
	for i, w := range x.W {
		dis += bits.OnesCount64(w ^ y.W[i])
	}
	return x.N - 2*dis
}

// Neg returns −x as a new vector.
func (s *Signs) Neg() *Signs {
	out := NewSigns(s.N)
	for i, w := range s.W {
		out.W[i] = ^w
	}
	if len(out.W) > 0 {
		out.W[len(out.W)-1] &= tailMask(s.N)
	}
	return out
}

// Ints returns the vector as ±1 integers.
func (s *Signs) Ints() []int {
	out := make([]int, s.N)
	for i := range out {
		out[i] = s.Sign(i)
	}
	return out
}

// Floats returns the vector as float64 coordinates.
func (s *Signs) Floats() []float64 {
	out := make([]float64, s.N)
	for i := range out {
		out[i] = float64(s.Sign(i))
	}
	return out
}

// ConcatSigns returns x ⊕ y ⊕ … for {−1,+1} vectors.
func ConcatSigns(xs ...*Signs) *Signs {
	total := 0
	for _, x := range xs {
		total += x.N
	}
	wr := newWriter(total)
	for _, x := range xs {
		wr.writeBits(x.W, x.N, false)
	}
	b := wr.bits()
	return &Signs{N: b.N, W: b.W}
}

// RepeatSigns returns x^{⊕n}.
func RepeatSigns(x *Signs, n int) *Signs {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: RepeatSigns negative count %d", n))
	}
	wr := newWriter(x.N * n)
	for i := 0; i < n; i++ {
		wr.writeBits(x.W, x.N, false)
	}
	b := wr.bits()
	return &Signs{N: b.N, W: b.W}
}

// TensorSigns returns x ⊗ y for {−1,+1} vectors:
// (x⊗y)[i·dim(y)+j] = x[i]·y[j]. In the sign-bit encoding this is an XOR
// expansion: the (i,j) bit is bit_x(i) XOR bit_y(j). It satisfies
// DotSigns(x1⊗x2, y1⊗y2) = DotSigns(x1,y1)·DotSigns(x2,y2).
func TensorSigns(x, y *Signs) *Signs {
	wr := newWriter(x.N * y.N)
	for i := 0; i < x.N; i++ {
		// x[i] = +1: copy y; x[i] = −1: copy −y (flip bits).
		flip := x.W[i/64]>>(uint(i)%64)&1 == 1
		wr.writeBits(y.W, y.N, flip)
	}
	b := wr.bits()
	return &Signs{N: b.N, W: b.W}
}

// AllOnes returns the all +1 vector of dimension n (paper notation 1^d).
func AllOnes(n int) *Signs { return NewSigns(n) }

// AllMinusOnes returns the all −1 vector of dimension n.
func AllMinusOnes(n int) *Signs { return NewSigns(n).Neg() }
