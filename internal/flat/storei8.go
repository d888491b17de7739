// Quantized speed tier 2: int8 columnar storage under per-store
// symmetric quantization. Every element is coded as
// round(x / scale) clamped to [-127, 127] with scale = max|x|/127 over
// the whole store, so codes are sign-symmetric (no zero-point) and the
// decoder can verify a stored scale by recomputation. Queries are
// quantized per scan against their own max|q|/127 scale and widened to
// int16, so the AVX2 kernel is one sign-extension plus one VPMADDWD
// per 16 codes of a row. Every dimension of at least one such chunk
// runs SIMD (quantSIMD) through one any-dimension kernel, dotI8Range —
// d = 16 included, where a kernel with the row stride built in is no
// faster (see quant_amd64.s); below 16, and without AVX2, the Go
// kernel scans. Accumulation is exact int32 arithmetic — order free —
// so the kernels need no ordering contract to be bit-identical, unlike
// the float32 tier's. A code score widens as float64(acc) ·
// (scale·qscale).
//
// Int8 scores are approximations with per-element error ≤ scale/2 on
// each side; the serving layer treats them as candidates only and
// always re-ranks the survivors through the retained f64 store, the
// same candidate-then-verify shape as internal/sketch.MaxDot.
package flat

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/vec"
)

// StoreI8 is the int8 mirror of a Store: row i is d contiguous codes
// inside one chunk; scale is the shared dequantization factor. It grows
// only through Extend, in step with the store it mirrors.
type StoreI8 struct {
	dim   int
	codes chunked[int8]
	scale float64
}

// NewStoreI8 quantizes s under the symmetric scheme. The scale is a
// max over all elements — order independent — so rebuilding the store
// from the same rows in any layout (e.g. after recovery replay or
// compaction) reproduces the identical scale and codes.
func NewStoreI8(s *Store) *StoreI8 {
	q := &StoreI8{dim: s.dim, scale: maxAbsFrom(s, 0) / 127}
	q.codes.width = s.dim
	q.encode(s)
	return q
}

// Extend returns the int8 view of fs, an append-only store whose
// leading s.Len() rows are the rows s mirrors. While the new rows stay
// within the old max|x| the scale stands, only they are coded and every
// other chunk is shared with s; a batch that raises max|x| changes
// every code, so everything is re-coded. Either way the result Equals
// NewStoreI8(fs): x/127 is monotone in x, so max(old scale, new
// max/127) is the scale a full pass computes.
func (s *StoreI8) Extend(fs *Store) *StoreI8 {
	if maxAbsFrom(fs, s.Len())/127 > s.scale {
		return NewStoreI8(fs)
	}
	q := &StoreI8{dim: s.dim, scale: s.scale}
	s.codes.share(&q.codes)
	q.encode(fs)
	return q
}

// encode appends the codes of the rows of fs that q does not hold yet.
func (q *StoreI8) encode(fs *Store) {
	d := q.dim
	for i := q.Len(); i < fs.Len(); {
		codes := q.codes.grow(fs.Len() - i)
		for r := 0; r < len(codes)/d; r++ {
			for j, x := range fs.Row(i + r) {
				codes[r*d+j] = quantizeI8(x, q.scale)
			}
		}
		i += len(codes) / d
	}
}

// maxAbsFrom returns the largest finite |x| over rows [from, Len) of s.
func maxAbsFrom(s *Store, from int) float64 {
	maxAbs := 0.0
	for lo := from; lo < s.Len(); {
		data, l, h := s.data.span(lo, s.Len())
		for _, x := range data[l*s.dim : h*s.dim] {
			if a := math.Abs(x); a > maxAbs && !math.IsInf(a, 0) {
				maxAbs = a
			}
		}
		lo += h - l
	}
	return maxAbs
}

// SharedRows returns how many leading rows of s occupy the same memory
// as rows of p (see Store.SharedRows).
func (s *StoreI8) SharedRows(p *StoreI8) int { return s.codes.sharedRows(&p.codes) }

// AllocatedBytes returns the bytes of code storage the store holds
// allocated (see Store.AllocatedBytes).
func (s *StoreI8) AllocatedBytes() int64 { return int64(s.codes.capElems()) }

// quantizeI8 codes one element: nearest integer multiple of scale,
// clamped to the symmetric range. A zero scale (all-zero store) codes
// everything as 0; non-finite inputs saturate deterministically.
func quantizeI8(x, scale float64) int8 {
	if scale == 0 {
		return 0
	}
	v := math.Round(x / scale)
	switch {
	case v > 127:
		return 127
	case v < -127:
		return -127
	case math.IsNaN(v):
		return 0
	}
	return int8(v)
}

// quantizeQueryI8 codes a query against its own symmetric scale,
// widening the codes to int16 for the VPMADDWD kernel and appending
// them to dst, zero-padded to whole i8Chunk-code chunks (what the AVX2
// kernel multiplies; the Go kernel reads the first len(q)). A zero (or
// non-finite-only) query yields scale 0 and all-zero codes, matching
// the exact all-zero dot.
func quantizeQueryI8(dst []int16, q vec.Vector) ([]int16, float64) {
	maxAbs := 0.0
	for _, x := range q {
		if a := math.Abs(x); a > maxAbs && !math.IsInf(a, 0) {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	for _, x := range q {
		dst = append(dst, int16(quantizeI8(x, scale)))
	}
	for n := len(q); n%i8Chunk != 0; n++ {
		dst = append(dst, 0)
	}
	return dst, scale
}

// Len returns the number of rows.
func (s *StoreI8) Len() int { return s.codes.n }

// Dim returns the row dimension.
func (s *StoreI8) Dim() int { return s.dim }

// Scale returns the shared dequantization factor (max|x|/127).
func (s *StoreI8) Scale() float64 { return s.scale }

// Row returns row i's codes as a view aliasing the backing array.
// Callers must not mutate it.
func (s *StoreI8) Row(i int) []int8 { return s.codes.row(i) }

// Equal reports whether two quantized stores are bit-identical
// (dimension, scale and every code). The segment decoder uses it to
// prove a decoded store matches requantization of the decoded f64
// truth rows.
func (s *StoreI8) Equal(o *StoreI8) bool {
	if s.dim != o.dim || s.Len() != o.Len() ||
		math.Float64bits(s.scale) != math.Float64bits(o.scale) {
		return false
	}
	// Equal row counts give equal chunk boundaries.
	for i, ch := range s.codes.chunks {
		if !slices.Equal(ch, o.codes.chunks[i]) {
			return false
		}
	}
	return true
}

func (s *StoreI8) checkQuery(q vec.Vector) error {
	if len(q) != s.dim {
		return fmt.Errorf("flat: query dimension %d, store has %d", len(q), s.dim)
	}
	return nil
}

// DotRange fills out[0:hi-lo] with approximate dequantized dots of rows
// [lo, hi) against q. Exported for the equivalence tests.
func (s *StoreI8) DotRange(q vec.Vector, lo, hi int, out []float64) error {
	if err := s.checkQuery(q); err != nil {
		return err
	}
	if lo < 0 || hi > s.Len() || lo > hi {
		return fmt.Errorf("flat: DotRange [%d, %d) out of [0, %d)", lo, hi, s.Len())
	}
	if len(out) != hi-lo {
		return fmt.Errorf("flat: DotRange out length %d, want %d", len(out), hi-lo)
	}
	qc, qscale := quantizeQueryI8(nil, q)
	s.dotRange(qc, s.scale*qscale, lo, hi, out)
	return nil
}

// i8Chunk is the codes the AVX2 kernel takes per step: one VPMOVSXBW.
const i8Chunk = 16

// quantSIMD is the one gate between a quantized tier's dotRange and its
// AVX2 kernels, which walk a row chunk elements at a time: every d of
// at least a chunk runs SIMD, the rest (and every machine without AVX2)
// the Go kernels.
func quantSIMD(d, chunk int) bool { return useQuantAsm && d >= chunk }

// dotRange fills out with float64(Σ code·qcode) · combined for rows
// [lo, hi), one kernel call per chunk the range touches; qc is
// quantizeQueryI8's padded form. Accumulation is exact int32 arithmetic
// (|code·qcode| ≤ 127², so any practical dimension fits), which is
// order independent — the AVX2 kernel's pairwise VPMADDWD sums equal
// the scalar loop exactly, no accumulation-chain contract needed. When
// i8Chunk ∤ d the kernel's last load per row reaches into the next row
// (against zero query codes), so the piece's last row — possibly the
// allocation's — is scored by the Go kernel.
func (s *StoreI8) dotRange(qc []int16, combined float64, lo, hi int, out []float64) {
	d, simd := s.dim, quantSIMD(s.dim, i8Chunk)
	for lo < hi {
		codes, l, h := s.codes.span(lo, hi)
		g := l // [g, h) is the Go kernel's
		if simd {
			if g = h; d%i8Chunk != 0 {
				g--
			}
			dotI8Range(codes[l*d:g*d], d, qc, combined, out[:g-l])
		}
		if g < h {
			dotI8RangeGeneric(codes, d, qc, combined, g, h, out[g-l:])
		}
		out = out[h-l:]
		lo += h - l
	}
}

// dotI8RangeGeneric is the any-dimension int8 kernel.
func dotI8RangeGeneric(codes []int8, d int, qc []int16, combined float64, lo, hi int, out []float64) {
	qc = qc[:d:d]
	for r := lo; r < hi; r++ {
		off := r * d
		row := codes[off : off+d : off+d]
		var a0, a1, a2, a3 int32
		j := 0
		for ; j+4 <= d; j += 4 {
			a0 += int32(row[j]) * int32(qc[j])
			a1 += int32(row[j+1]) * int32(qc[j+1])
			a2 += int32(row[j+2]) * int32(qc[j+2])
			a3 += int32(row[j+3]) * int32(qc[j+3])
		}
		for ; j < d; j++ {
			a0 += int32(row[j]) * int32(qc[j])
		}
		out[r-lo] = float64(a0+a1+a2+a3) * combined
	}
}

// View returns the store-order scan view of s.
func (s *StoreI8) View() View { return View{run: run{t: s}} }

// bind implements tier: q quantized against its own scale.
func (s *StoreI8) bind(q vec.Vector, bq *query) {
	var qscale float64
	bq.i16, qscale = quantizeQueryI8(bq.i16[:0], q)
	bq.scale = s.scale * qscale
}

func (s *StoreI8) scoreBlock(bq *query, lo, hi int, out []float64) {
	s.dotRange(bq.i16, bq.scale, lo, hi, out)
}

func (s *StoreI8) extend(fs *Store) (tier, int) {
	q := s.Extend(fs)
	return q, q.SharedRows(s)
}

// TopK is Scan with positional arguments and no deadline (see
// Store.TopK) over the dequantized approximate scores. Callers needing
// exact scores re-rank the hits through the f64 store they quantized
// from.
func (s *StoreI8) TopK(q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error) {
	return s.View().Scan(context.Background(), q, ScanOpts{K: k, Unsigned: unsigned, Workers: workers})
}
