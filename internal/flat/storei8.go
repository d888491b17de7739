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
// Where the CPU has AVX-512 VNNI a batch (View.ScanMulti) compares in
// the code domain instead. Before each block, each query's bar — its
// k-th best once its accumulator is full — becomes an int32 code floor
// F, the largest t with float64(t)·combined ≤ bar (codeFloor). One pass
// over the block's codes scores a tile of up to maxTileQ queries, one
// gather per 4-code column of 16 rows and one VPDPBUSD per query
// (dotI8Tile, i8tile_amd64.s), and writes exact int32 dots and a mask
// of the rows with dot > F (|dot| > F when unsigned). Only those rows
// are dequantized, float64(dot)·combined as above, and offered under
// the float compare the single-query bookkeeping makes. Rounding is
// monotone, so a row the mask drops scores at or under the bar: a row
// that bookkeeping skips too. The accumulators see the same offers in
// the same order, and hits and ScanStats are Scan's per query, bit for
// bit. Elsewhere a batch sweeps the rows once per query, as Scan does:
// an AVX2 form of the code-domain kernel, run per query, measured
// slower than that.
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
	"math/bits"
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

// i8TileSIMD is the gate of the VNNI tile kernel: every d of at least
// one 4-code column, where the machine has AVX-512 VNNI.
func i8TileSIMD(d int) bool { return useI8TileAsm && d >= 4 }

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

// codeFloor returns the largest int32 t with float64(t)·combined ≤ bar
// (combined ≥ 0; a NaN product fails the test), or math.MinInt32 when
// even that one fails. Rounding is monotone, so a dot ≤ the floor
// scores ≤ bar — a row the bookkeeping would skip against that bar.
// ⌊bar/combined⌋ is the answer but for rounding, a step either way, so
// two products usually settle it; where it is further off (a product
// overflowed) a binary search between the int32 ends finds it.
func codeFloor(bar, combined float64) int32 {
	holds := func(t int64) bool { return float64(t)*combined <= bar }
	switch {
	case holds(math.MaxInt32):
		return math.MaxInt32
	case !holds(math.MinInt32):
		return math.MinInt32
	case math.IsInf(combined, 1):
		return -1 // 0·Inf is NaN, every t < 0 scores −Inf ≤ bar
	}
	// combined is finite and > 0 (at 0 the two ends agree), so holds is
	// true up to the answer and false past it.
	lo, hi := int64(math.MinInt32), int64(math.MaxInt32) // holds(lo), !holds(hi)
	if f := math.Floor(bar / combined); f > math.MinInt32 && f < math.MaxInt32 {
		if t := int64(f); holds(t) {
			lo = t
			if !holds(t + 1) {
				hi = t + 1
			}
		} else {
			hi = t
			if holds(t - 1) {
				lo = t - 1
			}
		}
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; holds(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// tileFloor is query a's code floor for the next block: math.MinInt32 —
// every row passes — while a is under-full, when offerScores offers
// every row, and else codeFloor of the k-th best. Unsigned scores are
// ≥ 0, so an unsigned floor below 0 lets every row pass too.
func tileFloor(a *Acc, combined float64, unsigned bool) int32 {
	if !a.Full() {
		return math.MinInt32
	}
	f := codeFloor(a.Threshold(), combined)
	if unsigned && f < 0 {
		return math.MinInt32
	}
	return f
}

// i8Tile is the int8 tier's ScanMulti state: the queries, bound once per
// sweep, and one tile kernel call's output.
type i8Tile struct {
	qlo      int       // the qs row of query 0
	stride   int       // codes per query in i16
	i16      []int16   // query j's quantizeQueryI8 codes at j·stride
	cols     []int32   // the VNNI kernel's form: column c of query j at c·nq + j
	nbias    []int32   // −128 times query j's code sum (VNNI)
	combined []float64 // the store's scale times query j's
	floors   [maxTileQ]int32
	dots     [maxTileQ * blockRows]int32
	mask     [maxTileQ * maskWords]uint64
}

// maskWords is the mask words of one query of a tile.
const maskWords = blockRows / 64

// tileKernel implements tiler: the tile kernel is the VNNI one.
func (s *StoreI8) tileKernel() bool { return i8TileSIMD(s.dim) }

// bindTile implements tiler: query rows [qlo, qhi) of qs, each quantized
// against its own scale as bind quantizes it, then packed for the VNNI
// kernel.
func (s *StoreI8) bindTile(qs *Store, qlo, qhi int, sc *TileScratch) {
	t := &sc.i8
	t.qlo, t.stride = qlo, i8Chunk*((s.dim+i8Chunk-1)/i8Chunk)
	t.i16, t.combined = t.i16[:0], t.combined[:0]
	for j := qlo; j < qhi; j++ {
		var qscale float64
		t.i16, qscale = quantizeQueryI8(t.i16, qs.Row(j))
		t.combined = append(t.combined, s.scale*qscale)
	}
	t.pack(s.dim)
}

// pack lays the len(t.combined) queries of t.i16 out for the VNNI
// kernel at d ≥ 4: by 4-code column — column c covers codes
// [o, o+4), o = min(4c, d−4), so a row's last column stays inside it,
// and holds zero for the codes an earlier column already covered —
// with each query's −128·Σ codes beside.
func (t *i8Tile) pack(d int) {
	nq, cols := len(t.combined), (d+3)/4
	t.cols = slices.Grow(t.cols[:0], cols*nq)[:cols*nq]
	t.nbias = t.nbias[:0]
	for j := 0; j < nq; j++ {
		qc := t.i16[j*t.stride : j*t.stride+d]
		var sum int32
		for _, c := range qc {
			sum += int32(c)
		}
		t.nbias = append(t.nbias, -128*sum)
		for c := 0; c < cols; c++ {
			o := min(4*c, d-4)
			var w uint32
			for i := max(0, 4*c-o); i < 4; i++ {
				w |= uint32(uint8(qc[o+i])) << (8 * i)
			}
			t.cols[c*nq+j] = int32(w)
		}
	}
}

// offerTile implements tiler in the code domain. Each query's bar
// becomes an int32 code floor (tileFloor); one kernel pass over the
// block's codes writes every query's exact int32 dots and the rows that
// beat its floor (tileDots); and only those rows are dequantized and
// offered (offerCodes).
func (s *StoreI8) offerTile(b block, _ *Store, qlo int, accs []Acc, ends []int, sc *TileScratch) {
	t := &sc.i8
	j0 := qlo - t.qlo
	for j := range accs {
		t.floors[j] = tileFloor(&accs[j], t.combined[j0+j], b.unsigned)
	}
	s.tileDots(t, j0, len(accs), b.start, slices.Max(ends)-b.start, b.unsigned)
	for j := range accs {
		b.offerCodes(&accs[j], t.dots[j*blockRows:][:ends[j]-b.start], t.mask[j*maskWords:], t.floors[j], t.combined[j0+j])
	}
}

// tileDots fills t.dots and t.mask for tile queries [j0, j0+nq) against
// rows [start, start+n) — a block, which never straddles a chunk — in
// one VNNI kernel pass.
func (s *StoreI8) tileDots(t *i8Tile, j0, nq, start, n int, unsigned bool) {
	codes := s.codes.contiguous(start, start+n)
	dotI8Tile(codes, s.dim, n, t.cols[j0:], len(t.combined), t.nbias[j0:j0+nq], t.floors[:nq], unsigned, t.dots[:], t.mask[:])
}

// offerCodes is offerScores over the code dots of b's rows: it offers
// a, in ascending row order, the rows whose mask bit is set — every row
// when floor is math.MinInt32 — each scored float64(dot)·combined as
// scoreBlock scores it (|…| when unsigned), skipping dead rows and, once
// a is full, scores at or under its k-th best, as offerScores does. A
// clear bit means dot ≤ floor, hence (codeFloor) a score at or under the
// bar the floor was taken from, which only rises: a row offerScores
// skips too. So a sees offerScores's offers, in its order. b is a
// store-order block: an int8 view is never norm-sorted.
func (b block) offerCodes(a *Acc, dots []int32, mask []uint64, floor int32, combined float64) {
	full, thr := a.Full(), a.Threshold()
	for w := 0; w*64 < len(dots); w++ {
		m := ^uint64(0)
		if floor != math.MinInt32 {
			m = mask[w]
		}
		if rest := len(dots) - w*64; rest < 64 {
			m &= 1<<rest - 1
		}
		for m != 0 {
			r := w*64 + bits.TrailingZeros64(m)
			m &= m - 1
			v := float64(dots[r]) * combined
			if b.unsigned && v < 0 {
				v = -v
			}
			if full && v <= thr || b.dead.Dead(b.off+b.start+r) {
				continue
			}
			a.Offer(b.start+r, v)
			full, thr = a.Full(), a.Threshold()
		}
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
