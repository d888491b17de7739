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
// A batch (View.ScanMulti) certifies its answers, the filter-and-refine
// of the VA-file (Weber, Schek and Blott, VLDB 1998). Write a row as
// x = s·c + a and a query as q = qs·e + b, c and e their codes: each
// |aᵢ| ≤ s/2 and |bᵢ| ≤ qs/2, so
//
//	|x·q − s·qs·(c·e)| ≤ (s/2)·‖q‖₁ + (s·qs/2)·‖c‖₁.
//
// The store keeps the largest ‖c‖₁ over its rows, so bindTile gives each
// query one ε — that bound under the store's maximum, plus the rounding
// of the f64 dot and of the dequantized score, padded — with
// |f64 dot − dequantized score| ≤ ε for every row (slack). Each query
// keeps an accumulator of its k best dequantized scores, and every live
// row within 2ε of its k-th best is listed as a candidate; at the end the
// list is trimmed to the final k-th best less 2ε (Candidates). The k
// rows of the dequantized top k each score at least that k-th best less
// ε in f64, so every row of the f64 top k does too, and its dequantized
// score is at least the k-th best less 2ε: the list holds the whole f64
// top k, ties included (|·| when unsigned keeps every bound), and
// re-ranking it through the f64 rows (Store.OfferRows) answers as the
// f64 scan does, bit for bit. Under a floor f (Acc.SetFloor) the bar is
// the accumulator's threshold, max(f, its k-th best): a row of the f64
// top k among the rows scoring at least f either scores at least the bar
// less ε in f64 — and is listed — or lies below the f64 scores of k code
// hits that all reach f, which would outrank it; so the list holds that
// top k, and a re-rank under the same floor answers it.
// Where the codes bound nothing — a row with a non-finite element, a
// subnormal scale, a query whose ‖q‖₁ overflows — ε is +Inf and every
// live row is a candidate.
//
// Where the CPU has AVX-512 VNNI and BW the batch compares in the code
// domain. Before each block, each query's bar less 2ε becomes an int32
// code floor F, the largest t with float64(t)·combined below it
// (tileFloor). One pass over the block's codes scores a tile of up to
// maxTileQ queries: it reads 16 rows at a time, whole rows per load,
// transposes them in registers to 4-code columns, one row per lane, and
// takes one VPDPBUSD per column and query (dotI8Tile, i8tile_amd64.s),
// writing exact int32 dots and a mask of the rows with dot > F
// (|dot| > F when unsigned). Only those
// rows are dequantized, float64(dot)·combined as above, and offered
// (offerCodes): rounding is monotone, so a row the mask drops scores
// below the bar less 2ε, a row that is neither offered nor listed.
// Elsewhere the tile scores each query block by block with dotRange,
// masks the scores against the same bar (scoreMask) and makes the same
// offers. Either way the accumulators see the offers a
// per-query Scan makes, so they and ScanStats are Scan's, bit for bit.
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
// only through Extend, in step with the store it mirrors. maxL1, the
// largest Σ|code| over the rows, and unbounded, set when a row holds a
// non-finite element, are what a batch's certificate needs (slack).
type StoreI8 struct {
	dim       int
	codes     chunked[int8]
	scale     float64
	maxL1     int
	unbounded bool
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
	q := &StoreI8{dim: s.dim, scale: s.scale, maxL1: s.maxL1, unbounded: s.unbounded}
	s.codes.share(&q.codes)
	q.encode(fs)
	return q
}

// encode appends the codes of the rows of fs that q does not hold yet.
// A row whose cached norm is not finite holds a non-finite element (or
// overflows), which no code approximates.
func (q *StoreI8) encode(fs *Store) {
	d := q.dim
	for i := q.Len(); i < fs.Len(); {
		codes := q.codes.grow(fs.Len() - i)
		for r := 0; r < len(codes)/d; r++ {
			row := codes[r*d : (r+1)*d]
			for j, x := range fs.Row(i + r) {
				row[j] = quantizeI8(x, q.scale)
			}
			q.maxL1 = max(q.maxL1, codeL1(row))
			if !(fs.Norm(i+r) <= math.MaxFloat64) {
				q.unbounded = true
			}
		}
		i += len(codes) / d
	}
}

// codeL1 returns Σ|code| over row, branch free.
func codeL1(row []int8) int {
	l1 := 0
	for _, c := range row {
		m := int(c) >> 7
		l1 += (int(c) ^ m) - m
	}
	return l1
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
// halves rounded away from zero, clamped to the symmetric range. A zero
// scale (all-zero store) codes everything as 0; non-finite inputs
// saturate deterministically. Inside the range, adding just under a half
// of v's sign and truncating is math.Round(v) exactly (the sum rounds up
// to the next integer only from a half or above), without its branches.
func quantizeI8(x, scale float64) int8 {
	if scale == 0 {
		return 0
	}
	v := x / scale
	switch {
	case v >= 127.5:
		return 127
	case v <= -127.5:
		return -127
	case v != v:
		return 0
	}
	return int8(v + math.Copysign(0.49999999999999994, v))
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

// i8TileSIMD is the gate of the VNNI tile kernel: every d ≥ 4, where
// the machine has AVX-512 VNNI and BW.
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

// slack returns 2ε for a query of ℓ1 norm l1 coded under qscale: every
// row's f64 dot with the query — as computed, the f64 scan's score —
// lies within ε of its dequantized score. Beside the quantization bound
// (see the package comment) ε covers the code roundings, |x/s − c| ≤
// 1/2 + 127·2⁻⁵³ and likewise for the query; the f64 dot's, within
// (d+2)·2⁻⁵³ of Σ|xᵢqᵢ| ≤ 127·s·‖q‖₁; and the dequantized product's two,
// within 2⁻⁵² of 127·s·qs·‖c‖₁ — all inside the relative pad
// (d+16)·2⁻⁴⁴ — and underflow in any of them inside the absolute term.
// It is +Inf where the codes bound nothing: a non-finite row, a
// subnormal scale (max/127 then loses relative precision and a code can
// clamp), dots that can wrap int32, or an ε too large for the scores
// around it to stay finite.
func (s *StoreI8) slack(l1, qscale float64) float64 {
	normal := func(x float64) bool { return x == 0 || x >= 0x1p-1022 }
	if s.unbounded || !normal(s.scale) || !normal(qscale) || 127*s.maxL1 > math.MaxInt32 {
		return math.Inf(1)
	}
	d, c := float64(s.dim), float64(s.maxL1)
	eps := (s.scale/2*l1+s.scale*qscale/2*c)*(1+(d+16)*0x1p-44) + (d+127*c+4)*0x1p-1074
	if !(eps < math.MaxFloat64/1024) {
		return math.Inf(1)
	}
	return 2 * eps
}

// tileFloor is query a's code floor for the next block: the largest t
// whose score float64(t)·combined is strictly below a's bar less slack
// (codeFloor), so a row the floor drops is neither offered nor listed;
// math.MinInt32 — every row passes — while a is under-full or slack is
// +Inf. Unsigned scores are ≥ 0, so an unsigned floor below 0 lets
// every row pass too.
func tileFloor(a *Acc, combined, slack float64, unsigned bool) int32 {
	lo := a.Threshold() - slack
	if !(lo > -math.MaxFloat64) {
		return math.MinInt32
	}
	f := codeFloor(math.Nextafter(lo, math.Inf(-1)), combined)
	if unsigned && f < 0 {
		return math.MinInt32
	}
	return f
}

// i8Tile is the int8 tier's ScanMulti state: the queries, bound once per
// sweep, their candidate lists, and one tile kernel call's output.
type i8Tile struct {
	qlo      int       // the qs row of query 0
	stride   int       // codes per query in i16
	i16      []int16   // query j's quantizeQueryI8 codes at j·stride
	pieces   []int8    // the VNNI kernel's form of the queries (pack)
	nbias    []int32   // −128 times query j's code sum (VNNI)
	combined []float64 // the store's scale times query j's
	slack    []float64 // query j's 2ε (StoreI8.slack)
	// cands[j] lists query j's live rows that scored within slack[j] of
	// its bar when scanned, in row order, with their dequantized scores.
	cands  [][]Hit
	rows   []int // Candidates' result
	floors [maxTileQ]int32
	dots   [maxTileQ * blockRows]int32
	mask   [maxTileQ * maskWords]uint64
}

// maskWords is the mask words of one query of a tile.
const maskWords = blockRows / 64

// bindTile implements tier: query rows [qlo, qhi) of qs, each quantized
// against its own scale and given its ε, with an empty candidate list,
// then packed for the VNNI kernel where it runs.
func (s *StoreI8) bindTile(qs *Store, qlo, qhi int, sc *TileScratch) {
	t := &sc.i8
	t.qlo, t.stride = qlo, i8Chunk*((s.dim+i8Chunk-1)/i8Chunk)
	t.i16, t.combined, t.slack = t.i16[:0], t.combined[:0], t.slack[:0]
	t.cands = slices.Grow(t.cands[:0], qhi-qlo)[:qhi-qlo]
	for j := qlo; j < qhi; j++ {
		var qscale, l1 float64
		t.i16, qscale = quantizeQueryI8(t.i16, qs.Row(j))
		for _, x := range qs.Row(j) {
			l1 += math.Abs(x)
		}
		t.combined = append(t.combined, s.scale*qscale)
		t.slack = append(t.slack, s.slack(l1, qscale))
		t.cands[j-qlo] = t.cands[j-qlo][:0]
	}
	if i8TileSIMD(s.dim) {
		t.pack(s.dim)
	}
}

// Candidates returns query j's certified candidates from the last
// ScanMulti over an int8 view with this scratch — a being accs[j] as that
// scan left it: its live rows whose dequantized score is within 2ε of
// a's threshold, every row of the f64 top k among them (among the rows
// at or above a's floor, under one), ties included.
// Re-ranked through the f64 rows (Store.OfferRows) they give the f64
// scan's hits bit for bit. The slice is owned by the scratch and
// overwritten by the next call.
func (sc *TileScratch) Candidates(j int, a *Acc) []int {
	t := &sc.i8
	lo := a.Threshold() - t.slack[j]
	t.rows = t.rows[:0]
	for _, h := range t.cands[j] {
		if !(h.Score < lo) {
			t.rows = append(t.rows, h.Index)
		}
	}
	return t.rows
}

// pack lays the len(t.combined) queries of t.i16 out for the VNNI
// kernel, as it reads a row: query j's codes at j·t.stride narrowed to
// bytes, zero past d, 16-code piece k at 16k — but where 16 ∤ d > 16
// the last piece's d mod 16 codes move to its end, since the kernel
// reads that piece at d − 16 to stay inside the row, and the codes
// before them, which the piece before covered, weigh zero. Beside them,
// each query's −128·Σ codes.
func (t *i8Tile) pack(d int) {
	nq, w := len(t.combined), t.stride
	t.pieces = slices.Grow(t.pieces[:0], nq*w)[:nq*w]
	t.nbias = t.nbias[:0]
	for j := 0; j < nq; j++ {
		q := t.pieces[j*w : (j+1)*w]
		var sum int32
		for i, c := range t.i16[j*w : (j+1)*w] {
			q[i] = int8(c)
			sum += int32(c)
		}
		t.nbias = append(t.nbias, -128*sum)
		if r := d % 16; d > 16 && r != 0 {
			last := q[w-16:]
			copy(last[16-r:], last[:r])
			clear(last[:16-r])
		}
	}
}

// offerTile implements tier. On the VNNI tier each query's bar less 2ε
// becomes an int32 code floor (tileFloor), and one kernel pass over the
// block's codes writes every query's exact int32 dots and a mask of the
// rows that beat its floor (tileDots). Elsewhere each query's rows are
// scored by dotRange, the dequantized scores, and the mask holds the
// scores not below the bar less 2ε (scoreMask). Either way only the
// masked rows are offered (offerCodes).
func (s *StoreI8) offerTile(b block, _ *Store, qlo int, accs []Acc, ends []int, sc *TileScratch) {
	t := &sc.i8
	j0 := qlo - t.qlo
	if i8TileSIMD(s.dim) {
		for j := range accs {
			t.floors[j] = tileFloor(&accs[j], t.combined[j0+j], t.slack[j0+j], b.unsigned)
		}
		s.tileDots(t, j0, len(accs), b.start, slices.Max(ends)-b.start, b.unsigned)
		for j := range accs {
			mask := t.mask[j*maskWords:]
			if t.floors[j] == math.MinInt32 {
				mask = nil
			}
			offerCodes(b, &accs[j], &t.cands[j0+j], t.dots[j*blockRows:][:ends[j]-b.start], mask, t.combined[j0+j], t.slack[j0+j])
		}
		return
	}
	buf := sc.tileBuf()
	for j := range accs {
		q, n := j0+j, ends[j]-b.start
		s.dotRange(t.i16[q*t.stride:(q+1)*t.stride], t.combined[q], b.start, ends[j], buf[:n])
		mask := scoreMask(t.mask[:maskWords], buf[:n], accs[j].Threshold()-t.slack[q], b.unsigned)
		offerCodes(b, &accs[j], &t.cands[q], buf[:n], mask, 1, t.slack[q])
	}
}

// tileDots fills t.dots and t.mask for tile queries [j0, j0+nq) against
// rows [start, start+n) — a block, which never straddles a chunk — in
// one VNNI kernel pass.
func (s *StoreI8) tileDots(t *i8Tile, j0, nq, start, n int, unsigned bool) {
	codes := s.codes.contiguous(start, start+n)
	dotI8Tile(codes, s.dim, n, t.pieces[j0*t.stride:], t.stride, t.nbias[j0:j0+nq], t.floors[:nq], unsigned, t.dots[:], t.mask[:])
}

// scoreMask sets bit r of mask exactly when scores[r] (|…| when
// unsigned) is not below lo — NaN included — the float form of the VNNI
// kernel's compare with its code floor.
func scoreMask(mask []uint64, scores []float64, lo float64, unsigned bool) []uint64 {
	clear(mask)
	for r, v := range scores {
		if unsigned {
			v = math.Abs(v)
		}
		if !(v < lo) {
			mask[r>>6] |= 1 << (r & 63)
		}
	}
	return mask
}

// offerCodes is the certified offer over the dots of b's rows — exact
// int32 code dots, or dotRange's scores under a unit combined — in
// ascending row order, of the rows whose mask bit is set, every row when
// mask is nil. Each is scored float64(dot)·combined, dotRange's
// dequantized score (|…| when unsigned). A dead row, or one below a's
// bar less slack, is skipped; the rest are listed in cands, and offered to a unless the
// score is below its threshold, or a is full and the score ties its k-th
// best. A clear bit means
// (tileFloor, scoreMask) a score below the bar less slack, which only
// rises: a row skipped here too. a only sets the certificate's bar, whose
// value no tie at it changes, so skipping ties is safe even when a is
// keyed (Acc.SetKeys): they stay in cands, and the re-rank of cands
// decides their order. b is a store-order block: an int8 view is never
// norm-sorted.
func offerCodes[D int32 | float64](b block, a *Acc, cands *[]Hit, dots []D, mask []uint64, combined, slack float64) {
	full, thr := a.Full(), a.Threshold()
	lo := thr - slack
	for w := 0; w*64 < len(dots); w++ {
		m := ^uint64(0)
		if mask != nil {
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
			if v < lo || b.dead.Dead(b.off+b.start+r) {
				continue
			}
			*cands = append(*cands, Hit{Index: b.start + r, Score: v})
			if v < thr || full && v == thr {
				continue
			}
			a.Offer(b.start+r, v)
			full, thr = a.Full(), a.Threshold()
			lo = thr - slack
		}
	}
}

// View returns the store-order scan view of s.
func (s *StoreI8) View() View { return View{run: run{t: s}} }

func (s *StoreI8) extend(fs *Store) (tier, int) {
	q := s.Extend(fs)
	return q, q.SharedRows(s)
}

// TopK is Scan with positional arguments and no deadline (see
// Store.TopK) over the dequantized approximate scores. An exact answer
// re-ranks ScanMulti's certified candidates (TileScratch.Candidates)
// through the f64 store they were quantized from.
func (s *StoreI8) TopK(q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error) {
	return s.View().Scan(context.Background(), q, ScanOpts{K: k, Unsigned: unsigned})
}
