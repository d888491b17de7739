// Multi-query (GEMM-style) scan kernels. The single-query kernels in
// flat.go block the *data* dimension; the tile kernels here block the
// *query* dimension as well: DotTile scores a tile of up to maxTileQ
// query rows against a block of data rows in one pass, so each data row
// loaded from memory is amortized across the whole query tile, through
// register-blocked micro-kernels (Goto and van de Geijn, Anatomy of
// High-Performance Matrix Multiplication, ACM TOMS 2008). scoreTile
// picks one per run of query rows from what the CPU and OS support — no
// option selects it — at every dimension of at least one 4-double chunk:
//   - octets, where AVX-512F and the OS's full zmm state are there
//     (x86HasAVX512F: CPUID leaf 7 EBX bit 16 and XCR0 & 0xE6 = 0xE6,
//     since the kernel uses Z16-Z31; tileOctets is the gate): dotTile8
//     scores 8 queries × 2 rows per iteration. It packs the octet into
//     the scratch chunk-major in query pairs — one zmm holds
//     [q₂ₘ[4c:4c+4], q₂ₘ₊₁[4c:4c+4]] — and broadcasts each 4-double
//     chunk of a data row to both halves with VBROADCASTF64X4, a load
//     with no shuffle;
//   - quads, where AVX2 is (tileSIMD): 4 queries × 2 rows per
//     iteration, dotTile4 at every d but 16, which small-hot serves
//     through dotTile16x4, the row stride built in (256 vs 284 µs per
//     20 000-row sweep of 8 queries against dotTile4). They take the
//     quads an octet run leaves, and every quad on a machine without
//     AVX-512;
//   - the single-query sweep (Store.dotRange) for each of the 1–3
//     queries a run leaves;
//   - the pure-Go pair and single kernels without AVX2 or at d < 4.
//
// The top-k bookkeeping after the f64 kernels (block.offer) is one loop.
// It skips the scores below a query's bar sixteen at a time:
// on AVX2 (useDotTileAsm, the quads' gate) with skipBelow — four 4-wide
// unordered not-less-than compares, so a NaN is never skipped — 256
// scores in 44–60 ns against 277–319 for a compare per score; elsewhere
// with skipBelowGeneric, the same answer in Go. Only the rows of a group
// that is not wholly below the bar go one by one through the dead-set
// test to Acc.Offer, which decides ties, NaNs and floors as before.
//
// Every score is vec.Dot's, bit for bit: the per-(row, query)
// accumulation is flat.go's one chain, which a 4-wide SIMD vertical
// multiply/add reproduces exactly — lane k of the vector accumulator
// (of each 4-lane half, in dotTile8) *is* s_k — and the horizontal
// reduction performs the identical (s0+s1)+(s2+s3) additions, with the
// Go code's left operands. No FMA is used: the fused rounding would
// break the equivalence, so wider registers, not FMA, are what unfused
// AVX2 leaves to gain. dotTile4 and dotTile8 zero their
// accumulators before the first multiply/add, and put each of the d
// mod 4 trailing elements in lane 0 with lanes 1-3 zeroed, so lane 0
// takes it and lanes 1-3 add +0, which cannot change a sum that began
// at +0. dotTile16x4 starts from the first products and adds + 0 to
// each score, as dotRange16 does. The tile equivalence grid, its
// special-values pass and FuzzDotTile compare every cell with
// vec.DotKernel by Float64bits on every tier; a guard-page test pins
// every load inside its row.
//
// dotRows4 turns the tile around: one query against four rows, each at
// its own address — dotTile4's one-row body with the query as its row
// and the rows as its queries: +0-started lanes, no FMA, so again
// vec.DotKernel's bits. On AVX2 it scores the candidate verify loop's
// (Store.OfferRows) four scattered rows, elsewhere two dotTileGeneric2
// passes, and the single-query sweep's (Store.dotRange) four contiguous
// rows at every d ≥ 4 but 16. TestOfferRows, FuzzOfferRows,
// TestDotBatchMatchesVecDot and FuzzDotBatch hold each use to
// vec.DotKernel by Float64bits.
//
// View.ScanMulti drives the tile kernel — this one over f64 rows,
// StoreI8's (storei8.go) over int8 rows — over one data sweep,
// maintaining a per-query accumulator.
package flat

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// maxTileQ is the query-tile width of ScanMulti: dots for
// up to maxTileQ queries are materialised per data block before the
// top-k bookkeeping runs. One octet, or two quads; at blockRows=256 the
// score tile is 16 KiB, leaving the data block cache-resident.
const maxTileQ = 8

// Reset reconfigures the accumulator to keep the best k hits, dropping
// any accumulated state, keys and floor but keeping the backing storage,
// so pooled accumulators reach a zero-allocation steady state.
func (a *Acc) Reset(k int) {
	a.k = k
	a.hits = a.hits[:0]
	a.keys = nil
	a.floor = math.Inf(-1)
}

// TileScratch holds the reusable buffers of the scan driver (the score
// tile, the bound queries, per-query flags, bounds and counts, Scan's
// one-row query store, and on-demand accumulators). A zero value is
// ready to use; Get/PutTileScratch recycle instances through a package
// pool so steady-state serving allocates nothing per scan for them.
type TileScratch struct {
	buf     []float64
	pack    []float64
	one     Store
	pruned  []bool
	bounds  []float64
	scanned []int
	ends    []int
	accs    []Acc
	f32     f32Tile
	i8      i8Tile
}

var tileScratchPool = sync.Pool{New: func() any { return new(TileScratch) }}

// GetTileScratch takes a scratch arena from the package pool.
func GetTileScratch() *TileScratch { return tileScratchPool.Get().(*TileScratch) }

// PutTileScratch returns a scratch arena to the package pool. The
// caller must no longer hold views into it (Acc hits included).
func PutTileScratch(sc *TileScratch) { tileScratchPool.Put(sc) }

// tileBuf returns the score-tile buffer (maxTileQ × blockRows).
func (sc *TileScratch) tileBuf() []float64 {
	if cap(sc.buf) < maxTileQ*blockRows {
		sc.buf = make([]float64, maxTileQ*blockRows)
	}
	return sc.buf[:maxTileQ*blockRows]
}

// packBuf returns the buffer the octet kernel packs a query octet of
// dimension d into.
func (sc *TileScratch) packBuf(d int) []float64 {
	n := octetPackLen(d)
	if cap(sc.pack) < n {
		sc.pack = make([]float64, n)
	}
	return sc.pack[:n]
}

// octetPackLen is the length of a packed query octet of dimension d: 8
// queries' 4 lanes for each 4-double chunk and for each of the d mod 4
// trailing elements.
func octetPackLen(d int) int { return 32 * (d/4 + d%4) }

// resize sets *buf to n slots, reusing its capacity, and returns it;
// the slots hold garbage. Growing is one allocation, also under the race
// detector, where slices.Grow takes two.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Scanned returns, per query of the last ScanMulti run with this
// scratch, the rows whose score was evaluated. The slice is owned by
// the scratch and overwritten by the next call.
func (sc *TileScratch) Scanned() []int { return sc.scanned }

// Accs returns n accumulators, each reset to keep k hits. The slice
// and the accumulators' storage are owned by the scratch and reused
// across calls.
func (sc *TileScratch) Accs(n, k int) []Acc {
	if cap(sc.accs) < n {
		accs := make([]Acc, n)
		copy(accs, sc.accs)
		sc.accs = accs
	}
	accs := sc.accs[:n]
	for i := range accs {
		accs[i].Reset(k)
	}
	return accs
}

// DotTile fills out with the Q×B score tile of query rows [qlo, qhi)
// of qs against data rows [plo, phi): out[j*(phi-plo)+r] =
// row(plo+r)ᵀ·qs.Row(qlo+j). The tile is computed in one pass over the
// data block — each data row load is shared by every query of the tile
// — and every score is bit-identical to Dot/DotRange on the same
// operands. out must have length (qhi-qlo)·(phi-plo); sc, not nil, is
// the scratch the octet kernel packs its queries into.
func (s *Store) DotTile(qs *Store, qlo, qhi, plo, phi int, out []float64, sc *TileScratch) error {
	if qs.dim != s.dim {
		return fmt.Errorf("flat: DotTile query dimension %d, store has %d", qs.dim, s.dim)
	}
	if qlo < 0 || qhi > qs.Len() || qlo > qhi {
		return fmt.Errorf("flat: DotTile queries [%d, %d) out of [0, %d)", qlo, qhi, qs.Len())
	}
	if plo < 0 || phi > s.Len() || plo > phi {
		return fmt.Errorf("flat: DotTile rows [%d, %d) out of [0, %d)", plo, phi, s.Len())
	}
	if len(out) != (qhi-qlo)*(phi-plo) {
		return fmt.Errorf("flat: DotTile out length %d, want %d", len(out), (qhi-qlo)*(phi-plo))
	}
	s.scoreTile(qs, qlo, qhi, plo, phi, out, sc)
	return nil
}

// tileSIMD is the gate between scoreTile and the AVX2 quad
// micro-kernels: on an AVX2 machine every d of at least one 4-double
// chunk runs SIMD, and the rest (and every machine without AVX2) the Go
// kernels.
func tileSIMD(d int) bool { return useDotTileAsm && d >= 4 }

// tileOctets is the gate between scoreTile and the AVX-512 octet
// micro-kernel: on a machine with AVX-512F, at the same dimensions.
func tileOctets(d int) bool { return useOctetAsm && d >= 4 }

// quadKernel and octetKernel are the micro-kernels scoreTile hands a
// query quad and a query octet to. Variables only so a test can count
// the runs the assembly serves — the scores cannot tell, every path
// returns the same bits.
var (
	quadKernel  = dotTileQuad
	octetKernel = dotTile8
)

// dotTileQuad scores the 4 contiguous query rows of q against the
// len(p)/d contiguous data rows of p on the AVX2 micro-kernel for d
// (tileSIMD(d) must hold): out[j*nr+r] = p_row(r)·q_row(j).
func dotTileQuad(p []float64, d int, q, out []float64) {
	if d == 16 {
		dotTile16x4(p, q, out)
	} else {
		dotTile4(p, d, q, out)
	}
}

// scoreTile is the unchecked tile kernel dispatch behind offerTile.
// Where tileOctets(d) holds, query octets run through the AVX-512
// micro-kernel, packed into sc; where tileSIMD(d) holds, the
// quads left run through the AVX2 micro-kernels and each leftover query
// through dotRange's sweep (two sweeps of a 1 024-row chunk take
// 0.25–0.6× one Go pair-kernel pass at d = 24–64, ≈ 0.7× at d = 16);
// elsewhere queries run the pure-Go pair and single kernels. All share
// the exact accumulation chains, so the split is invisible in the
// results. The micro-kernels want their operands contiguous: a
// block-aligned sweep always hands them data rows inside one chunk, a
// tile whose data rows straddle a chunk edge is scored query by query,
// and an octet or quad whose query rows straddle one falls to the next
// narrower kernel — the octets and quads after the edge are served by
// the assembly again.
func (s *Store) scoreTile(qs *Store, qlo, qhi, plo, phi int, out []float64, sc *TileScratch) {
	d := s.dim
	nb := phi - plo
	if nb <= 0 || qhi-qlo <= 0 {
		return
	}
	data, lo, hi := s.data.span(plo, phi)
	if hi-lo != nb {
		for j := qlo; j < qhi; j++ {
			s.dotRange(qs.Row(j), plo, phi, out[(j-qlo)*nb:(j-qlo+1)*nb])
		}
		return
	}
	rows := data[lo*d : hi*d]
	octets, quads := tileOctets(d), tileSIMD(d)
	for j := qlo; j < qhi; {
		o := out[(j-qlo)*nb:]
		var q8, q4 []float64
		if octets && j+8 <= qhi {
			q8 = qs.data.contiguous(j, j+8)
		}
		if q8 == nil && quads && j+4 <= qhi {
			q4 = qs.data.contiguous(j, j+4)
		}
		switch {
		case q8 != nil:
			octetKernel(rows, d, q8, sc.packBuf(d), o[:8*nb])
			j += 8
		case q4 != nil:
			quadKernel(rows, d, q4, o[:4*nb])
			j += 4
		case j+2 <= qhi && !quads:
			dotTileGeneric2(data, d, qs.Row(j), qs.Row(j+1), lo, hi, o[:nb], o[nb:2*nb])
			j += 2
		default:
			s.dotRange(qs.Row(j), plo, phi, o[:nb])
			j++
		}
	}
}

// bindTile implements tier: the f64 kernels read the query rows as
// stored.
func (s *Store) bindTile(qs *Store, qlo, qhi int, sc *TileScratch) {}

// offerTile implements tier: scoreTile scores the tile to the farthest
// query's end, and each query is offered its own stretch of the scores.
func (s *Store) offerTile(b block, qs *Store, qlo int, accs []Acc, ends []int, sc *TileScratch) {
	nb := slices.Max(ends) - b.start
	buf := sc.tileBuf()
	s.scoreTile(qs, qlo, qlo+len(accs), b.start, b.start+nb, buf, sc)
	for j := range accs {
		b.offer(&accs[j], buf[j*nb:j*nb+ends[j]-b.start])
	}
}

// scoreRows4 is the candidate verify kernel: out[j] = r_j·q for four
// rows of len(q) floats, each wherever it lies. Where tileSIMD holds it
// is dotRows4, one AVX2 call; elsewhere two dotTileGeneric2 passes, q
// as the one data row and a pair of the rows as its queries. Both are
// dotRangeGeneric's chains.
func scoreRows4(q, r0, r1, r2, r3 []float64, out *[4]float64) {
	d := len(q)
	if tileSIMD(d) {
		dotRows4(q, r0, r1, r2, r3, out)
		return
	}
	dotTileGeneric2(q, d, r0, r1, 0, 1, out[0:1], out[1:2])
	dotTileGeneric2(q, d, r2, r3, 0, 1, out[2:3], out[3:4])
}

// dotTileGeneric2 is the pure-Go 2-query kernel: one row load feeds
// both queries' chains (dotRangeGeneric's, tail folded into lane 0).
func dotTileGeneric2(data []float64, d int, u, v []float64, lo, hi int, out0, out1 []float64) {
	u = u[:d:d]
	v = v[:d:d]
	for r := lo; r < hi; r++ {
		off := r * d
		row := data[off : off+d : off+d]
		var u0, u1, u2, u3, v0, v1, v2, v3 float64
		i := 0
		for ; i+4 <= d; i += 4 {
			a, b, c, e := row[i], row[i+1], row[i+2], row[i+3]
			u0 += a * u[i]
			u1 += b * u[i+1]
			u2 += c * u[i+2]
			u3 += e * u[i+3]
			v0 += a * v[i]
			v1 += b * v[i+1]
			v2 += c * v[i+2]
			v3 += e * v[i+3]
		}
		for ; i < d; i++ {
			u0 += row[i] * u[i]
			v0 += row[i] * v[i]
		}
		out0[r-lo] = (u0 + u1) + (u2 + u3)
		out1[r-lo] = (v0 + v1) + (v2 + v3)
	}
}
