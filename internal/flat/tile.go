// Multi-query (GEMM-style) scan kernels. The single-query kernels in
// flat.go block the *data* dimension; the tile kernels here block the
// *query* dimension as well: DotTile scores a tile of up to maxTileQ
// query rows against a block of data rows in one pass, so each data row
// loaded from memory is amortized across the whole query tile, and the
// d=8/d=16 specializations run as register-blocked AVX2 micro-kernels
// (4 queries × 2 rows per iteration) on amd64.
//
// Every score stays bit-identical to the single-query kernels: the
// per-(row, query) accumulation is the same 4-lane split (lane i mod 4)
// combined as (s0+s1)+(s2+s3), which a 4-wide SIMD vertical
// multiply/add reproduces exactly — lane k of the vector accumulator
// *is* s_k — and the horizontal reduction performs the identical
// (s0+s1)+(s2+s3) additions. No FMA is used (fused rounding would
// break the equivalence). The tile equivalence grid and FuzzDotTile
// pin this down.
//
// View.ScanMulti drives the tile kernel over one data sweep,
// maintaining a per-query accumulator.
package flat

import (
	"fmt"
	"sync"
)

// maxTileQ is the query-tile width of ScanMulti: dots for
// up to maxTileQ queries are materialised per data block before the
// top-k bookkeeping runs. Two quads of the 4-query micro-kernel; at
// blockRows=256 the score tile is 16 KiB, leaving the data block
// cache-resident.
const maxTileQ = 8

// Reset reconfigures the accumulator to keep the best k hits, dropping
// any accumulated state but keeping the backing storage, so pooled
// accumulators reach a zero-allocation steady state.
func (a *Acc) Reset(k int) {
	a.k = k
	a.hits = a.hits[:0]
}

// TileScratch holds the reusable buffers of the scan drivers (the score
// tile, the bound query, per-query flags and counts, and on-demand
// accumulators). A zero value is ready to use; Get/PutTileScratch
// recycle instances through a package pool so steady-state serving
// allocates nothing per scan for them.
type TileScratch struct {
	buf     []float64
	q       query
	pruned  []bool
	scanned []int
	accs    []Acc
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

// prunedBuf returns a cleared n-slot flag buffer.
func (sc *TileScratch) prunedBuf(n int) []bool {
	if cap(sc.pruned) < n {
		sc.pruned = make([]bool, n)
	}
	sc.pruned = sc.pruned[:n]
	clear(sc.pruned)
	return sc.pruned
}

// scannedBuf returns a cleared n-slot count buffer.
func (sc *TileScratch) scannedBuf(n int) []int {
	if cap(sc.scanned) < n {
		sc.scanned = make([]int, n)
	}
	sc.scanned = sc.scanned[:n]
	clear(sc.scanned)
	return sc.scanned
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
// operands. out must have length (qhi-qlo)·(phi-plo).
func (s *Store) DotTile(qs *Store, qlo, qhi, plo, phi int, out []float64) error {
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
	s.scoreTile(qs, qlo, qhi, plo, phi, out)
	return nil
}

// scoreTile is the unchecked tile kernel dispatch (it implements tiler). Query quads run
// through the AVX2 micro-kernels when available (d=8/d=16); leftovers
// and other dimensions run the pure-Go kernels, which share the exact
// accumulation chains, so the split is invisible in the results. The
// micro-kernels want their operands contiguous: a block-aligned sweep
// always hands them data rows inside one chunk, and the rare tile that
// straddles a chunk edge (on either side) drops to the narrower kernels
// for the same bits.
func (s *Store) scoreTile(qs *Store, qlo, qhi, plo, phi int, out []float64) {
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
	j := qlo
	switch d {
	case 16:
		if useDotTileAsm {
			for ; j+4 <= qhi; j += 4 {
				q4 := qs.data.contiguous(j, j+4)
				if q4 == nil {
					break
				}
				o := (j - qlo) * nb
				dotTile16x4(data[lo*16:hi*16], q4, out[o:o+4*nb])
			}
		}
		for ; j+2 <= qhi; j += 2 {
			o := (j - qlo) * nb
			dotTile16x2(data, qs.Row(j), qs.Row(j+1), lo, hi, out[o:o+nb], out[o+nb:o+2*nb])
		}
		if j < qhi {
			dotRange16(data, qs.Row(j), lo, hi, out[(j-qlo)*nb:(j-qlo+1)*nb])
		}
	case 8:
		if useDotTileAsm {
			for ; j+4 <= qhi; j += 4 {
				q4 := qs.data.contiguous(j, j+4)
				if q4 == nil {
					break
				}
				o := (j - qlo) * nb
				dotTile8x4(data[lo*8:hi*8], q4, out[o:o+4*nb])
			}
		}
		for ; j+2 <= qhi; j += 2 {
			o := (j - qlo) * nb
			dotTile8x2(data, qs.Row(j), qs.Row(j+1), lo, hi, out[o:o+nb], out[o+nb:o+2*nb])
		}
		if j < qhi {
			dotRange8(data, qs.Row(j), lo, hi, out[(j-qlo)*nb:(j-qlo+1)*nb])
		}
	default:
		for ; j+2 <= qhi; j += 2 {
			o := (j - qlo) * nb
			dotTileGeneric2(data, d, qs.Row(j), qs.Row(j+1), lo, hi, out[o:o+nb], out[o+nb:o+2*nb])
		}
		if j < qhi {
			dotRangeGeneric(data, d, qs.Row(j), lo, hi, out[(j-qlo)*nb:(j-qlo+1)*nb])
		}
	}
}

// dotTile16x2 is the pure-Go 2-query d=16 kernel: one row load feeds
// both queries' accumulator chains, each chain identical to
// dotRange16's per-row expression.
func dotTile16x2(data []float64, u, v []float64, lo, hi int, out0, out1 []float64) {
	u = u[:16:16]
	v = v[:16:16]
	for r := lo; r < hi; r++ {
		a := data[r*16 : r*16+16 : r*16+16]
		u0 := ((a[0]*u[0] + a[4]*u[4]) + a[8]*u[8]) + a[12]*u[12]
		u1 := ((a[1]*u[1] + a[5]*u[5]) + a[9]*u[9]) + a[13]*u[13]
		u2 := ((a[2]*u[2] + a[6]*u[6]) + a[10]*u[10]) + a[14]*u[14]
		u3 := ((a[3]*u[3] + a[7]*u[7]) + a[11]*u[11]) + a[15]*u[15]
		v0 := ((a[0]*v[0] + a[4]*v[4]) + a[8]*v[8]) + a[12]*v[12]
		v1 := ((a[1]*v[1] + a[5]*v[5]) + a[9]*v[9]) + a[13]*v[13]
		v2 := ((a[2]*v[2] + a[6]*v[6]) + a[10]*v[10]) + a[14]*v[14]
		v3 := ((a[3]*v[3] + a[7]*v[7]) + a[11]*v[11]) + a[15]*v[15]
		out0[r-lo] = (u0 + u1) + (u2 + u3)
		out1[r-lo] = (v0 + v1) + (v2 + v3)
	}
}

// dotTile8x2 is the pure-Go 2-query d=8 kernel (dotRange8's chains).
func dotTile8x2(data []float64, u, v []float64, lo, hi int, out0, out1 []float64) {
	u = u[:8:8]
	v = v[:8:8]
	for r := lo; r < hi; r++ {
		a := data[r*8 : r*8+8 : r*8+8]
		u0 := a[0]*u[0] + a[4]*u[4]
		u1 := a[1]*u[1] + a[5]*u[5]
		u2 := a[2]*u[2] + a[6]*u[6]
		u3 := a[3]*u[3] + a[7]*u[7]
		v0 := a[0]*v[0] + a[4]*v[4]
		v1 := a[1]*v[1] + a[5]*v[5]
		v2 := a[2]*v[2] + a[6]*v[6]
		v3 := a[3]*v[3] + a[7]*v[7]
		out0[r-lo] = (u0 + u1) + (u2 + u3)
		out1[r-lo] = (v0 + v1) + (v2 + v3)
	}
}

// dotTileGeneric2 is the pure-Go 2-query any-dimension kernel
// (dotRangeGeneric's chains, tail folded into lane 0).
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
