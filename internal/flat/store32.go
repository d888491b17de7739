// Quantized speed tier 1: float32 columnar storage. Store32 mirrors
// Store's layout at half the bytes per element, so a scan moves twice
// the rows per cache line; scores are computed in float32 (widened to
// float64 only at the block-buffer boundary, where the shared scan
// drivers take over). Every dimension of at least one YMM register of
// floats runs dot32Range, the AVX2 kernel from quant_amd64.s
// (quantSIMD), at twice the lanes of the f64 tile kernels; no dimension
// has a kernel of its own (at d = 8 and 16 the any-d kernel is the
// faster one, see quant_amd64.s). Float addition is not associative,
// so — unlike the int8 tier — the kernel has an ordering contract:
// dot32RangeGeneric below spells out the accumulation chain its AVX2
// twin computes, float32 arithmetic in Go is exact IEEE binary32, so
// the two are bit-identical and the dispatch gate (useQuantAsm) is free
// to differ across machines without changing answers.
//
// Scores are f32-accurate, not exact: callers that need the f64
// ordering re-rank a widened candidate set through the retained f64
// store (the serving layer's rerank pipeline). The norm-sorted view
// keeps the Cauchy–Schwarz early exit sound under rounding by inflating
// the bound with a d-scaled epsilon before pruning.
package flat

import (
	"context"
	"fmt"
	"math"

	"repro/internal/vec"
)

// Store32 is the float32 mirror of a Store: row i is d contiguous
// float32s inside one chunk, norms caches the float64 Euclidean norm of
// the widened row (it drives the norm-pruned scan's bound, so it is
// kept at full precision). It grows only through Extend, in step with
// the store it mirrors.
type Store32 struct {
	dim   int
	data  chunked[float32]
	norms chunked[float64]
}

// NewStore32 builds the float32 view of s by rounding every element to
// the nearest binary32. When the source rows are already binary32
// representable (the f32 ingest path rounds before the WAL), the
// conversion is lossless and the view decodes bit-identically from a
// segment round trip.
func NewStore32(s *Store) *Store32 {
	q := newStore32(s.dim)
	q.convert(s, 0)
	return q
}

func newStore32(d int) *Store32 {
	q := &Store32{dim: d}
	q.data.width, q.norms.width = d, 1
	return q
}

// Extend returns the float32 view of fs, an append-only store whose
// leading s.Len() rows are the rows s mirrors: only fs's later rows are
// converted, and the result shares every other chunk with s, which
// keeps serving untouched. The result is what NewStore32(fs) builds.
func (s *Store32) Extend(fs *Store) *Store32 {
	q := &Store32{dim: s.dim}
	s.data.share(&q.data)
	s.norms.share(&q.norms)
	q.convert(fs, s.Len())
	return q
}

// convert appends the rounded rows of fs from row from on.
func (q *Store32) convert(fs *Store, from int) {
	d := q.dim
	for i := from; i < fs.Len(); {
		rows, norms := q.grow(fs.Len() - i)
		for r := range norms {
			dst := rows[r*d : (r+1)*d]
			for j, x := range fs.Row(i + r) {
				dst[j] = float32(x)
			}
			norms[r] = norm64of32(dst)
		}
		i += len(norms)
	}
}

// grow extends both columns by the same k ≤ want rows (see Store.grow).
func (s *Store32) grow(want int) (rows []float32, norms []float64) {
	rows = s.data.grow(want)
	return rows, s.norms.grow(len(rows) / s.dim)
}

// SharedRows returns how many leading rows of s occupy the same memory
// as rows of p (see Store.SharedRows).
func (s *Store32) SharedRows(p *Store32) int { return s.data.sharedRows(&p.data) }

// AllocatedBytes returns the bytes of row storage the store holds
// allocated (see Store.AllocatedBytes).
func (s *Store32) AllocatedBytes() int64 { return int64(s.data.capElems()) * 4 }

// Len returns the number of rows.
func (s *Store32) Len() int { return s.data.n }

// Dim returns the row dimension.
func (s *Store32) Dim() int { return s.dim }

// Norm returns the cached float64 norm of (widened) row i.
func (s *Store32) Norm(i int) float64 { return s.norms.at(i) }

// Row returns row i as a float32 view aliasing the backing array.
// Callers must not mutate it.
func (s *Store32) Row(i int) []float32 { return s.data.row(i) }

// ToStore widens the rows back into a float64 Store (norms recomputed
// by the append path, as everywhere). Used by the segment decoder to
// materialize record vectors from an f32 payload.
func (s *Store32) ToStore() (*Store, error) {
	fs, err := New(s.dim)
	if err != nil {
		return nil, err
	}
	row := make(vec.Vector, s.dim)
	for i := 0; i < s.Len(); i++ {
		for j, x := range s.Row(i) {
			row[j] = float64(x)
		}
		if err := fs.Append(row); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// round32 appends q, rounded to the binary32 grid the kernels consume,
// to dst.
func round32(dst []float32, q vec.Vector) []float32 {
	for _, x := range q {
		dst = append(dst, float32(x))
	}
	return dst
}

// norm64of32 is the float64 norm of a widened float32 vector — the
// single implementation behind a row's cached norm (builder and segment
// decoder alike, so both sides of a round trip agree bit for bit) and
// the rounded query's norm in the inflated Cauchy–Schwarz bound.
func norm64of32(qf []float32) float64 {
	var s float64
	for _, x := range qf {
		w := float64(x)
		s += w * w
	}
	return math.Sqrt(s)
}

func (s *Store32) checkQuery(q vec.Vector) error {
	if len(q) != s.dim {
		return fmt.Errorf("flat: query dimension %d, store has %d", len(q), s.dim)
	}
	return nil
}

// DotRange fills out[0:hi-lo] with float64-widened f32 dot products of
// rows [lo, hi) against q (rounded to float32 first). Exported for the
// equivalence tests; the scan drivers call the kernel directly.
func (s *Store32) DotRange(q vec.Vector, lo, hi int, out []float64) error {
	if err := s.checkQuery(q); err != nil {
		return err
	}
	if lo < 0 || hi > s.Len() || lo > hi {
		return fmt.Errorf("flat: DotRange [%d, %d) out of [0, %d)", lo, hi, s.Len())
	}
	if len(out) != hi-lo {
		return fmt.Errorf("flat: DotRange out length %d, want %d", len(out), hi-lo)
	}
	s.dotRange(round32(nil, q), lo, hi, out)
	return nil
}

// f32Chunk is the floats the AVX2 kernels take per step: one YMM.
const f32Chunk = 8

// dotRange fills out[0:hi-lo] with the float32 dots of rows [lo, hi),
// one kernel call per chunk the range touches.
// The 8-lane accumulation chain (twice the f64 kernels' width, matching
// one YMM register of float32) is fixed across implementations: lane l
// holds Σ row[j]·q[j] over j ≡ l (mod 8), lanes fold as
// t_i = s_i + s_{i+4}, and the result widens (t0+t1)+(t2+t3) to
// float64. The AVX2 kernel reproduces exactly this chain
// (VMULPS/VADDPS, VEXTRACTF128+VADDPS, a VHADDPS pair, one widening).
func (s *Store32) dotRange(qf []float32, lo, hi int, out []float64) {
	d, simd := s.dim, quantSIMD(s.dim, f32Chunk)
	for lo < hi {
		data, l, h := s.data.span(lo, hi)
		if simd {
			dot32Range(data[l*d:h*d], d, qf, out[:h-l])
		} else {
			dot32RangeGeneric(data, d, qf, l, h, out)
		}
		out = out[h-l:]
		lo += h - l
	}
}

// dot32RangeGeneric is the float32 chain at any dimension: 8 lanes
// (j mod 8) starting from +0, with the scalar tail folded into lane 0,
// reduced through the t_i = s_i + s_{i+4} fold. dot32Range is its AVX2
// twin for d ≥ 8, and it is the tests' one f32 reference.
func dot32RangeGeneric(data []float32, d int, q []float32, lo, hi int, out []float64) {
	q = q[:d:d]
	for r := lo; r < hi; r++ {
		off := r * d
		row := data[off : off+d : off+d]
		var s [8]float32
		j := 0
		for ; j+8 <= d; j += 8 {
			s[0] += row[j] * q[j]
			s[1] += row[j+1] * q[j+1]
			s[2] += row[j+2] * q[j+2]
			s[3] += row[j+3] * q[j+3]
			s[4] += row[j+4] * q[j+4]
			s[5] += row[j+5] * q[j+5]
			s[6] += row[j+6] * q[j+6]
			s[7] += row[j+7] * q[j+7]
		}
		for ; j < d; j++ {
			s[0] += row[j] * q[j]
		}
		t0 := s[0] + s[4]
		t1 := s[1] + s[5]
		t2 := s[2] + s[6]
		t3 := s[3] + s[7]
		out[r-lo] = float64((t0 + t1) + (t2 + t3))
	}
}

// View returns the store-order scan view of s.
func (s *Store32) View() View { return View{run: run{t: s}} }

// NormSorted returns the descending-norm view of s: a physically
// reordered private copy of the float32 rows (see sortByNorm), scanned
// with the early exit guarded by the inflated bound below.
func (s *Store32) NormSorted() View {
	re := newStore32(s.dim)
	ids := sortByNorm(&s.data, &s.norms, 0, &re.data, &re.norms)
	return View{run: run{t: re, ids: ids, norms: &re.norms}}
}

// bind implements tier: q rounded to the binary32 grid the kernels
// consume.
func (s *Store32) bind(q vec.Vector, bq *query) { bq.f32 = round32(bq.f32[:0], q) }

func (s *Store32) scoreBlock(bq *query, lo, hi int, out []float64) { s.dotRange(bq.f32, lo, hi, out) }

// bound implements normSorter. The bound must dominate the *computed*
// f32 scores, which are dots against the rounded query — so the query
// norm is taken over the rounded values and inflated by the f32 error
// margin.
func (s *Store32) bound(bq *query) float64 { return norm64of32(bq.f32) * f32BoundFudge(s.dim) }

func (s *Store32) extend(fs *Store) (tier, int) {
	q := s.Extend(fs)
	return q, q.SharedRows(s)
}

func (s *Store32) sortedRun(fs *Store, from int) run {
	rounded := newStore32(s.dim) // its row i is fs's row from+i
	rounded.convert(fs, from)
	r := rounded.NormSorted().run
	for i := range r.ids {
		r.ids[i] += from
	}
	r.off = from
	return r
}

// f32BoundFudge inflates the Cauchy–Schwarz bound for the float32 scan:
// a float32 dot of length d differs from the exact product by at most
// ≈ d·2⁻²⁴·‖p‖·‖q‖ (plus the rounding of q itself); doubling the
// epsilon to d·2⁻²³ leaves comfortable margin, so a pruned block can
// never hide a row whose computed f32 score would have entered.
func f32BoundFudge(d int) float64 { return 1 + float64(d)*0x1p-23 }

// TopK is Scan with positional arguments and no deadline (see
// Store.TopK); scores are computed in float32 and widened.
func (s *Store32) TopK(q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error) {
	return s.View().Scan(context.Background(), q, ScanOpts{K: k, Unsigned: unsigned, Workers: workers})
}
