// Quantized speed tier 1: float32 columnar storage. Store32 mirrors
// Store's layout at half the bytes per element, so a scan moves twice
// the rows per cache line; scores are computed in float32 (widened to
// float64 only at the block-buffer boundary, where the shared scan
// driver takes over). Every dimension of at least one YMM register of
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
// Scores are f32-accurate, not exact. The server no longer serves this
// tier: it remains for the f32 kernel's bandwidth measurement and for
// decoding the f32 segments older data directories hold (DecodeStore32,
// ToStore).
package flat

import (
	"context"
	"fmt"

	"repro/internal/vec"
)

// Store32 is the float32 mirror of a Store: row i is d contiguous
// float32s inside one chunk. It grows only through Extend, in step with
// the store it mirrors.
type Store32 struct {
	dim  int
	data chunked[float32]
}

// NewStore32 builds the float32 view of s by rounding every element to
// the nearest binary32; rows that are already binary32 representable
// convert losslessly.
func NewStore32(s *Store) *Store32 {
	q := newStore32(s.dim)
	q.convert(s, 0)
	return q
}

func newStore32(d int) *Store32 {
	q := &Store32{dim: d}
	q.data.width = d
	return q
}

// Extend returns the float32 view of fs, an append-only store whose
// leading s.Len() rows are the rows s mirrors: only fs's later rows are
// converted, and the result shares every other chunk with s, which
// keeps serving untouched. The result is what NewStore32(fs) builds.
func (s *Store32) Extend(fs *Store) *Store32 {
	q := &Store32{dim: s.dim}
	s.data.share(&q.data)
	q.convert(fs, s.Len())
	return q
}

// convert appends the rounded rows of fs from row from on.
func (q *Store32) convert(fs *Store, from int) {
	d := q.dim
	for i := from; i < fs.Len(); {
		rows := q.data.grow(fs.Len() - i)
		for r := 0; r < len(rows)/d; r++ {
			for j, x := range fs.Row(i + r) {
				rows[r*d+j] = float32(x)
			}
		}
		i += len(rows) / d
	}
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

// Row returns row i as a float32 view aliasing the backing array.
// Callers must not mutate it.
func (s *Store32) Row(i int) []float32 { return s.data.row(i) }

// ToStore widens the rows back into a float64 Store (norms computed by
// the append path, as everywhere): what the segment decoder makes of an
// f32 payload.
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

func (s *Store32) checkQuery(q vec.Vector) error {
	if len(q) != s.dim {
		return fmt.Errorf("flat: query dimension %d, store has %d", len(q), s.dim)
	}
	return nil
}

// DotRange fills out[0:hi-lo] with float64-widened f32 dot products of
// rows [lo, hi) against q (rounded to float32 first). Exported for the
// equivalence tests; the scan driver calls the kernel directly.
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

// f32Tile is the float32 tier's ScanMulti state: the queries, rounded
// once per sweep.
type f32Tile struct {
	qlo  int       // the qs row of query 0
	rows []float32 // query j rounded to binary32 at j·d
}

// bindTile implements tier: query rows [qlo, qhi) of qs rounded to the
// binary32 grid the kernel consumes.
func (s *Store32) bindTile(qs *Store, qlo, qhi int, sc *TileScratch) {
	t := &sc.f32
	t.qlo, t.rows = qlo, t.rows[:0]
	for j := qlo; j < qhi; j++ {
		t.rows = round32(t.rows, qs.Row(j))
	}
}

// offerTile implements tier: each query's rows are scored by dotRange
// and offered (block.offer).
func (s *Store32) offerTile(b block, _ *Store, qlo int, accs []Acc, ends []int, sc *TileScratch) {
	t, buf, d := &sc.f32, sc.tileBuf(), s.dim
	for j := range accs {
		q, n := qlo-t.qlo+j, ends[j]-b.start
		s.dotRange(t.rows[q*d:(q+1)*d], b.start, ends[j], buf[:n])
		b.offer(&accs[j], buf[:n])
	}
}

func (s *Store32) extend(fs *Store) (tier, int) {
	q := s.Extend(fs)
	return q, q.SharedRows(s)
}

// TopK is Scan with positional arguments and no deadline (see
// Store.TopK); scores are computed in float32 and widened.
func (s *Store32) TopK(q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error) {
	return s.View().Scan(context.Background(), q, ScanOpts{K: k, Unsigned: unsigned})
}
