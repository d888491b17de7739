// Package flat provides the columnar vector storage backing every
// brute-force inner-product scan in the repo. A Store packs n×d vectors
// row after row into large fixed-size chunks of float64 with
// precomputed Euclidean norms, so a scan streams cache lines instead of
// chasing one pointer per row as the []vec.Vector layout does, and a
// store grown from another shares its chunks instead of copying them.
// The scan kernels are blocked (dot products are materialised a
// row-block at a time into a small buffer) and built on vec.DotKernel's
// 4-way multi-accumulator loop, which keeps results bit-identical to
// vec.Dot on the equivalent row slices — the equivalence tests in this
// package and internal/server assert exactly that.
//
// Store32 and StoreI8 mirror a Store at half and an eighth of the bytes
// per row. Each of the three is a tier — a provider of scoring kernels —
// and every top-k scan over any of them runs through the one block loop
// in scan.go, behind View.ScanMulti (View.Scan is a tile of one).
//
// NormSorted adds the LEMP-style descending-norm traversal: rows are
// physically reordered by decreasing norm (preserving contiguity) so a
// top-k scan can stop at the first row whose norm cannot beat the k-th
// best hit via the Cauchy–Schwarz bound ‖p‖·‖q‖ ≥ |pᵀq|. Rows appended
// after the sort form a second, short norm-sorted run behind the first
// (View.Extend), into which a write merges its sorted batch, so it sorts
// its batch and copies less than one chunk of rows; a full second run
// folds into the first by merge. The view owns its rows, so a caller
// keeps no store-order copy beside it (normsorted.go).
package flat

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/vec"
)

// blockRows is the row-block granularity of the scan driver: dots are
// computed blockRows at a time into a score buffer (see sweep.tiles).
const blockRows = 256

// Store is an append-only columnar vector set: row i is d contiguous
// floats inside one chunk of the data column, and norms caches ‖row i‖
// (see chunked for the layout and for what a grown store shares with
// the store it grew from).
type Store struct {
	dim   int
	data  chunked[float64]
	norms chunked[float64]
}

// New returns an empty store of dimension d.
func New(d int) (*Store, error) {
	if d <= 0 {
		return nil, fmt.Errorf("flat: dimension %d must be positive", d)
	}
	return newStore(d), nil
}

func newStore(d int) *Store {
	s := &Store{dim: d}
	s.data.width, s.norms.width = d, 1
	return s
}

// FromVectors packs vs into a new store. All vectors must share one
// positive dimension.
func FromVectors(vs []vec.Vector) (*Store, error) {
	if len(vs) == 0 {
		return nil, fmt.Errorf("flat: empty vector set")
	}
	s, err := New(len(vs[0]))
	if err != nil {
		return nil, err
	}
	if err := s.AppendAll(vs); err != nil {
		return nil, err
	}
	return s, nil
}

// Len returns the number of rows.
func (s *Store) Len() int { return s.data.n }

// ResetDim empties the store in place, adopting dimension d while
// keeping the backing capacity, so pooled stores (e.g. per-request
// query batches) reach a zero-allocation steady state. Existing row
// views become invalid.
func (s *Store) ResetDim(d int) error {
	if d <= 0 {
		return fmt.Errorf("flat: dimension %d must be positive", d)
	}
	s.dim = d
	s.data.reset(d)
	s.norms.reset(1)
	return nil
}

// Dim returns the row dimension.
func (s *Store) Dim() int { return s.dim }

// Append copies v into the store as a new row.
func (s *Store) Append(v vec.Vector) error {
	if len(v) != s.dim {
		return fmt.Errorf("flat: append dimension %d, store has %d", len(v), s.dim)
	}
	row, norm := s.grow(1)
	copy(row, v)
	norm[0] = RowNorm(v)
	return nil
}

// grow extends both columns by the same k ≤ want rows and returns the
// new rows' storage. The columns always hold the same number of rows,
// so their open chunks have the same room and norms.grow yields exactly
// the k rows data.grow did.
func (s *Store) grow(want int) (rows, norms []float64) {
	rows = s.data.grow(want)
	return rows, s.norms.grow(len(rows) / s.dim)
}

// AppendAll copies every vector of vs into the store. On a dimension
// mismatch the store is left unchanged.
func (s *Store) AppendAll(vs []vec.Vector) error {
	for i, v := range vs {
		if len(v) != s.dim {
			return fmt.Errorf("flat: append vector %d has dimension %d, store has %d", i, len(v), s.dim)
		}
	}
	for len(vs) > 0 {
		rows, norms := s.grow(len(vs))
		for i, v := range vs[:len(norms)] {
			copy(rows[i*s.dim:], v)
			norms[i] = RowNorm(v)
		}
		vs = vs[len(norms):]
	}
	return nil
}

// Clone returns a store of the same rows that can be appended to
// independently of s.
func (s *Store) Clone() *Store { return s.CloneGrow(0) }

// CloneGrow returns a store of the same rows for the caller to append
// to — the next immutable snapshot built from the current one at
// ingest. The two share chunk memory (rows are never rewritten), so the
// clone costs O(rows/chunkRows) and an append to either copies at most
// the one open chunk; neither ever observes the other's appends.
// extraRows is the caller's estimate of the rows to come; nothing needs
// reserving, since appends already extend the open chunk in place.
func (s *Store) CloneGrow(extraRows int) *Store {
	c := &Store{dim: s.dim}
	s.data.share(&c.data)
	s.norms.share(&c.norms)
	return c
}

// SharedRows returns how many leading rows of s occupy the same memory
// as rows of p — for a store grown from p, the rows that growing it did
// not copy. A nil p shares nothing.
func (s *Store) SharedRows(p *Store) int {
	if p == nil {
		return 0
	}
	return s.data.sharedRows(&p.data)
}

// AllocatedBytes returns the bytes of row storage the store holds
// allocated, counting the open chunk's unused tail (and not the cached
// norms).
func (s *Store) AllocatedBytes() int64 { return int64(s.data.capElems()) * 8 }

// Row returns row i as a vector view aliasing the backing array.
// Callers must not mutate it.
func (s *Store) Row(i int) vec.Vector { return s.data.row(i) }

// Rows returns views of every row (slice headers only; no float copy).
func (s *Store) Rows() []vec.Vector {
	out := make([]vec.Vector, s.Len())
	for i := range out {
		out[i] = s.Row(i)
	}
	return out
}

// Norm returns the cached Euclidean norm of row i.
func (s *Store) Norm(i int) float64 { return s.norms.at(i) }

// Dot returns row(i)ᵀq. Panics if len(q) != Dim, mirroring vec.Dot.
func (s *Store) Dot(i int, q vec.Vector) float64 {
	if len(q) != s.dim {
		panic(fmt.Sprintf("flat: Dot dimension mismatch %d != %d", len(q), s.dim))
	}
	return vec.DotKernel(s.Row(i), q)
}

// checkQuery validates a query's dimension as a structured error (the
// serving layer turns it into an HTTP 400 instead of a panic).
func (s *Store) checkQuery(q vec.Vector) error {
	if len(q) != s.dim {
		return fmt.Errorf("flat: query dimension %d, store has %d", len(q), s.dim)
	}
	return nil
}

// DotBatch computes out[i] = row(i)ᵀq for every row. out must have
// length Len. This is the hot kernel: rows are contiguous within a
// chunk, so the loop streams each chunk once with no per-row pointer
// chase.
func (s *Store) DotBatch(q vec.Vector, out []float64) error {
	if err := s.checkQuery(q); err != nil {
		return err
	}
	if len(out) != s.Len() {
		return fmt.Errorf("flat: DotBatch out length %d, want %d", len(out), s.Len())
	}
	s.dotRange(q, 0, s.Len(), out)
	return nil
}

// DotRange fills out[0:hi-lo] with row(i)ᵀq for i ∈ [lo, hi). It is the
// tile primitive of the P×Q join kernels: a caller iterating row blocks
// of one store against row blocks of another keeps both operands
// cache-resident while every dot still runs through the shared blocked
// kernel (bit-identical to Dot/DotBatch on the same rows).
func (s *Store) DotRange(q vec.Vector, lo, hi int, out []float64) error {
	if err := s.checkQuery(q); err != nil {
		return err
	}
	if lo < 0 || hi > s.Len() || lo > hi {
		return fmt.Errorf("flat: DotRange [%d, %d) out of [0, %d)", lo, hi, s.Len())
	}
	if len(out) != hi-lo {
		return fmt.Errorf("flat: DotRange out length %d, want %d", len(out), hi-lo)
	}
	s.dotRange(q, lo, hi, out)
	return nil
}

// dotRange fills out[0:hi-lo] with dots of rows [lo, hi), one kernel
// call per chunk the range touches (a row's score does not depend on
// where the range was cut, so the split is invisible in the results).
// The 4-way multi-accumulator loop is written out inline rather than
// calling vec.DotKernel — Go never inlines functions containing loops,
// and at small d the call overhead rivals the arithmetic.
//
// Every f64 kernel in this package, Go and assembly, computes one
// accumulation chain, vec.DotKernel's: each of 4 lanes starts at +0 and
// adds its unfused products (lane i mod 4), the d mod 4 trailing
// elements go into lane 0, and the lanes combine as (s0+s1)+(s2+s3).
// So every score has vec.Dot's bits, at every d; the equivalence tests
// compare them by Float64bits. Where tileSIMD(d) holds, a chunk's rows
// go four at a time through the AVX2 dotRows4 (per cache-resident
// 1 024-row chunk on one Xeon core, ≈ 8 vs 23–30 ns/row at d = 32 and
// 9–13 vs 32–34 at d = 64), the 1–3 left on dotRangeGeneric, which
// serves every row where tileSIMD fails. d = 16, small-hot's, keeps the
// unrolled dotRange16 on every host: dotRows4 measured only within
// noise of it there (per chunk 7.2–7.8 vs 7.3–10.6 ns/row).
func (s *Store) dotRange(q vec.Vector, lo, hi int, out []float64) {
	d := s.dim
	q = q[:d:d]
	simd := tileSIMD(d)
	for lo < hi {
		data, l, h := s.data.span(lo, hi)
		if d == 16 {
			dotRange16(data, q, l, h, out)
		} else {
			r := l
			for ; simd && r+4 <= h; r += 4 {
				p := data[r*d : (r+4)*d]
				dotRows4(q, p, p[d:], p[2*d:], p[3*d:], (*[4]float64)(out[r-l:]))
			}
			dotRangeGeneric(data, d, q, r, h, out[r-l:])
		}
		out = out[h-l:]
		lo += h - l
	}
}

// dotRangeGeneric is the chain itself, at any dimension: the
// single-query scan and the multi-query tile fallback's reference.
func dotRangeGeneric(data []float64, d int, q []float64, lo, hi int, out []float64) {
	q = q[:d:d]
	for r := lo; r < hi; r++ {
		off := r * d
		row := data[off : off+d : off+d]
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= d; i += 4 {
			s0 += row[i] * q[i]
			s1 += row[i+1] * q[i+1]
			s2 += row[i+2] * q[i+2]
			s3 += row[i+3] * q[i+3]
		}
		for ; i < d; i++ {
			s0 += row[i] * q[i]
		}
		out[r-lo] = (s0 + s1) + (s2 + s3)
	}
}

// dotRange16 is the d=16 specialization: the unroll is complete, so the
// compiler proves every index in range, and rows are processed in pairs
// so each load of q[i] feeds two independent accumulator chains. Each
// lane starts from its first product instead of +0 + it, which differs
// from the chain only where a sum is a zero — in its sign — and the
// trailing + 0 turns a −0 score into the chain's +0 (a chain begun at +0
// never yields −0). The compiler keeps that add: x + 0 is not x for
// x = −0.
func dotRange16(data, q []float64, lo, hi int, out []float64) {
	q = q[:16:16]
	r := lo
	for ; r+2 <= hi; r += 2 {
		a := data[r*16 : r*16+16 : r*16+16]
		b := data[r*16+16 : r*16+32 : r*16+32]
		a0 := ((a[0]*q[0] + a[4]*q[4]) + a[8]*q[8]) + a[12]*q[12]
		b0 := ((b[0]*q[0] + b[4]*q[4]) + b[8]*q[8]) + b[12]*q[12]
		a1 := ((a[1]*q[1] + a[5]*q[5]) + a[9]*q[9]) + a[13]*q[13]
		b1 := ((b[1]*q[1] + b[5]*q[5]) + b[9]*q[9]) + b[13]*q[13]
		a2 := ((a[2]*q[2] + a[6]*q[6]) + a[10]*q[10]) + a[14]*q[14]
		b2 := ((b[2]*q[2] + b[6]*q[6]) + b[10]*q[10]) + b[14]*q[14]
		a3 := ((a[3]*q[3] + a[7]*q[7]) + a[11]*q[11]) + a[15]*q[15]
		b3 := ((b[3]*q[3] + b[7]*q[7]) + b[11]*q[11]) + b[15]*q[15]
		out[r-lo] = (a0 + a1) + (a2 + a3) + 0
		out[r-lo+1] = (b0 + b1) + (b2 + b3) + 0
	}
	for ; r < hi; r++ {
		a := data[r*16 : r*16+16 : r*16+16]
		a0 := ((a[0]*q[0] + a[4]*q[4]) + a[8]*q[8]) + a[12]*q[12]
		a1 := ((a[1]*q[1] + a[5]*q[5]) + a[9]*q[9]) + a[13]*q[13]
		a2 := ((a[2]*q[2] + a[6]*q[6]) + a[10]*q[10]) + a[14]*q[14]
		a3 := ((a[3]*q[3] + a[7]*q[7]) + a[11]*q[11]) + a[15]*q[15]
		out[r-lo] = (a0 + a1) + (a2 + a3) + 0
	}
}

// Hit is one scan answer: a row index and its (absolute, for unsigned)
// inner product with the query.
type Hit struct {
	Index int
	Score float64
}

// Acc accumulates the k best (index, score) pairs under the canonical
// ordering: score descending, index ascending on ties — or, after
// SetKeys, the index's key ascending. It is the single implementation of
// that contract — the serving layer's indexes build on it too, so
// flat-backed and candidate-based engines tie-break identically. NaN
// scores are rejected outright: they cannot be ranked and would
// otherwise evict legitimate hits while breaking the descending-score
// invariant. A floor (SetFloor) keeps it to the offers scoring at least
// the floor.
type Acc struct {
	k     int
	hits  []Hit
	keys  []int   // nil: an index is its own key
	floor float64 // −Inf: none
}

// NewAcc returns an accumulator keeping the best k offers.
func NewAcc(k int) Acc { return Acc{k: k, floor: math.Inf(-1)} }

// SetFloor drops every later offer scoring below f, until the next
// Reset; a tie with f is kept, keyed or not — a smaller key may win it,
// and a join's pair at exactly cs must survive. The hits are then the k
// best offers scoring at least f, and while fewer than k have come,
// Threshold is f, so the scans' skips and bounds prune against it. Set
// it on an empty accumulator; f must not be NaN.
func (a *Acc) SetFloor(f float64) { a.floor = f }

// SetKeys breaks a's ties by keys[index] instead of the index, until the
// next Reset: the serving layer's rows are not in record-ID order (an
// upsert appends, a norm-sorted view permutes), so it keys them by ID.
// Every index offered must be in range of keys.
func (a *Acc) SetKeys(keys []int) { a.keys = keys }

// key is index i's tie-break key.
func (a *Acc) key(i int) int {
	if a.keys == nil {
		return i
	}
	return a.keys[i]
}

// Offer submits a candidate.
func (a *Acc) Offer(idx int, score float64) {
	if math.IsNaN(score) || score < a.floor {
		return
	}
	if len(a.hits) == a.k {
		last := a.hits[a.k-1]
		if score < last.Score || (score == last.Score && a.key(idx) > a.key(last.Index)) {
			return
		}
		a.hits = a.hits[:a.k-1]
	}
	pos := sort.Search(len(a.hits), func(i int) bool {
		h := a.hits[i]
		return h.Score < score || (h.Score == score && a.key(h.Index) > a.key(idx))
	})
	a.hits = append(a.hits, Hit{})
	copy(a.hits[pos+1:], a.hits[pos:])
	a.hits[pos] = Hit{Index: idx, Score: score}
}

// Hits returns the accumulated hits in canonical order. The slice
// aliases the accumulator's storage.
func (a *Acc) Hits() []Hit { return a.hits }

// Threshold returns the current admission bar: a candidate scanned at a
// higher index than everything accumulated so far enters only with a
// score strictly above the k-th best (ties lose to the smaller index
// already held, unless SetKeys keyed them), or while under-full with a
// score at least the floor (−Inf without one). The k-th best of a full
// accumulator is never below its floor.
func (a *Acc) Threshold() float64 {
	if len(a.hits) < a.k {
		return a.floor
	}
	return a.hits[a.k-1].Score
}

// Full reports whether k hits have accumulated.
func (a *Acc) Full() bool { return len(a.hits) == a.k }

// OfferRows is the candidate engines' verification loop — the served
// alsh search and the lsh and sketch joins run this one copy: it offers a
// the score of q, |score| when unsigned, against each row that rows names
// and dead does not mark, in list order, and returns how many rows it
// scored. done (nil: never) is polled every 1024 rows, the candidate set
// being unbounded; a true return means it fired and a is partial. Panics
// like Dot on a dimension mismatch.
//
// Candidates are scattered rows, so one row's dot is bound by the latency
// of its four dependent add chains, not by memory or arithmetic. Live rows
// are therefore buffered four at a time and scored in one scoreRows4
// call, q against four rows read straight from their chunks: sixteen
// independent chains per call, each of them vec.DotKernel's own (x·y =
// y·x exactly), so every score keeps Dot's bits. The buffer is flushed
// when full, at each poll (so scored counts only rows offered) and at
// the end; a short one pads its empty slots with its first row and
// offers only the rows it holds.
func (s *Store) OfferRows(done <-chan struct{}, a *Acc, q vec.Vector, rows []int, dead *Tombstones, unsigned bool) (scored int, stopped bool) {
	if len(q) != s.dim {
		panic(fmt.Sprintf("flat: Dot dimension mismatch %d != %d", len(q), s.dim))
	}
	var buf [4]int // live rows awaiting one scoreRows4 call
	n := 0
	for i, r := range rows {
		if done != nil && i&1023 == 1023 {
			scored += s.verify4(a, q, &buf, n, unsigned)
			n = 0
			select {
			case <-done:
				return scored, true
			default:
			}
		}
		if dead.Dead(r) {
			continue
		}
		buf[n] = r
		if n++; n == 4 {
			scored += s.verify4(a, q, &buf, n, unsigned)
			n = 0
		}
	}
	return scored + s.verify4(a, q, &buf, n, unsigned), false
}

// verify4 scores q against the first n rows of buf in one scoreRows4
// call, offers them and returns n. Empty slots are padded with buf[0],
// whose extra scores are dropped.
func (s *Store) verify4(a *Acc, q vec.Vector, buf *[4]int, n int, unsigned bool) int {
	if n == 0 {
		return 0
	}
	for j := n; j < 4; j++ {
		buf[j] = buf[0]
	}
	var v [4]float64
	scoreRows4(q, s.Row(buf[0]), s.Row(buf[1]), s.Row(buf[2]), s.Row(buf[3]), &v)
	for j, r := range buf[:n] {
		offerRow(a, r, v[j], unsigned)
	}
	return n
}

// offerRow offers row r's score v, |v| when unsigned, skipping a score
// Offer would reject as below the threshold: a tie still reaches Offer
// (a smaller index displaces the held one), and so does NaN, which Offer
// drops.
func offerRow(a *Acc, r int, v float64, unsigned bool) {
	if unsigned {
		v = math.Abs(v)
	}
	if !(v < a.Threshold()) {
		a.Offer(r, v)
	}
}

// View returns the store-order scan view of s.
func (s *Store) View() View { return View{run: run{t: s}} }

// f64Bound is the norm bound of a query of the given norm against
// d-dimensional f64 rows. Computed, a dot product and the product of the
// two norms are each off by up to ≈ d·2⁻⁵³ relative, so between parallel
// vectors the first can come out a few ulps above the second; the scan
// cuts a block at the first row whose bound is below the bar, and a row
// that ties the bar exactly — a join's cs, a k-th best — must not fall
// to that. A subnormal bound is rounded up, since its rounding is an
// absolute half ulp that a large row norm would multiply; what subnormal
// products still lose, the sweep's slack below the bar covers.
func f64Bound(qnorm float64, d int) float64 {
	b := qnorm * (1 + float64(d+4)*0x1p-52)
	if 0 < b && b < 0x1p-1022 {
		b = math.Nextafter(b, math.Inf(1))
	}
	return b
}

// f64Slack is how far below the bar a d-dimensional f64 row's norm
// bound may fall and still be kept: what the 2d roundings of a dot
// product and the rounding of the bound's product can each lose in
// absolute terms when their results are subnormal, at most 2⁻¹⁰⁷⁵ apiece.
// It shifts no bar of normal size (≥ ≈ d·2⁻¹⁰²¹), being under half its
// ulp.
func f64Slack(d int) float64 { return float64(d+4) * 0x1p-1074 }

// NormBound is the cut a norm-sorted scan makes for query q, for a caller
// that walks rows by descending norm itself: a row p with
// RowNorm(p)·bound < bar − slack cannot score bar or more against q,
// signed or unsigned, so neither can any row after it; a row that could
// tie bar is still reached.
func NormBound(q vec.Vector) (bound, slack float64) {
	return f64Bound(RowNorm(q), len(q)), f64Slack(len(q))
}

// RowNorm is ‖v‖ as the norm bound needs it, for rows and queries
// alike: vec.Norm's bits when they are at least 2⁻⁵⁰⁰ (or NaN or +Inf).
// Below that Σx² may have underflowed — to 0 for (1e-170, 0), whose
// norm is 1e-170 — so it is summed again, by the same kernel, over v
// scaled by the power of two that brings its largest element into
// [½, 1), as math.Hypot scales; a subnormal result that rounded down
// is rounded up, as f64Bound rounds. A power-of-two scale is exact, so
// where no square underflowed the two sums agree bit for bit.
func RowNorm(v []float64) float64 {
	n := vec.Norm(v)
	if !(n < 0x1p-500) {
		return n
	}
	var m float64
	for _, x := range v {
		m = max(m, math.Abs(x))
	}
	if m == 0 {
		return 0
	}
	_, e := math.Frexp(m)
	scaled := make([]float64, len(v))
	for i, x := range v {
		scaled[i] = math.Ldexp(x, -e)
	}
	sn := vec.Norm(scaled)
	if n = math.Ldexp(sn, e); n < 0x1p-1022 && math.Ldexp(n, -e) < sn {
		n = math.Nextafter(n, math.Inf(1)) // rounded down to a subnormal
	}
	return n
}

func (s *Store) extend(fs *Store) (tier, int) { return fs, fs.SharedRows(s) }

// TopK is Scan with positional arguments and no deadline: up to k hits
// for q under the canonical ordering, unsigned ranking by |pᵀq|. workers
// is ignored: the scan runs on the calling goroutine.
func (s *Store) TopK(q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error) {
	return s.TopKMasked(q, k, unsigned, workers, nil)
}

// TopKMasked is TopK restricted to the rows dead does not mark.
func (s *Store) TopKMasked(q vec.Vector, k int, unsigned bool, workers int, dead *Tombstones) ([]Hit, error) {
	return s.View().Scan(context.Background(), q, ScanOpts{K: k, Unsigned: unsigned, Dead: dead})
}

// TopKMulti is ScanMulti for every row of qs, returning per-query hit
// lists.
func (s *Store) TopKMulti(qs *Store, k int, unsigned bool) ([][]Hit, error) {
	hits, _, err := s.View().topKMulti(qs, k, unsigned)
	return hits, err
}
