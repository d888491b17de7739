// Quantized speed tier 1: float32 columnar storage. Store32 mirrors
// Store's layout at half the bytes per element, so a scan moves twice
// the rows per cache line; scores are computed in float32 (widened to
// float64 only at the block-buffer boundary, so the top-k bookkeeping,
// tombstone triage and context plumbing are shared verbatim with the
// f64 drivers). The d=8/16 kernels have AVX2 twins in quant_amd64.s at
// twice the lanes of the f64 tile kernels (8 float32 per YMM multiply);
// the pure-Go fallbacks below spell out the exact same accumulation
// chains, and float32 arithmetic in Go is exact IEEE binary32, so the
// two are bit-identical and the dispatch gate (useQuantAsm) is free to
// differ across machines without changing answers.
//
// Scores are f32-accurate, not exact: callers that need the f64
// ordering re-rank a widened candidate set through the retained f64
// store (the serving layer's rerank pipeline). NormSorted32 keeps the
// Cauchy–Schwarz early exit sound under rounding by inflating the bound
// with a d-scaled epsilon before pruning.
package flat

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

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
	q.convert(s)
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
	q.convert(fs)
	return q
}

// convert appends the rounded rows of fs that q does not hold yet.
func (q *Store32) convert(fs *Store) {
	d := q.dim
	for i := q.Len(); i < fs.Len(); {
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

// round32 rounds a float64 query to the binary32 grid the kernels
// consume. One small allocation per scan; the sweep dwarfs it.
func round32(q vec.Vector) []float32 {
	qf := make([]float32, len(q))
	for i, x := range q {
		qf[i] = float32(x)
	}
	return qf
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

func (s *Store32) checkMask(dead *Tombstones) error {
	if dead != nil && dead.Len() != s.Len() {
		return fmt.Errorf("flat: tombstones cover %d rows, store has %d", dead.Len(), s.Len())
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
	s.dotRange(round32(q), lo, hi, out)
	return nil
}

// dotRange fills out[0:hi-lo] with the float32 dots of rows [lo, hi),
// one kernel call per chunk the range touches.
// The 8-lane accumulation chain (twice the f64 kernels' width, matching
// one YMM register of float32) is fixed across implementations: lane l
// holds Σ row[j]·q[j] over j ≡ l (mod 8), lanes fold as
// t_i = s_i + s_{i+4}, and the result widens (t0+t1)+(t2+t3) to
// float64. The AVX2 kernels reproduce exactly this chain
// (VMULPS/VADDPS, VEXTRACTF128+VADDPS, VHADDPS×2, VCVTSS2SD).
func (s *Store32) dotRange(qf []float32, lo, hi int, out []float64) {
	d := s.dim
	for lo < hi {
		data, l, h := s.data.span(lo, hi)
		switch {
		case d == 16 && useQuantAsm:
			dot32Range16(data[l*16:h*16], qf, out[:h-l])
		case d == 16:
			dot32Range16Go(data, qf, l, h, out)
		case d == 8 && useQuantAsm:
			dot32Range8(data[l*8:h*8], qf, out[:h-l])
		case d == 8:
			dot32Range8Go(data, qf, l, h, out)
		default:
			dot32RangeGeneric(data, d, qf, l, h, out)
		}
		out = out[h-l:]
		lo += h - l
	}
}

// dot32Range16Go is the d=16 float32 kernel: a complete unroll with
// eight independent accumulator lanes, each summing its two strided
// elements without an initial zero add — exactly the chain the AVX2
// twin computes, so the two are bit-identical (including signed zeros).
func dot32Range16Go(data, q []float32, lo, hi int, out []float64) {
	q = q[:16:16]
	for r := lo; r < hi; r++ {
		row := data[r*16 : r*16+16 : r*16+16]
		s0 := row[0]*q[0] + row[8]*q[8]
		s1 := row[1]*q[1] + row[9]*q[9]
		s2 := row[2]*q[2] + row[10]*q[10]
		s3 := row[3]*q[3] + row[11]*q[11]
		s4 := row[4]*q[4] + row[12]*q[12]
		s5 := row[5]*q[5] + row[13]*q[13]
		s6 := row[6]*q[6] + row[14]*q[14]
		s7 := row[7]*q[7] + row[15]*q[15]
		t0 := s0 + s4
		t1 := s1 + s5
		t2 := s2 + s6
		t3 := s3 + s7
		out[r-lo] = float64((t0 + t1) + (t2 + t3))
	}
}

// dot32Range8Go is the d=8 specialization: one product per lane, the
// shared 8→4→1 reduction.
func dot32Range8Go(data, q []float32, lo, hi int, out []float64) {
	q = q[:8:8]
	for r := lo; r < hi; r++ {
		row := data[r*8 : r*8+8 : r*8+8]
		t0 := row[0]*q[0] + row[4]*q[4]
		t1 := row[1]*q[1] + row[5]*q[5]
		t2 := row[2]*q[2] + row[6]*q[6]
		t3 := row[3]*q[3] + row[7]*q[7]
		out[r-lo] = float64((t0 + t1) + (t2 + t3))
	}
}

// dot32RangeGeneric is the any-dimension float32 kernel: 8 lanes
// (j mod 8) with the scalar tail folded into lane 0, reduced through
// the same t_i = s_i + s_{i+4} fold. Generic dimensions have no asm
// twin, so the only contract is determinism.
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

// blockScorer fills out[0:hi-lo] with the float64 scores of rows
// [lo, hi). It is the one pluggable piece of the shared quantized scan
// driver below: Store32 and StoreI8 bind their kernels (and
// query-dependent state) into a closure, and everything else — block
// loop, tombstone triage, done polling, parallel chunking, canonical
// top-k merge — is written once. Scorers must be safe for concurrent
// calls on disjoint ranges (they only read the store).
type blockScorer func(lo, hi int, out []float64)

// scanScoredBlocks is scanBlocks/scanBlocksMasked generalized over the
// scorer: fully-dead blocks are skipped before the kernel runs, clean
// blocks take the unmasked bookkeeping, and a closed done channel
// abandons the scan (returning true; the accumulator is then partial
// and must be discarded). A nil dead keeps the loop triage-free.
func scanScoredBlocks(score blockScorer, lo, hi int, unsigned bool, a *Acc, dead *Tombstones, done <-chan struct{}) bool {
	var buf [blockRows]float64
	for start := lo; start < hi; start += blockRows {
		if done != nil {
			select {
			case <-done:
				return true
			default:
			}
		}
		end := start + blockRows
		if end > hi {
			end = hi
		}
		nb := end - start
		if dead != nil {
			nd := dead.DeadIn(start, end)
			if nd == nb {
				continue
			}
			score(start, end, buf[:nb])
			if nd == 0 {
				offerScores(a, buf[:nb], start, unsigned, nil)
			} else {
				offerScoresMasked(a, buf[:nb], start, unsigned, nil, dead)
			}
			continue
		}
		score(start, end, buf[:nb])
		offerScores(a, buf[:nb], start, unsigned, nil)
	}
	return false
}

// scoredTopKDone is the shared quantized top-k driver: the same worker
// clamp, per-chunk accumulators and canonical merge as Store.topKDone,
// parameterized on the scorer. An empty dead set degrades to the
// unmasked loop, so delete-free collections never pay the triage.
func scoredTopKDone(n, k, workers int, unsigned bool, score blockScorer, dead *Tombstones, done <-chan struct{}) ([]Hit, bool, error) {
	if k <= 0 {
		return nil, false, fmt.Errorf("flat: k=%d must be positive", k)
	}
	if dead.Count() == 0 {
		dead = nil
	}
	if workers > n/minParallelRows {
		workers = n / minParallelRows
	}
	if workers <= 1 {
		a := NewAcc(k)
		if scanScoredBlocks(score, 0, n, unsigned, &a, dead, done) {
			return nil, true, nil
		}
		return a.Hits(), false, nil
	}
	chunk := (n + workers - 1) / workers
	accs := make([]Acc, workers)
	stopped := make([]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			accs[w] = NewAcc(k)
			stopped[w] = scanScoredBlocks(score, lo, hi, unsigned, &accs[w], dead, done)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, st := range stopped {
		if st {
			return nil, true, nil
		}
	}
	merged := NewAcc(k)
	for w := range accs {
		for _, h := range accs[w].Hits() {
			merged.Offer(h.Index, h.Score)
		}
	}
	return merged.Hits(), false, nil
}

// MaxScanWorkers mirrors Store.MaxScanWorkers for the f32 view.
func (s *Store32) MaxScanWorkers() int { return s.Len() / minParallelRows }

// CanParallelScan reports whether TopK's workers hint can split this
// store's scan at all.
func (s *Store32) CanParallelScan() bool { return s.MaxScanWorkers() >= 2 }

// TopK returns up to k hits for q under the canonical ordering, scores
// computed in float32 and widened. Same parallelism contract as
// Store.TopK.
func (s *Store32) TopK(q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error) {
	return s.TopKMasked(q, k, unsigned, workers, nil)
}

// TopKMasked is TopK restricted to live rows (nil or empty dead takes
// exactly the TopK path).
func (s *Store32) TopKMasked(q vec.Vector, k int, unsigned bool, workers int, dead *Tombstones) ([]Hit, error) {
	hits, _, err := s.topKMaskedDone(q, k, unsigned, workers, dead, nil)
	return hits, err
}

// TopKCtx is TopK with cancellation.
func (s *Store32) TopKCtx(ctx context.Context, q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error) {
	return s.TopKMaskedCtx(ctx, q, k, unsigned, workers, nil)
}

// TopKMaskedCtx is TopKMasked with cancellation: identical results when
// ctx never fires, ctx's error (and no hits) when it does.
func (s *Store32) TopKMaskedCtx(ctx context.Context, q vec.Vector, k int, unsigned bool, workers int, dead *Tombstones) ([]Hit, error) {
	hits, stopped, err := s.topKMaskedDone(q, k, unsigned, workers, dead, doneOf(ctx))
	if err != nil {
		return nil, err
	}
	if stopped {
		return nil, stopErr(ctx)
	}
	return hits, nil
}

func (s *Store32) topKMaskedDone(q vec.Vector, k int, unsigned bool, workers int, dead *Tombstones, done <-chan struct{}) ([]Hit, bool, error) {
	if err := s.checkMask(dead); err != nil {
		return nil, false, err
	}
	if err := s.checkQuery(q); err != nil {
		return nil, false, err
	}
	qf := round32(q)
	score := func(lo, hi int, out []float64) { s.dotRange(qf, lo, hi, out) }
	return scoredTopKDone(s.Len(), k, workers, unsigned, score, dead, done)
}

// f32BoundFudge inflates the Cauchy–Schwarz bound for the float32 scan:
// a float32 dot of length d differs from the exact product by at most
// ≈ d·2⁻²⁴·‖p‖·‖q‖ (plus the rounding of q itself); doubling the
// epsilon to d·2⁻²³ leaves comfortable margin, so a pruned block can
// never hide a row whose computed f32 score would have entered.
func f32BoundFudge(d int) float64 { return 1 + float64(d)*0x1p-23 }

// NormSorted32 is the descending-norm view of a Store32: physically
// reordered rows (norm descending, original index ascending), with the
// early exit guarded by the epsilon-inflated bound above. Returned hits
// carry original row indexes.
type NormSorted32 struct {
	store *Store32
	perm  []int // perm[physical] = original index
}

// NewNormSorted32 builds the reordered view (same concrete-key sort as
// NewNormSorted).
func NewNormSorted32(s *Store32) *NormSorted32 {
	n := s.Len()
	type key struct {
		norm float64
		idx  int
	}
	keys := make([]key, n)
	for i := range keys {
		keys[i] = key{norm: s.norms.at(i), idx: i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.norm != b.norm {
			if a.norm > b.norm {
				return -1
			}
			return 1
		}
		return a.idx - b.idx
	})
	perm := make([]int, n)
	re := newStore32(s.dim)
	for phys := 0; phys < n; {
		rows, norms := re.grow(n - phys)
		for i := range norms {
			k := keys[phys+i]
			perm[phys+i] = k.idx
			copy(rows[i*s.dim:], s.Row(k.idx))
			norms[i] = k.norm
		}
		phys += len(norms)
	}
	return &NormSorted32{store: re, perm: perm}
}

// Len returns the number of rows.
func (ns *NormSorted32) Len() int { return ns.store.Len() }

// Dim returns the row dimension.
func (ns *NormSorted32) Dim() int { return ns.store.dim }

// Store returns the physically reordered float32 store (read-only).
func (ns *NormSorted32) Store() *Store32 { return ns.store }

// Perm returns the physical→original index map (read-only).
func (ns *NormSorted32) Perm() []int { return ns.perm }

// TopK is the early-terminating f32 scan; scanned reports rows whose
// dot was evaluated before the inflated norm bound stopped the scan.
func (ns *NormSorted32) TopK(q vec.Vector, k int, unsigned bool) ([]Hit, int, error) {
	return ns.TopKMasked(q, k, unsigned, nil)
}

// TopKMasked is TopK over live rows only; dead lives in the view's
// physical order (Gather(Perm()) from an original-space set).
func (ns *NormSorted32) TopKMasked(q vec.Vector, k int, unsigned bool, dead *Tombstones) ([]Hit, int, error) {
	hits, scanned, _, err := ns.topKMaskedDone(q, k, unsigned, dead, nil)
	return hits, scanned, err
}

// TopKCtx is TopK with cancellation.
func (ns *NormSorted32) TopKCtx(ctx context.Context, q vec.Vector, k int, unsigned bool) ([]Hit, int, error) {
	return ns.TopKMaskedCtx(ctx, q, k, unsigned, nil)
}

// TopKMaskedCtx is TopKMasked with cancellation.
func (ns *NormSorted32) TopKMaskedCtx(ctx context.Context, q vec.Vector, k int, unsigned bool, dead *Tombstones) ([]Hit, int, error) {
	hits, scanned, stopped, err := ns.topKMaskedDone(q, k, unsigned, dead, doneOf(ctx))
	if err != nil {
		return nil, scanned, err
	}
	if stopped {
		return nil, scanned, stopErr(ctx)
	}
	return hits, scanned, nil
}

func (ns *NormSorted32) topKMaskedDone(q vec.Vector, k int, unsigned bool, dead *Tombstones, done <-chan struct{}) ([]Hit, int, bool, error) {
	s := ns.store
	if err := s.checkMask(dead); err != nil {
		return nil, 0, false, err
	}
	if err := s.checkQuery(q); err != nil {
		return nil, 0, false, err
	}
	if k <= 0 {
		return nil, 0, false, fmt.Errorf("flat: k=%d must be positive", k)
	}
	if dead.Count() == 0 {
		dead = nil
	}
	qf := round32(q)
	// The bound must dominate the *computed* f32 scores, which are dots
	// against the rounded query — so the query norm is taken over the
	// rounded values and the product inflated by the f32 error margin.
	qn := norm64of32(qf) * f32BoundFudge(s.dim)
	n := s.Len()
	a := NewAcc(k)
	scanned := 0
	var buf [blockRows]float64
	for start := 0; start < n; start += blockRows {
		if done != nil {
			select {
			case <-done:
				return nil, scanned, true, nil
			default:
			}
		}
		if a.Full() && s.norms.at(start)*qn < a.Threshold() {
			break // every remaining row is dominated by the inflated bound
		}
		end := start + blockRows
		if end > n {
			end = n
		}
		nb := end - start
		if dead != nil {
			nd := dead.DeadIn(start, end)
			if nd == nb {
				continue
			}
			s.dotRange(qf, start, end, buf[:nb])
			scanned += nb
			if nd == 0 {
				offerScores(&a, buf[:nb], start, unsigned, ns.perm)
			} else {
				offerScoresMasked(&a, buf[:nb], start, unsigned, ns.perm, dead)
			}
			continue
		}
		s.dotRange(qf, start, end, buf[:nb])
		scanned += nb
		offerScores(&a, buf[:nb], start, unsigned, ns.perm)
	}
	return a.Hits(), scanned, false, nil
}
