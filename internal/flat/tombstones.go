// Tombstone-masked scans. A Tombstones value marks a subset of a
// store's rows dead; the masked top-k drivers answer queries over the
// live rows only, bit-identically to scanning a store that never held
// the dead rows. The drivers skip whole row-blocks whose tombstone
// slice is full — the dot kernel never touches them — so scans over
// tombstone-heavy stores (the state between a burst of deletes and the
// next compaction) approach the cost of the compacted store. Blocks
// with no dead rows run the unmasked bookkeeping; only mixed blocks pay
// a per-row bit test. A nil *Tombstones means "all rows live" and every
// masked entry point delegates straight to its unmasked twin, so the
// mutation machinery costs nothing until the first delete.
package flat

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/vec"
)

// Tombstones is a bit-packed dead-row set over a store's row space.
// Build it with NewTombstones/Grow/Kill, then treat it as immutable
// once it is shared with readers (the serving layer publishes it inside
// an immutable shard snapshot).
type Tombstones struct {
	bits  *bitvec.Bits
	count int
}

// NewTombstones returns an all-live tombstone set over n rows.
func NewTombstones(n int) *Tombstones {
	return &Tombstones{bits: bitvec.NewBits(n)}
}

// Len returns the number of rows covered (0 for nil).
func (t *Tombstones) Len() int {
	if t == nil {
		return 0
	}
	return t.bits.N
}

// Count returns the number of dead rows (0 for nil).
func (t *Tombstones) Count() int {
	if t == nil {
		return 0
	}
	return t.count
}

// Dead reports whether row i is tombstoned. A nil set has no dead rows.
func (t *Tombstones) Dead(i int) bool {
	if t == nil {
		return false
	}
	return t.bits.W[i>>6]>>(uint(i)&63)&1 == 1
}

// Kill marks row i dead. Idempotent. Callers must not Kill a set that
// is already shared with readers — grow or clone first.
func (t *Tombstones) Kill(i int) {
	if t.bits.Bit(i) == 1 {
		return
	}
	t.bits.SetBit(i, 1)
	t.count++
}

// Grow returns an independent copy covering n rows (n >= Len; the new
// rows are live). A nil receiver yields an all-live set, so the serving
// layer's "first mutation" and "later mutation" paths share one call.
func (t *Tombstones) Grow(n int) *Tombstones {
	nt := NewTombstones(n)
	if t != nil {
		if n < t.bits.N {
			panic(fmt.Sprintf("flat: Tombstones.Grow %d < %d", n, t.bits.N))
		}
		copy(nt.bits.W, t.bits.W)
		nt.count = t.count
	}
	return nt
}

// Gather returns the tombstone set seen through a row permutation:
// out.Dead(i) == t.Dead(perm[i]). It maps an original-row-space set
// into NormSorted's physical order (perm = NormSorted.Perm()).
func (t *Tombstones) Gather(perm []int) *Tombstones {
	if t == nil {
		return nil
	}
	out := NewTombstones(len(perm))
	for i, p := range perm {
		if t.Dead(p) {
			out.bits.W[i>>6] |= 1 << (uint(i) & 63)
			out.count++
		}
	}
	return out
}

// DeadIn returns the number of dead rows in [lo, hi). It is the block
// triage of the masked scans: word-level popcounts, so the per-block
// cost is a handful of instructions against hundreds of multiply-adds.
func (t *Tombstones) DeadIn(lo, hi int) int {
	if t == nil || t.count == 0 || lo >= hi {
		return 0
	}
	w := t.bits.W
	lw, hw := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if lw == hw {
		return bits.OnesCount64(w[lw] & loMask & hiMask)
	}
	c := bits.OnesCount64(w[lw] & loMask)
	for i := lw + 1; i < hw; i++ {
		c += bits.OnesCount64(w[i])
	}
	return c + bits.OnesCount64(w[hw]&hiMask)
}

// offerScoresMasked feeds one block of materialised scores into a,
// skipping rows that dead marks tombstoned. dead lives in the same
// (physical) row space as base — for a NormSorted scan that is the
// reordered space, with perm still mapping offers back to original
// indexes. The skip compare mirrors offerScores: with a permutation a
// threshold tie may carry a smaller original index, so only
// strictly-worse scores are skipped.
func offerScoresMasked(a *Acc, buf []float64, base int, unsigned bool, perm []int, dead *Tombstones) {
	for r := range buf {
		phys := base + r
		if dead.Dead(phys) {
			continue
		}
		v := buf[r]
		if unsigned && v < 0 {
			v = -v
		}
		if a.Full() {
			thr := a.Threshold()
			if perm == nil {
				if v <= thr {
					continue
				}
			} else if v < thr {
				continue
			}
		}
		idx := phys
		if perm != nil {
			idx = perm[phys]
		}
		a.Offer(idx, v)
	}
}

// scanBlocksMasked is the masked twin of scanBlocks: fully-dead blocks
// are skipped before the dot kernel runs, fully-live blocks take the
// unmasked bookkeeping, and mixed blocks score every row but offer only
// the live ones.
func (s *Store) scanBlocksMasked(q vec.Vector, lo, hi int, unsigned bool, a *Acc, dead *Tombstones, done <-chan struct{}) bool {
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
		nd := dead.DeadIn(start, end)
		if nd == nb {
			continue
		}
		s.dotRange(q, start, end, buf[:nb])
		if nd == 0 {
			offerScores(a, buf[:nb], start, unsigned, nil)
		} else {
			offerScoresMasked(a, buf[:nb], start, unsigned, nil, dead)
		}
	}
	return false
}

// checkMask validates a tombstone set against the store's row count.
func (s *Store) checkMask(dead *Tombstones) error {
	if dead != nil && dead.Len() != s.Len() {
		return fmt.Errorf("flat: tombstones cover %d rows, store has %d", dead.Len(), s.Len())
	}
	return nil
}

// TopKMasked is TopK restricted to live rows: up to k hits among rows
// dead does not mark, canonical ordering, bit-identical to TopK over a
// store holding only the live rows (with this store's row indexes). A
// nil or empty dead set takes exactly the TopK path.
func (s *Store) TopKMasked(q vec.Vector, k int, unsigned bool, workers int, dead *Tombstones) ([]Hit, error) {
	hits, _, err := s.topKMaskedDone(q, k, unsigned, workers, dead, nil)
	return hits, err
}

// topKMaskedDone is the TopKMasked driver with the optional per-block
// done poll (nil done keeps the historical unchecked loops).
func (s *Store) topKMaskedDone(q vec.Vector, k int, unsigned bool, workers int, dead *Tombstones, done <-chan struct{}) ([]Hit, bool, error) {
	if err := s.checkMask(dead); err != nil {
		return nil, false, err
	}
	if dead.Count() == 0 {
		return s.topKDone(q, k, unsigned, workers, done)
	}
	if err := s.checkQuery(q); err != nil {
		return nil, false, err
	}
	if k <= 0 {
		return nil, false, fmt.Errorf("flat: k=%d must be positive", k)
	}
	n := s.Len()
	if workers > n/minParallelRows {
		workers = n / minParallelRows
	}
	if workers <= 1 {
		a := NewAcc(k)
		if s.scanBlocksMasked(q, 0, n, unsigned, &a, dead, done) {
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
			stopped[w] = s.scanBlocksMasked(q, lo, hi, unsigned, &accs[w], dead, done)
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

// TopKMasked is the masked descending-norm scan. dead lives in the
// view's physical (norm-sorted) row order — build it with
// Gather(Perm()) from an original-space set. The Cauchy–Schwarz bound
// stays correct on the filtered view: a block's leading norm bounds
// every row of every later block whether or not rows are tombstoned, so
// skipping dead rows only ever discards candidates the filtered
// reference would discard too. scanned counts rows whose dot was
// evaluated; rows of fully-dead skipped blocks are not evaluated.
func (ns *NormSorted) TopKMasked(q vec.Vector, k int, unsigned bool, dead *Tombstones) ([]Hit, int, error) {
	hits, scanned, _, err := ns.topKMaskedDone(q, k, unsigned, dead, nil, nil)
	return hits, scanned, err
}

// topKMaskedDone is the NormSorted.TopKMasked driver with the optional
// per-block done poll (nil done keeps the historical unchecked loop).
// stats, when non-nil, additionally receives the explain counters.
func (ns *NormSorted) topKMaskedDone(q vec.Vector, k int, unsigned bool, dead *Tombstones, done <-chan struct{}, stats *ScanStats) ([]Hit, int, bool, error) {
	s := ns.store
	if err := s.checkMask(dead); err != nil {
		return nil, 0, false, err
	}
	if dead.Count() == 0 {
		return ns.topKDone(q, k, unsigned, done, stats)
	}
	if err := s.checkQuery(q); err != nil {
		return nil, 0, false, err
	}
	if k <= 0 {
		return nil, 0, false, fmt.Errorf("flat: k=%d must be positive", k)
	}
	qn := vec.Norm(q)
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
			if stats != nil {
				stats.PrunedBlocks += (n - start + blockRows - 1) / blockRows
			}
			break
		}
		end := start + blockRows
		if end > n {
			end = n
		}
		nb := end - start
		nd := dead.DeadIn(start, end)
		if nd == nb {
			if stats != nil {
				stats.SkippedBlocks++
			}
			continue
		}
		s.dotRange(q, start, end, buf[:nb])
		scanned += nb
		if nd == 0 {
			offerScores(&a, buf[:nb], start, unsigned, ns.perm)
		} else {
			offerScoresMasked(&a, buf[:nb], start, unsigned, ns.perm, dead)
		}
	}
	if stats != nil {
		stats.ScannedRows += scanned
	}
	return a.Hits(), scanned, false, nil
}

// TopKMultiMaskedInto is the masked multi-query sweep: accs[j] receives
// the live-row top-k for query qlo+j, bit-identical to
// TopKMasked(qs.Row(qlo+j), k, unsigned, 1, dead). Fully-dead blocks
// are skipped before the tile kernel runs.
func (s *Store) TopKMultiMaskedInto(qs *Store, qlo, qhi int, unsigned bool, accs []Acc, sc *TileScratch, dead *Tombstones) error {
	_, err := s.topKMultiMaskedDone(qs, qlo, qhi, unsigned, accs, sc, dead, nil)
	return err
}

// topKMultiMaskedDone is the masked multi-query driver with the
// optional per-block done poll (nil done keeps the historical
// unchecked loop).
func (s *Store) topKMultiMaskedDone(qs *Store, qlo, qhi int, unsigned bool, accs []Acc, sc *TileScratch, dead *Tombstones, done <-chan struct{}) (bool, error) {
	if err := s.checkMask(dead); err != nil {
		return false, err
	}
	if dead.Count() == 0 {
		return s.topKMultiDone(qs, qlo, qhi, unsigned, accs, sc, done)
	}
	if err := s.checkMulti(qs, qlo, qhi, accs); err != nil {
		return false, err
	}
	n := s.Len()
	buf := sc.tileBuf()
	for start := 0; start < n; start += blockRows {
		if done != nil {
			select {
			case <-done:
				return true, nil
			default:
			}
		}
		end := min(start+blockRows, n)
		nb := end - start
		nd := dead.DeadIn(start, end)
		if nd == nb {
			continue
		}
		for g := qlo; g < qhi; g += maxTileQ {
			gh := min(g+maxTileQ, qhi)
			s.dotTile(qs, g, gh, start, end, buf)
			for j := g; j < gh; j++ {
				if nd == 0 {
					offerScores(&accs[j-qlo], buf[(j-g)*nb:(j-g+1)*nb], start, unsigned, nil)
				} else {
					offerScoresMasked(&accs[j-qlo], buf[(j-g)*nb:(j-g+1)*nb], start, unsigned, nil, dead)
				}
			}
		}
	}
	return false, nil
}

// TopKMultiMaskedInto is the masked multi-query descending-norm sweep
// (dead in physical order, as in TopKMasked): hits and scanned counts
// are bit-identical to the single-query masked scan per query.
func (ns *NormSorted) TopKMultiMaskedInto(qs *Store, qlo, qhi int, unsigned bool, accs []Acc, scanned []int, sc *TileScratch, dead *Tombstones) error {
	_, err := ns.topKMultiMaskedDone(qs, qlo, qhi, unsigned, accs, scanned, sc, dead, nil)
	return err
}

// topKMultiMaskedDone is the masked multi-query descending-norm driver
// with the optional per-block stop poll (nil stop keeps the historical
// unchecked loop).
func (ns *NormSorted) topKMultiMaskedDone(qs *Store, qlo, qhi int, unsigned bool, accs []Acc, scanned []int, sc *TileScratch, dead *Tombstones, stop <-chan struct{}) (bool, error) {
	s := ns.store
	if err := s.checkMask(dead); err != nil {
		return false, err
	}
	if dead.Count() == 0 {
		return ns.topKMultiDone(qs, qlo, qhi, unsigned, accs, scanned, sc, stop)
	}
	if err := s.checkMulti(qs, qlo, qhi, accs); err != nil {
		return false, err
	}
	qn := qhi - qlo
	if scanned != nil && len(scanned) != qn {
		return false, fmt.Errorf("flat: %d scanned slots for %d queries", len(scanned), qn)
	}
	n := s.Len()
	buf := sc.tileBuf()
	done := sc.doneBuf(qn)
	live := qn
	for start := 0; start < n && live > 0; start += blockRows {
		if stop != nil {
			select {
			case <-stop:
				return true, nil
			default:
			}
		}
		lead := s.norms.at(start)
		end := min(start+blockRows, n)
		nb := end - start
		for j := 0; j < qn; j++ {
			if !done[j] && accs[j].Full() && lead*qs.Norm(qlo+j) < accs[j].Threshold() {
				done[j] = true
				live--
			}
		}
		nd := dead.DeadIn(start, end)
		if nd == nb {
			continue
		}
		for j := 0; j < qn; {
			if done[j] {
				j++
				continue
			}
			r := j + 1
			for r < qn && !done[r] && r-j < maxTileQ {
				r++
			}
			s.dotTile(qs, qlo+j, qlo+r, start, end, buf)
			for jj := j; jj < r; jj++ {
				if nd == 0 {
					offerScores(&accs[jj], buf[(jj-j)*nb:(jj-j+1)*nb], start, unsigned, ns.perm)
				} else {
					offerScoresMasked(&accs[jj], buf[(jj-j)*nb:(jj-j+1)*nb], start, unsigned, ns.perm, dead)
				}
				if scanned != nil {
					scanned[jj] += nb
				}
			}
			j = r
		}
	}
	return false, nil
}
