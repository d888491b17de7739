// The scan drivers. Every top-k scan in the package — exact or
// norm-pruned, over float64, float32 or int8 rows, masked or not,
// cancellable or not, one query or a tile of them — is one of the two
// loops in this file: View.Scan and View.ScanMulti. A storage tier
// contributes only its kernels (the tier interface); the block loop, the
// cancellation poll, the tombstone triage, the Cauchy–Schwarz early
// exit, the worker fan-out and the canonical top-k bookkeeping are
// written once.
//
// Cancellation: the drivers poll ctx.Done() once per blockRows row
// block, so a cancelled scan stops within one block of the
// cancellation and returns ctx's error; partial hits are never
// returned, so a completed scan is bit-identical whatever ctx it ran
// under. A context that can never be cancelled (context.Background)
// has a nil Done channel and the loop skips the poll.
//
// Tombstones: a block whose rows are all dead is skipped before the
// kernel runs, a block with no dead row takes the unmasked bookkeeping,
// and only a mixed block pays a per-row bit test — so a scan over the
// state between a burst of deletes and the next compaction approaches
// the cost of the compacted store, and answers are bit-identical to
// scanning a store that never held the dead rows.
package flat

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/vec"
)

// ScanOpts parameterizes one scan.
type ScanOpts struct {
	// K is the number of hits Scan keeps. ScanMulti ignores it: its
	// accumulators carry their own k.
	K int
	// Unsigned ranks by |pᵀq|.
	Unsigned bool
	// Workers > 1 lets Scan split a row-order view across that many
	// goroutines when it is large enough (see MaxScanWorkers); hits are
	// the same whatever the split.
	Workers int
	// Dead marks rows to leave out, in the view's own row order (for a
	// norm-sorted view, Gather(Perm()) of the original-order set). Nil
	// means every row is live.
	Dead *Tombstones
	// Floor is a pruning-only acceptance bar for norm-sorted views: a
	// query's sweep ends at the first block whose norm bound falls below
	// max(Floor, its k-th best) even while its accumulator is under-full —
	// a join's cs, below which it reports nothing anyway. Hits are not
	// filtered by it, and since norm bounds are ≥ 0 the zero value never
	// prunes.
	Floor float64
	// Stats, when non-nil, is set to the work the scan did.
	Stats *ScanStats
}

// ScanStats counts the work of one scan. Every row block ends up in
// exactly one of the three block counters. ScanMulti reports the sum
// over its queries of what a Scan per query would have counted.
type ScanStats struct {
	// ScannedRows counts rows whose score the kernel evaluated.
	ScannedRows int
	// PrunedBlocks counts blocks never evaluated because the
	// descending-norm Cauchy–Schwarz bound ended the scan first.
	PrunedBlocks int
	// SkippedBlocks counts blocks skipped because every row in them was
	// tombstoned.
	SkippedBlocks int
	// Candidates counts rows verified one by one (OfferRows) by an engine
	// that finds candidates instead of sweeping; the scans leave it zero.
	Candidates int
}

// Add adds o's counts to st's.
func (st *ScanStats) Add(o ScanStats) {
	st.ScannedRows += o.ScannedRows
	st.PrunedBlocks += o.PrunedBlocks
	st.SkippedBlocks += o.SkippedBlocks
	st.Candidates += o.Candidates
}

// tier is what a storage precision gives the scan drivers: Store,
// Store32 and StoreI8 implement it. Implementations only read the store,
// so scoreBlock is safe for concurrent calls on any ranges.
type tier interface {
	Len() int
	Dim() int
	AllocatedBytes() int64
	// bind puts q into bq in the form scoreBlock consumes — as it is,
	// rounded to float32 or quantized to int8 — once per scan, reusing
	// bq's buffers.
	bind(q vec.Vector, bq *query)
	// scoreBlock fills out[0:hi-lo] with the scores of rows [lo, hi).
	scoreBlock(bq *query, lo, hi int, out []float64)
	// extend returns the tier over fs, an append-only f64 store whose
	// leading Len() rows are the ones this tier holds, and how many of
	// the result's rows share memory with this tier's.
	extend(fs *Store) (tier, int)
}

// normBounded is the capability a norm-sorted view needs from its tier
// (Store and Store32 have it): bound returns B such that every computed
// score satisfies |score(row)| ≤ ‖row‖·B, rounding included.
type normBounded interface {
	bound(bq *query) float64
}

// tiler is the optional multi-query kernel: scoreTile fills out with the
// (qhi-qlo)×(hi-lo) tile of query rows [qlo, qhi) of qs against rows
// [lo, hi), every score bit-identical to scoreBlock's. Only Store has
// one; ScanMulti sweeps the other tiers once per query.
type tiler interface {
	scoreTile(qs *Store, qlo, qhi, lo, hi int, out []float64)
}

// query is one query bound to a tier: the field that tier's kernel
// reads is set, the others keep their buffers for reuse.
type query struct {
	f64   vec.Vector
	f32   []float32
	i16   []int16
	scale float64 // int8: store scale × query scale
}

// View is a scannable arrangement of one tier's rows: the rows in store
// order (Store.View, Store32.View, StoreI8.View) or physically
// reordered by descending norm for early-terminating scans
// (NewNormSorted, Store32.NormSorted). Hits always carry store-order row
// indexes. A View is a small value; copies scan the same rows.
type View struct {
	t tier
	// perm and norms are set on a norm-sorted view: perm[physical] is
	// the store-order index, norms the (non-increasing) norm column.
	perm  []int
	norms *chunked[float64]
}

// Len returns the number of rows.
func (v View) Len() int { return v.t.Len() }

// Dim returns the row dimension.
func (v View) Dim() int { return v.t.Dim() }

// Perm returns the physical→store-order index map of a norm-sorted
// view, nil for a store-order view. The slice aliases the view's state
// and must not be mutated.
func (v View) Perm() []int { return v.perm }

// AllocatedBytes returns the bytes of row storage the view's tier holds
// allocated.
func (v View) AllocatedBytes() int64 { return v.t.AllocatedBytes() }

// MaxScanWorkers returns the largest Workers value Scan can spend on
// this view — the clamp Scan applies itself. Serving layers use it to
// avoid reserving parallelism a small shard would hold idle. A
// norm-sorted scan is sequential by nature: each block's bound depends
// on the hits so far.
func (v View) MaxScanWorkers() int {
	if v.perm != nil {
		return 1
	}
	return v.Len() / minParallelRows
}

// Extend returns the store-order view of fs through v's tier, where fs
// is an append-only store whose leading rows are the ones v scans: only
// the rows the tier lacks are converted, the rest is shared with v
// (which keeps serving), and copied reports how many of the result's
// rows do not share memory with v's. ok is false for a norm-sorted
// view: a new row can land anywhere in the order, so it is rebuilt.
func (v View) Extend(fs *Store) (ext View, copied int, ok bool) {
	if v.perm != nil {
		return View{}, 0, false
	}
	t, shared := v.t.extend(fs)
	return View{t: t}, fs.Len() - shared, true
}

// sortByNorm fills the empty columns dst/dstNorms with the rows of
// data/norms in (norm descending, index ascending) order and returns
// the physical→original index map. The physical copy deliberately
// doubles the rows' resident memory: keeping the norm-ordered prefix
// contiguous is what lets the early-terminating scan stream at kernel
// speed (≈3× a permutation-chasing scan on the serving batch path). The
// sort sits on the rebuild path of every normscan write, where it, not
// the row copy, is the cost: it is a stable byte-wise radix sort on the
// norms' bit patterns — norms are ≥ 0, so their bits order as they do,
// complemented for the descending order, and stability keeps equal norms
// in index order — several times faster at a shard's few thousand rows
// than a comparison sort calling back into a comparator.
func sortByNorm[T any](data *chunked[T], norms *chunked[float64], dst *chunked[T], dstNorms *chunked[float64]) []int {
	n := data.n
	type key struct {
		bits uint64
		idx  int
	}
	keys, spare := make([]key, n), make([]key, n)
	for i := range keys {
		keys[i] = key{bits: ^math.Float64bits(norms.at(i)), idx: i}
	}
	for shift := 0; shift < 64 && n > 1; shift += 8 {
		var start [256]int
		for _, k := range keys {
			start[k.bits>>shift&255]++
		}
		if start[keys[0].bits>>shift&255] == n {
			continue // every key has the same byte here
		}
		at := 0
		for b, c := range start {
			start[b], at = at, at+c
		}
		for _, k := range keys {
			b := k.bits >> shift & 255
			spare[start[b]] = k
			start[b]++
		}
		keys, spare = spare, keys
	}
	perm := make([]int, n)
	for phys := 0; phys < n; {
		rows := dst.grow(n - phys)
		ns := dstNorms.grow(len(rows) / data.width)
		for i := range ns {
			idx := keys[phys+i].idx
			perm[phys+i] = idx
			copy(rows[i*data.width:], data.row(idx))
			ns[i] = norms.at(idx)
		}
		phys += len(ns)
	}
	return perm
}

// check validates a scan's query dimension and tombstone set.
func (v View) check(qdim int, dead *Tombstones) error {
	if qdim != v.Dim() {
		return fmt.Errorf("flat: query dimension %d, store has %d", qdim, v.Dim())
	}
	if dead != nil && dead.Len() != v.Len() {
		return fmt.Errorf("flat: tombstones cover %d rows, store has %d", dead.Len(), v.Len())
	}
	return nil
}

// sweep is one query's pass over a view: everything the block loop
// needs that does not change from block to block.
type sweep struct {
	View
	done     <-chan struct{}
	bq       *query
	bound    float64 // norm-sorted views: |score(row)| ≤ ‖row‖·bound
	floor    float64 // ScanOpts.Floor
	unsigned bool
	dead     *Tombstones // nil when no row is dead
}

// newSweep starts a pass over v; bind gives it its query. An empty dead
// set becomes nil, so delete-free stores never pay the triage.
func (v View) newSweep(ctx context.Context, o ScanOpts) sweep {
	s := sweep{View: v, done: ctx.Done(), floor: o.Floor, unsigned: o.Unsigned}
	if o.Dead.Count() > 0 {
		s.dead = o.Dead
	}
	return s
}

// bar is the score a later row must reach to matter to a: its k-th best
// once it is full, and never less than the floor.
func (s *sweep) bar(a *Acc) float64 {
	if a.Full() && a.Threshold() > s.floor {
		return a.Threshold()
	}
	return s.floor
}

// bind puts q, in the tier's form, into bq and makes it the sweep's
// query.
func (s *sweep) bind(q vec.Vector, bq *query) {
	s.bq = bq
	s.t.bind(q, bq)
	if s.perm != nil {
		s.bound = s.t.(normBounded).bound(bq)
	}
}

// rows runs the blocked top-k scan over rows [lo, hi) in ascending
// physical order, offering into a and counting into st. Scores are
// materialised blockRows at a time into buf, so the top-k bookkeeping
// runs over a dense score slice instead of interleaving with the FP
// pipeline, and the common row costs one multiply-add chain and one
// compare. On a norm-sorted view the scan ends at the first block whose
// leading (largest) norm cannot reach the bar — the k-th best hit, or
// the floor: no later row can enter, tombstoned or not, so exactness
// does not depend on the bound — it only saves work. A true return means
// done fired and the scan was abandoned; a is then partial and must be
// discarded.
func (s *sweep) rows(lo, hi int, a *Acc, st *ScanStats, buf []float64) bool {
	for start := lo; start < hi; start += blockRows {
		if s.done != nil {
			select {
			case <-s.done:
				return true
			default:
			}
		}
		if s.perm != nil && s.norms.at(start)*s.bound < s.bar(a) {
			st.PrunedBlocks += (hi - start + blockRows - 1) / blockRows
			break
		}
		end := min(start+blockRows, hi)
		nb := end - start
		nd := 0
		if s.dead != nil {
			if nd = s.dead.DeadIn(start, end); nd == nb {
				st.SkippedBlocks++
				continue
			}
		}
		s.t.scoreBlock(s.bq, start, end, buf[:nb])
		st.ScannedRows += nb
		s.offer(a, buf[:nb], start, nd)
	}
	return false
}

// offer feeds one block of scores into a; nd is the number of dead rows
// in the block.
func (s *sweep) offer(a *Acc, scores []float64, base, nd int) {
	if nd == 0 {
		offerScores(a, scores, base, s.unsigned, s.perm)
	} else {
		offerScoresMasked(a, scores, base, s.unsigned, s.perm, s.dead)
	}
}

// stopErr reports why a scan stopped. The done channel only fires once
// ctx is cancelled, so Err is non-nil then; the Canceled fallback
// guards against a misbehaving custom context.
func stopErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// Scan returns up to o.K hits for q under the canonical (score
// descending, index ascending) ordering, among the rows o.Dead does not
// mark. Scores are the tier's: exact on Store, float32-accurate on
// Store32, dequantized approximations on StoreI8 (callers needing exact
// scores re-rank the hits through the f64 rows). The answer is
// bit-identical across view orders, worker counts and contexts; only
// the work differs, and o.Stats reports it.
func (v View) Scan(ctx context.Context, q vec.Vector, o ScanOpts) ([]Hit, error) {
	if err := v.check(len(q), o.Dead); err != nil {
		return nil, err
	}
	if o.K <= 0 {
		return nil, fmt.Errorf("flat: k=%d must be positive", o.K)
	}
	sc := GetTileScratch()
	defer PutTileScratch(sc)
	s := v.newSweep(ctx, o)
	s.bind(q, &sc.q)
	a := NewAcc(o.K)
	var st ScanStats
	var stopped bool
	if workers := min(o.Workers, v.MaxScanWorkers()); workers > 1 {
		stopped = s.parallel(workers, &a, &st)
	} else {
		stopped = s.rows(0, v.Len(), &a, &st, sc.tileBuf())
	}
	if stopped {
		return nil, stopErr(ctx)
	}
	if o.Stats != nil {
		*o.Stats = st
	}
	return a.Hits(), nil
}

// parallel splits the sweep across workers goroutines on block-aligned
// row ranges — so the block partition, and with it the stats, is the
// serial scan's — and merges the per-range accumulators under the
// canonical ordering, which makes the hits the serial scan's too. The
// receiver is a copy so that only a parallel scan moves its sweep to
// the heap.
func (s sweep) parallel(workers int, a *Acc, st *ScanStats) bool {
	n, k := s.Len(), a.k
	per := (n + workers - 1) / workers
	per = (per + blockRows - 1) / blockRows * blockRows
	accs := make([]Acc, workers)
	stats := make([]ScanStats, workers)
	stopped := make([]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w*per < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := GetTileScratch()
			defer PutTileScratch(sc)
			accs[w] = NewAcc(k)
			stopped[w] = s.rows(w*per, min((w+1)*per, n), &accs[w], &stats[w], sc.tileBuf())
		}(w)
	}
	wg.Wait()
	for w := range accs {
		if stopped[w] {
			return true
		}
		st.Add(stats[w])
		for _, h := range accs[w].Hits() {
			a.Offer(h.Index, h.Score)
		}
	}
	return false
}

// ScanMulti answers one top-k query per row of qs[qlo:qhi],
// accumulating into accs (accs[j] serves query qlo+j and must be Reset
// to the desired k): accs[j].Hits() is bit-identical — ordering,
// tie-breaks and NaN rejection included — to Scan(qs.Row(qlo+j)) with
// the same options, and sc.Scanned()[j] is that scan's ScannedRows. On a
// tier with a tile kernel all queries share one sweep of the rows, each
// row loaded from memory scored against up to maxTileQ queries; on a
// norm-sorted view a query goes inactive at the first block its own
// bound excludes and only still-live queries are scored (contiguous
// live runs feed the tile kernel). Other tiers are swept once per
// query. With a tile kernel and warm scratch it allocates nothing.
// o.Workers is ignored. On an error accs hold partial state and must be
// Reset before reuse.
func (v View) ScanMulti(ctx context.Context, qs *Store, qlo, qhi int, accs []Acc, sc *TileScratch, o ScanOpts) error {
	if err := checkMulti(qs, qlo, qhi, accs); err != nil {
		return err
	}
	if err := v.check(qs.dim, o.Dead); err != nil {
		return err
	}
	scanned := sc.scannedBuf(len(accs))
	s := v.newSweep(ctx, o)
	var st ScanStats
	if til, ok := v.t.(tiler); ok {
		if s.tiles(til, qs, qlo, accs, scanned, &st, sc) {
			return stopErr(ctx)
		}
	} else {
		for j := range accs {
			s.bind(qs.Row(qlo+j), &sc.q)
			var one ScanStats
			if s.rows(0, v.Len(), &accs[j], &one, sc.tileBuf()) {
				return stopErr(ctx)
			}
			scanned[j] = one.ScannedRows
			st.Add(one)
		}
	}
	if o.Stats != nil {
		*o.Stats = st
	}
	return nil
}

// tiles is the one-sweep form of ScanMulti, rows' twin over a query
// tile: the same poll, early exit, tombstone triage and bookkeeping per
// block, with the scores of up to maxTileQ queries materialised at once.
// A true return means done fired.
func (s *sweep) tiles(til tiler, qs *Store, qlo int, accs []Acc, scanned []int, st *ScanStats, sc *TileScratch) bool {
	qn, n := len(accs), s.Len()
	buf := sc.tileBuf()
	// pruned[j]: query j's bound has ended its scan. The f64 tile kernel
	// scores the query rows as stored, so a query's bound is its cached
	// norm — the value bind computes for Scan.
	pruned := sc.prunedBuf(qn)
	live := qn
	for start := 0; start < n && live > 0; start += blockRows {
		if s.done != nil {
			select {
			case <-s.done:
				return true
			default:
			}
		}
		if s.perm != nil {
			lead := s.norms.at(start)
			for j := 0; j < qn; j++ {
				if !pruned[j] && lead*qs.Norm(qlo+j) < s.bar(&accs[j]) {
					pruned[j] = true
					live--
					st.PrunedBlocks += (n - start + blockRows - 1) / blockRows
				}
			}
		}
		end := min(start+blockRows, n)
		nb := end - start
		nd := 0
		if s.dead != nil {
			if nd = s.dead.DeadIn(start, end); nd == nb {
				st.SkippedBlocks += live
				continue
			}
		}
		for j := 0; j < qn; {
			if pruned[j] {
				j++
				continue
			}
			r := j + 1
			for r < qn && !pruned[r] && r-j < maxTileQ {
				r++
			}
			til.scoreTile(qs, qlo+j, qlo+r, start, end, buf)
			for jj := j; jj < r; jj++ {
				s.offer(&accs[jj], buf[(jj-j)*nb:(jj-j+1)*nb], start, nd)
				scanned[jj] += nb
				st.ScannedRows += nb
			}
			j = r
		}
	}
	return false
}

// checkMulti validates ScanMulti's query range and accumulators.
func checkMulti(qs *Store, qlo, qhi int, accs []Acc) error {
	if qs == nil {
		return fmt.Errorf("flat: nil query store")
	}
	if qlo < 0 || qhi > qs.Len() || qlo > qhi {
		return fmt.Errorf("flat: queries [%d, %d) out of [0, %d)", qlo, qhi, qs.Len())
	}
	if len(accs) != qhi-qlo {
		return fmt.Errorf("flat: %d accumulators for %d queries", len(accs), qhi-qlo)
	}
	for i := range accs {
		if accs[i].k <= 0 {
			return fmt.Errorf("flat: accumulator %d has k=%d, must be positive", i, accs[i].k)
		}
	}
	return nil
}

// topKMulti is the allocating form of ScanMulti behind the TopKMulti
// wrappers: a hit list and a scanned-row count per row of qs.
func (v View) topKMulti(qs *Store, k int, unsigned bool) ([][]Hit, []int, error) {
	if qs == nil {
		return nil, nil, fmt.Errorf("flat: nil query store")
	}
	if k <= 0 {
		return nil, nil, fmt.Errorf("flat: k=%d must be positive", k)
	}
	nq := qs.Len()
	accs := make([]Acc, nq)
	for j := range accs {
		accs[j].Reset(k)
	}
	sc := GetTileScratch()
	defer PutTileScratch(sc)
	if err := v.ScanMulti(context.Background(), qs, 0, nq, accs, sc, ScanOpts{Unsigned: unsigned}); err != nil {
		return nil, nil, err
	}
	out := make([][]Hit, nq)
	for j := range accs {
		out[j] = append(make([]Hit, 0, len(accs[j].Hits())), accs[j].Hits()...)
	}
	return out, slices.Clone(sc.Scanned()), nil
}
