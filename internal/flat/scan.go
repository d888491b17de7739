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
	"slices"
	"sort"
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
	// goroutines when it is large enough (see maxScanWorkers); hits are
	// the same whatever the split.
	Workers int
	// Dead marks rows to leave out, in the view's own row order (for a
	// norm-sorted view, GatherDead of the store-order set). Nil means
	// every row is live.
	Dead *Tombstones
	// Stats, when non-nil, is set to the work the scan did.
	Stats *ScanStats
}

// ScanStats counts the work of one scan. Every row block of every run
// is scored, pruned or skipped — a block the norm bound cut short counts
// as scored, by the rows before the cut. ScanMulti reports the sum over
// its queries of what a Scan per query would have counted.
type ScanStats struct {
	// ScannedRows counts rows whose score the scan offered its
	// accumulator: every row of a scored block up to the norm bound's
	// cut.
	ScannedRows int
	// PrunedBlocks counts blocks never evaluated because the
	// descending-norm Cauchy–Schwarz bound ended their run first.
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

// tiler is the optional multi-query kernel, what lets ScanMulti sweep
// the rows once for a tile of queries. bindTile readies query rows
// [qlo, qhi) of qs for offerTile, once per run; offerTile scores the
// tile qs[qlo : qlo+len(accs)] against rows [b.start, max(ends)) of b's
// run in one pass and offers query j its rows [b.start, ends[j]),
// leaving accs[j] as b.offer would over scoreBlock's scores. Store and
// StoreI8 have it; ScanMulti sweeps a Store32 once per query.
type tiler interface {
	bindTile(qs *Store, qlo, qhi int, sc *TileScratch)
	offerTile(b block, qs *Store, qlo int, accs []Acc, ends []int, sc *TileScratch)
}

// query is one query bound to a tier: the field that tier's kernel
// reads is set, the others keep their buffers for reuse.
type query struct {
	f64   vec.Vector
	f32   []float32
	i16   []int16
	scale float64 // int8: store scale × query scale
}

// run is a stretch of rows swept as one: a store-order view's rows, or
// one norm-sorted run of a norm-sorted view's.
type run struct {
	t tier
	// ids, norms, pos and off are set on a norm-sorted run, which holds
	// the store rows [off, off+len(ids)) at the positions [off,
	// off+len(ids)) of its view's physical order: ids[p] is the store
	// index of the run's row p (non-nil even when empty), pos the inverse
	// — store row i is the run's row pos[i-off] — and norms its norm
	// column, which never increases.
	ids   []int
	norms *chunked[float64]
	pos   []int32
	off   int
}

// View is a scannable arrangement of one tier's rows: the rows in store
// order (Store.View, Store32.View, StoreI8.View) or, f64 rows only,
// physically reordered by descending norm for early-terminating scans
// (NewNormSorted, SortRows). Hits always carry store-order row
// indexes. A View is a small value; copies scan the same rows.
//
// A norm-sorted view owns its rows — the sorted copy is the only one it
// needs — in one or two norm-sorted runs, each swept under its own
// bound: the base run — a prefix of the store order, sorted once and
// shared untouched by every view extended from it — and behind it in
// the physical order the tail run, the rows appended since, sorted among
// themselves (see Extend).
type View struct {
	run      // the rows in store order, or a norm-sorted view's base run
	tail run // a norm-sorted view's tail run; the zero run when it has none
}

// Len returns the number of rows.
func (v View) Len() int {
	if v.tail.t == nil {
		return v.t.Len()
	}
	return v.t.Len() + v.tail.t.Len()
}

// Dim returns the row dimension.
func (v View) Dim() int { return v.t.Dim() }

// Sorted reports whether v is a norm-sorted view.
func (v View) Sorted() bool { return v.ids != nil }

// AllocatedBytes returns the bytes of row storage the view holds
// allocated — on a norm-sorted view the physical copy, both runs.
func (v View) AllocatedBytes() int64 {
	if v.tail.t == nil {
		return v.t.AllocatedBytes()
	}
	return v.t.AllocatedBytes() + v.tail.t.AllocatedBytes()
}

// maxScanWorkers returns the largest Workers value Scan can spend on
// this view: one per minParallelRows rows. A norm-sorted scan is
// sequential by nature: each block's bound depends on the hits so far.
func (v View) maxScanWorkers() int {
	if v.Sorted() {
		return 1
	}
	return v.Len() / minParallelRows
}

// ExtendTo returns the view of fs through v's tier, for v a store-order
// view and fs an append-only store whose leading rows are the ones v
// scans: only the rows the tier lacks are converted, the rest is shared
// with v (which keeps serving), and copied reports how many of the
// result's rows do not share memory with v's. A norm-sorted view holds
// its own rows and grows by its batch instead (Extend).
func (v View) ExtendTo(fs *Store) (ext View, copied int) {
	if v.Sorted() {
		panic("flat: ExtendTo of a norm-sorted view")
	}
	t, shared := v.t.extend(fs)
	return View{run: run{t: t}}, fs.Len() - shared
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
	slack    float64 // f64Slack: how far below the bar a bound may fall
	unsigned bool
	dead     *Tombstones // nil when no row is dead
}

// newSweep starts a pass over v; bind gives it its query. An empty dead
// set becomes nil, so delete-free stores never pay the triage.
func (v View) newSweep(ctx context.Context, o ScanOpts) sweep {
	s := sweep{View: v, done: ctx.Done(), slack: f64Slack(v.Dim()), unsigned: o.Unsigned}
	if o.Dead.Count() > 0 {
		s.dead = o.Dead
	}
	return s
}

// bar is what a later row's norm bound must reach to matter to a: its
// threshold — the k-th best once it is full, else its floor (Acc.SetFloor)
// — less the slack for subnormal roundings.
func (s *sweep) bar(a *Acc) float64 { return a.Threshold() - s.slack }

// bind puts q, in the tier's form, into bq and makes it the sweep's
// query.
func (s *sweep) bind(q vec.Vector, bq *query) {
	s.bq = bq
	s.t.bind(q, bq)
	if s.Sorted() {
		s.bound = f64Bound(RowNorm(q), s.Dim()) // Cauchy–Schwarz: ‖p‖·‖q‖ ≥ |pᵀq|
	}
}

// all sweeps the view's rows into a, run by run; a true return is rows'.
func (s *sweep) all(a *Acc, st *ScanStats, buf []float64) bool {
	return s.rows(s.run, 0, s.t.Len(), a, st, buf) ||
		s.tail.t != nil && s.rows(s.tail, 0, s.tail.t.Len(), a, st, buf)
}

// rows runs the blocked top-k scan over rows [lo, hi) of r in ascending
// physical order, offering into a and counting into st. Scores are
// materialised blockRows at a time into buf, so the top-k bookkeeping
// runs over a dense score slice instead of interleaving with the FP
// pipeline, and the common row costs one multiply-add chain and one
// compare. A norm-sorted run ends at the first block whose leading
// (largest) norm cannot reach the bar — the k-th best hit, or a's floor
// — and the block before it is cut at the first such row (see cut): no
// later row of the run can enter, tombstoned or not, so exactness does
// not depend on the bound — it only saves work. A true return means done
// fired and the scan was abandoned; a is then partial and must be
// discarded.
func (s *sweep) rows(r run, lo, hi int, a *Acc, st *ScanStats, buf []float64) bool {
	for start := lo; start < hi; start += blockRows {
		if s.done != nil {
			select {
			case <-s.done:
				return true
			default:
			}
		}
		end := min(start+blockRows, hi)
		if r.norms != nil {
			bar := s.bar(a)
			if r.norms.at(start)*s.bound < bar {
				st.PrunedBlocks += (hi - start + blockRows - 1) / blockRows
				break
			}
			end = r.cut(start, end, s.bound, bar)
		}
		nb := end - start
		nd := 0
		if s.dead != nil {
			if nd = s.dead.DeadIn(r.off+start, r.off+end); nd == nb {
				st.SkippedBlocks++
				continue
			}
		}
		r.t.scoreBlock(s.bq, start, end, buf[:nb])
		st.ScannedRows += nb
		s.block(r, start, nd).offer(a, buf[:nb])
	}
	return false
}

// cut returns where a query with the given norm bound stops scoring
// block [lo, hi) of the norm-sorted run r, whose leading row reaches
// bar: the first row whose norm·bound is below it — hi when there is
// none. The run's norms do not increase, so no row from there on can
// reach the bar either, and the bar, taken before the block is scored,
// only rises; the compare is strict, so a row that could tie the k-th
// best is still offered. A NaN norm sorts first and a NaN product
// compares false, which keeps the predicate monotone for the binary
// search.
func (r run) cut(lo, hi int, bound, bar float64) int {
	if !(r.norms.at(hi-1)*bound < bar) {
		return hi
	}
	return lo + sort.Search(hi-1-lo, func(i int) bool { return r.norms.at(lo+i)*bound < bar })
}

// block is a row block of a run as the bookkeeping sees it: its first
// row, the ranking, and the sweep's dead set when the block holds a
// dead row — nil when it holds none.
type block struct {
	run
	start    int
	unsigned bool
	dead     *Tombstones
}

// block returns the block of r from row start on, nd of whose rows are
// dead.
func (s *sweep) block(r run, start, nd int) block {
	b := block{run: r, start: start, unsigned: s.unsigned}
	if nd > 0 {
		b.dead = s.dead
	}
	return b
}

// offer feeds a the scores of b's rows from its first on.
func (b block) offer(a *Acc, scores []float64) {
	var ids []int
	if b.ids != nil {
		ids = b.ids[b.start : b.start+len(scores)]
	}
	if b.dead == nil {
		offerScores(a, scores, b.start, b.unsigned, ids)
	} else {
		offerScoresMasked(a, scores, b.off+b.start, b.unsigned, ids, b.dead)
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
// Store32, dequantized approximations on StoreI8 (ScanMulti's
// certified candidates are what an exact answer re-ranks). The answer is
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
	if workers := min(o.Workers, v.maxScanWorkers()); workers > 1 {
		stopped = s.parallel(workers, &a, &st)
	} else {
		stopped = s.all(&a, &st, sc.tileBuf())
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
			stopped[w] = s.rows(s.run, w*per, min((w+1)*per, n), &accs[w], &stats[w], sc.tileBuf())
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
// the same options, and sc.Scanned()[j] is that scan's ScannedRows. An
// accumulator given a floor (Acc.SetFloor) keeps the top k among the rows
// scoring at least it — a join's cs, or the k-th best a query already
// holds from other shards — and, on a norm-sorted view, stops its sweep
// of a run once the norm bound falls below the floor; it never scores
// more rows than the floor-less scan. On a
// tier with a tile kernel all queries share one sweep of the rows, each
// row loaded from memory scored against up to maxTileQ queries; on a
// norm-sorted view a query leaves a run at the first row its own bound
// excludes and only still-live queries are scored (contiguous stretches
// of them feed the tile kernel). A Store32 is swept once per query. On
// an int8 view each query also lists the rows its f64 top k must come
// from (TileScratch.Candidates). With a tile kernel and warm scratch it
// allocates nothing. o.Workers is ignored. On an error accs hold
// partial state and must be Reset before reuse.
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
	if _, ok := v.t.(tiler); ok {
		if s.tiles(qs, qlo, accs, scanned, &st, sc) {
			return stopErr(ctx)
		}
	} else {
		for j := range accs {
			s.bind(qs.Row(qlo+j), &sc.q)
			var one ScanStats
			if s.all(&accs[j], &one, sc.tileBuf()) {
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
// tile: the same poll, early exit, cut, tombstone triage and bookkeeping
// per block and per query, with the scores of up to maxTileQ queries
// materialised at once — to the farthest of their cuts, each query being
// offered and counted only up to its own. A true return means done fired.
func (s *sweep) tiles(qs *Store, qlo int, accs []Acc, scanned []int, st *ScanStats, sc *TileScratch) bool {
	qn := len(accs)
	// ends[j]: where query j stops scoring the current block; the
	// block's first row when it sits the block out.
	ends := sc.endsBuf(qn)
	for _, r := range [2]run{s.run, s.tail} {
		if r.t == nil {
			break
		}
		til, hi := r.t.(tiler), r.t.Len()
		til.bindTile(qs, qlo, qlo+qn, sc)
		// pruned[j]: query j's bound has ended its sweep of this run. The
		// f64 tile kernel scores the query rows as stored, so a query's
		// bound comes from its cached norm — the value bind computes for
		// Scan.
		pruned := sc.prunedBuf(qn)
		live := qn
		for start := 0; start < hi && live > 0; start += blockRows {
			if s.done != nil {
				select {
				case <-s.done:
					return true
				default:
				}
			}
			end := min(start+blockRows, hi)
			nd := 0
			if s.dead != nil {
				nd = s.dead.DeadIn(r.off+start, r.off+end)
			}
			for j := range accs {
				ends[j] = start
				switch {
				case pruned[j]:
					continue
				case r.norms == nil:
					ends[j] = end
				default:
					bound, bar := f64Bound(qs.Norm(qlo+j), qs.dim), s.bar(&accs[j])
					if r.norms.at(start)*bound < bar {
						pruned[j] = true
						live--
						st.PrunedBlocks += (hi - start + blockRows - 1) / blockRows
						continue
					}
					ends[j] = r.cut(start, end, bound, bar)
				}
				if e := ends[j]; nd > 0 && s.dead.DeadIn(r.off+start, r.off+e) == e-start {
					st.SkippedBlocks++
					ends[j] = start
				}
			}
			for j := 0; j < qn; {
				if ends[j] == start {
					j++
					continue
				}
				k := j + 1
				for k < qn && ends[k] > start && k-j < maxTileQ {
					k++
				}
				til.offerTile(s.block(r, start, nd), qs, qlo+j, accs[j:k], ends[j:k], sc)
				for jj := j; jj < k; jj++ {
					n := ends[jj] - start
					scanned[jj] += n
					st.ScannedRows += n
				}
				j = k
			}
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
