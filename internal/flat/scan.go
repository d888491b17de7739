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
// kernel runs, and in a mixed block only a row whose score clears the
// bar pays a bit test — so a scan over the state between a burst of
// deletes and the next compaction approaches the cost of the compacted
// store, and answers are bit-identical to scanning a store that never
// held the dead rows.
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
	// descending-norm Cauchy–Schwarz bound ended the sweep first.
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
// [qlo, qhi) of qs for offerTile, once per sweep; offerTile scores the
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

// run is a stretch of rows stored as one: a store-order view's rows, or
// one norm-sorted run of a norm-sorted view's.
type run struct {
	t tier
	// ids, norms, pos and off are set on a norm-sorted run, which holds
	// the store rows [off, off+len(ids)) at the positions [off,
	// off+len(ids)) of its view's physical order: ids[p] is the store
	// index of the run's row p (non-nil even when empty), pos the inverse
	// — store row i is the run's row pos[i-off] — and norms its norm
	// column, which never increases.
	ids   []int32
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
// needs — in a stack of norm-sorted runs, each a stretch of the store
// order sorted among itself: the base run, then the tails, each of a
// smaller size class than the base (see Extend), and all swept in one
// order by leading norm.
type View struct {
	run         // the rows in store order, or a norm-sorted view's base run
	tails []run // a norm-sorted view's later runs, in store order; never written once published
	// order is the sweep order of a view of several runs: every block, a
	// stable sort by leading norm, descending; nil: physical order.
	order []blockRef
}

// blockRef is a row block: its run — 0 the base run, i tails[i-1] — and
// its first row in that run.
type blockRef struct{ run, start int32 }

// blocks returns how many row blocks v sweeps.
func (v *View) blocks() int {
	if v.order != nil {
		return len(v.order)
	}
	return (v.t.Len() + blockRows - 1) / blockRows
}

// blockAt returns block i of v's sweep order: its reference, its run and
// the rows [start, end) of that run it holds.
func (v *View) blockAt(i int) (b blockRef, r *run, start, end int) {
	if b = (blockRef{0, int32(i * blockRows)}); v.order != nil {
		b = v.order[i]
	}
	if r, start = &v.run, int(b.start); b.run > 0 {
		r = &v.tails[b.run-1]
	}
	return b, r, start, min(start+blockRows, r.t.Len())
}

// Len returns the number of rows.
func (v View) Len() int {
	n := v.t.Len()
	for _, r := range v.tails {
		n += r.len()
	}
	return n
}

// Dim returns the row dimension.
func (v View) Dim() int { return v.t.Dim() }

// Sorted reports whether v is a norm-sorted view.
func (v View) Sorted() bool { return v.ids != nil }

// AllocatedBytes returns the bytes of row storage the view holds
// allocated — on a norm-sorted view the physical copy, every run.
func (v View) AllocatedBytes() int64 {
	n := v.t.AllocatedBytes()
	for _, r := range v.tails {
		n += r.t.AllocatedBytes()
	}
	return n
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

// rows runs the blocked top-k scan over blocks [lo, hi) of the view's
// sweep order, offering into a and counting into st. Scores are
// materialised blockRows at a time into buf, so the top-k bookkeeping
// runs over a dense score slice instead of interleaving with the FP
// pipeline, and the common row costs one multiply-add chain and one
// compare. A norm-sorted view's sweep ends at the first block whose
// leading (largest) norm cannot reach the bar — the k-th best hit, or
// a's floor — and a block before it is cut at its first such row (see
// reach): no row from there on can enter, tombstoned or not, so
// exactness does not depend on the bound — it only saves work. A true
// return means done fired and the scan was abandoned; a is then partial
// and must be discarded.
func (s *sweep) rows(lo, hi int, a *Acc, st *ScanStats, buf []float64) bool {
	for i := lo; i < hi; i++ {
		if s.done != nil {
			select {
			case <-s.done:
				return true
			default:
			}
		}
		_, r, start, end := s.blockAt(i)
		end, ok := s.reach(r, start, end, s.bound, a)
		if !ok {
			st.PrunedBlocks += hi - i
			break
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
		s.block(*r, start, nd).offer(a, buf[:nb])
	}
	return false
}

// reach returns where a query of norm bound bound stops scoring block
// [start, end) of r at a's bar: end on a store-order run, else the first
// row whose norm·bound is below the bar, searched in the block's norms
// (a block never straddles a chunk). A run's norms do not increase and
// the bar only rises, so no later row can reach it; ok is false when the
// leading row is below it, and so every later block of the sweep order.
// The compare is strict, so a row tying the k-th best is offered; a NaN
// norm sorts first and a NaN product compares false.
func (s *sweep) reach(r *run, start, end int, bound float64, a *Acc) (stop int, ok bool) {
	if r.norms == nil {
		return end, true
	}
	chunk, lo, hi := r.norms.span(start, end)
	ns, bar := chunk[lo:hi], s.bar(a)
	if !(ns[len(ns)-1]*bound < bar) {
		return end, true // the common block: no row below the bar
	}
	for lo, hi = 0, len(ns)-1; lo < hi; {
		if m := int(uint(lo+hi) >> 1); ns[m]*bound < bar {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return start + lo, lo > 0
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

// skipGroup is how many scores skipBelow passes over per compare.
const skipGroup = 16

// offer feeds a the scores of b's rows from its first on, |score| when
// unsigned: the one copy of the top-k bookkeeping behind every sweep
// that materialises a block's scores, both scan orders and masked or
// not (the int8 tile offers from its code-domain mask). Once a is full
// nearly every score is below its threshold, so the loop skips whole
// 16-score groups of those on one compare (skipBelow) and offers the
// rows of the first group that is not, one by one: a score not below
// the threshold goes to Offer unless its row is dead. Offer decides
// everything else — a tie (the smaller index or key wins), a NaN (never
// skipped, always dropped), the floor — so hits are Offer's on every
// score, bit for bit. A row's index is its store index: ids maps a
// norm-sorted run's rows back, and dead is in the physical order the
// run starts at off.
func (b block) offer(a *Acc, scores []float64) {
	var ids []int32
	if b.ids != nil {
		ids = b.ids[b.start : b.start+len(scores)]
	}
	phys, thr, unsigned := b.off+b.start, a.Threshold(), b.unsigned
	for g := 0; g < len(scores); g += skipGroup {
		switch {
		case len(scores)-g < skipGroup: // a partial group: no call
		case useDotTileAsm:
			g += skipBelow(scores[g:], thr, unsigned)
		default:
			g += skipBelowGeneric(scores[g:], thr, unsigned)
		}
		for r, v := range scores[g:min(g+skipGroup, len(scores))] {
			if unsigned && v < 0 {
				v = -v
			}
			if r += g; v < thr || b.dead.Dead(phys+r) {
				continue
			}
			if ids != nil {
				a.Offer(int(ids[r]), v)
			} else {
				a.Offer(phys+r, v)
			}
			thr = a.Threshold()
		}
	}
}

// skipBelowGeneric returns the start of the first whole skipGroup-score
// group of buf holding a score s with !(s < thr), |s| when unsigned,
// else the start of the partial last group (len(buf) when there is
// none), which it does not read: the caller tests those rows one by one.
// A NaN is never below thr.
func skipBelowGeneric(buf []float64, thr float64, unsigned bool) int {
	n := len(buf) &^ (skipGroup - 1)
	for r, v := range buf[:n] {
		if unsigned {
			v = math.Abs(v)
		}
		if !(v < thr) {
			return r &^ (skipGroup - 1)
		}
	}
	return n
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
		stopped = s.rows(0, s.blocks(), &a, &st, sc.tileBuf())
	}
	if stopped {
		return nil, stopErr(ctx)
	}
	if o.Stats != nil {
		*o.Stats = st
	}
	return a.Hits(), nil
}

// parallel splits the sweep across workers goroutines on ranges of
// blocks — so the block partition, and with it the stats, is the serial
// scan's — and merges the per-range accumulators under the
// canonical ordering, which makes the hits the serial scan's too. The
// receiver is a copy so that only a parallel scan moves its sweep to
// the heap.
func (s sweep) parallel(workers int, a *Acc, st *ScanStats) bool {
	n, k := s.blocks(), a.k
	per := (n + workers - 1) / workers
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
// the same options, and sc.Scanned()[j] is that scan's ScannedRows. An
// accumulator given a floor (Acc.SetFloor) keeps the top k among the rows
// scoring at least it — a join's cs, or the k-th best a query already
// holds from other shards — and, on a norm-sorted view, stops its sweep
// once the norm bound falls below the floor; it never scores more rows
// than the floor-less scan. On a tier with a tile kernel all queries
// share one sweep of the rows, each row loaded from memory scored
// against up to maxTileQ queries; on a norm-sorted view a query leaves
// the sweep at the first row its own bound excludes and only the live
// queries are scored, in contiguous stretches. A Store32 is swept once
// per query. On
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
	scanned := resize(&sc.scanned, len(accs))
	clear(scanned)
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
			if s.rows(0, s.blocks(), &accs[j], &one, sc.tileBuf()) {
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
	// Only int8 binds the query rows, and an int8 view is one run.
	s.t.(tiler).bindTile(qs, qlo, qlo+qn, sc)
	// ends[j]: where query j stops scoring the current block; the
	// block's first row when it sits the block out. pruned[j]: query j's
	// bound has ended its sweep. bounds[j]: that bound, from the query's
	// cached norm — the value bind computes for Scan.
	ends, pruned, bounds := resize(&sc.ends, qn), resize(&sc.pruned, qn), resize(&sc.bounds, qn)
	clear(pruned)
	for j := range bounds {
		bounds[j] = f64Bound(qs.Norm(qlo+j), qs.dim)
	}
	live, nb := qn, s.blocks()
	for i := 0; i < nb && live > 0; i++ {
		if s.done != nil {
			select {
			case <-s.done:
				return true
			default:
			}
		}
		_, r, start, end := s.blockAt(i)
		nd := 0
		if s.dead != nil {
			nd = s.dead.DeadIn(r.off+start, r.off+end)
		}
		for j := range accs {
			ends[j] = start
			if pruned[j] {
				continue
			}
			var ok bool
			if ends[j], ok = s.reach(r, start, end, bounds[j], &accs[j]); !ok {
				pruned[j], live = true, live-1
				st.PrunedBlocks += nb - i
				continue
			}
			if e := ends[j]; nd > 0 && s.dead.DeadIn(r.off+start, r.off+e) == e-start {
				st.SkippedBlocks++
				ends[j] = start
			}
		}
		til := r.t.(tiler)
		for j := 0; j < qn; {
			if ends[j] == start {
				j++
				continue
			}
			k := j + 1
			for k < qn && ends[k] > start && k-j < maxTileQ {
				k++
			}
			til.offerTile(s.block(*r, start, nd), qs, qlo+j, accs[j:k], ends[j:k], sc)
			for jj := j; jj < k; jj++ {
				n := ends[jj] - start
				scanned[jj] += n
				st.ScannedRows += n
			}
			j = k
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
