// The scan driver. Every top-k scan in the package — exact or
// norm-pruned, over float64, float32 or int8 rows, masked or not,
// cancellable or not, one query or a tile of them — is the one block
// loop in this file, sweep.tiles, behind View.ScanMulti; View.Scan is
// ScanMulti over a tile of one. A storage tier contributes only its
// kernels (the tier interface); the block loop, the cancellation poll,
// the tombstone triage, the Cauchy–Schwarz early exit and the canonical
// top-k bookkeeping are written once.
//
// Cancellation: the driver polls ctx.Done() once per blockRows row
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

	"repro/internal/vec"
)

// ScanOpts parameterizes one scan.
type ScanOpts struct {
	// K is the number of hits Scan keeps. ScanMulti ignores it: its
	// accumulators carry their own k.
	K int
	// Unsigned ranks by |pᵀq|.
	Unsigned bool
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

// tier is what a storage precision gives the scan driver: Store,
// Store32 and StoreI8 implement it. Implementations only read the store.
type tier interface {
	Len() int
	Dim() int
	AllocatedBytes() int64
	// bindTile readies query rows [qlo, qhi) of qs for offerTile — as
	// they are, rounded to float32 or quantized to int8 — once per
	// sweep, into sc's buffers.
	bindTile(qs *Store, qlo, qhi int, sc *TileScratch)
	// offerTile scores the tile qs[qlo : qlo+len(accs)] against rows
	// [b.start, max(ends)) of b's run and offers query j its rows
	// [b.start, ends[j]), leaving accs[j] as b.offer would over the
	// tier's scores of those rows.
	offerTile(b block, qs *Store, qlo int, accs []Acc, ends []int, sc *TileScratch)
	// extend returns the tier over fs, an append-only f64 store whose
	// leading Len() rows are the ones this tier holds, and how many of
	// the result's rows share memory with this tier's.
	extend(fs *Store) (tier, int)
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

// sweep is a query tile's pass over a view: everything the block loop
// needs that does not change from block to block.
type sweep struct {
	View
	done     <-chan struct{}
	slack    float64 // f64Slack: how far below the bar a bound may fall
	unsigned bool
	dead     *Tombstones // nil when no row is dead
}

// newSweep starts a pass over v. An empty dead set becomes nil, so
// delete-free stores never pay the triage.
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

// reach returns where a query of norm bound bound — |score(row)| ≤
// ‖row‖·bound — stops scoring block [start, end) of r at a's bar: end
// on a store-order run, else the first row whose norm·bound is below
// the bar, searched in the block's norms (a block never straddles a
// chunk). A run's norms do not increase and the bar only rises, so no
// later row can reach it; ok is false when the leading row is below it,
// and so every later block of the sweep order.
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
// certified candidates are what an exact answer re-ranks). It is
// ScanMulti over a tile of one — q copied into a one-row query store in
// pooled scratch — so its hits and o.Stats are ScanMulti's for q, and
// the answer is bit-identical across view orders and contexts; only the
// work differs, and o.Stats reports it.
func (v View) Scan(ctx context.Context, q vec.Vector, o ScanOpts) ([]Hit, error) {
	if err := v.check(len(q), o.Dead); err != nil {
		return nil, err
	}
	if o.K <= 0 {
		return nil, fmt.Errorf("flat: k=%d must be positive", o.K)
	}
	sc := GetTileScratch()
	defer PutTileScratch(sc)
	// Neither call can fail: len(q) is the view's dimension, positive.
	_ = sc.one.ResetDim(len(q))
	_ = sc.one.Append(q)
	// The hits are made for this call and taken out of the scratch before
	// it goes back to the pool, so a warm Scan allocates only them.
	accs := sc.Accs(1, o.K)
	accs[0].hits = make([]Hit, 0, min(o.K, v.Len()))
	err := v.ScanMulti(ctx, &sc.one, 0, 1, accs, sc, o)
	hits := accs[0].hits
	accs[0].hits = nil
	if err != nil || len(hits) == 0 {
		return nil, err // no hits is nil
	}
	return hits, nil
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
// than the floor-less scan. All queries share one sweep of the rows; on
// Store and StoreI8 each row loaded from memory is scored against up to
// maxTileQ queries at once, on a Store32 query by query. On a
// norm-sorted view a query leaves the sweep at the first row its own
// bound excludes and only the live queries are scored, in contiguous
// stretches. On an int8 view each query also lists the rows its f64 top
// k must come from (TileScratch.Candidates). With warm scratch it
// allocates nothing. On an error accs hold partial state and must be
// Reset before reuse.
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
	if s.tiles(qs, qlo, accs, scanned, &st, sc) {
		return stopErr(ctx)
	}
	if o.Stats != nil {
		*o.Stats = st
	}
	return nil
}

// tiles is the package's one block loop: the blocked top-k sweep of a
// query tile over the view's sweep order, offering query j into accs[j]
// and counting its rows into scanned[j] and st. Per block it polls done,
// then for each query cuts the block where its norm bound falls below
// its bar (reach) — a norm-sorted view's sweep ends for the query at the
// first block whose leading norm cannot reach it: no row from there on
// can enter, tombstoned or not, so exactness does not depend on the
// bound, it only saves work — and skips a stretch whose rows are all
// dead. The tier then scores the live queries, up to maxTileQ at once,
// to the farthest of their cuts, and each query is offered and counted
// only up to its own (offerTile): scores are materialised a block at a
// time, so the top-k bookkeeping runs over a dense score slice. A true
// return means done fired and the sweep was abandoned; accs are then
// partial and must be discarded.
func (s *sweep) tiles(qs *Store, qlo int, accs []Acc, scanned []int, st *ScanStats, sc *TileScratch) bool {
	qn := len(accs)
	// Only the quantized tiers bind the query rows, and their views are
	// one run.
	s.t.bindTile(qs, qlo, qlo+qn, sc)
	// ends[j]: where query j stops scoring the current block; the
	// block's first row when it sits the block out. pruned[j]: query j's
	// bound has ended its sweep. bounds[j]: that bound — Cauchy–Schwarz,
	// ‖p‖·‖q‖ ≥ |pᵀq| — from the query's cached norm.
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
		for j := 0; j < qn; {
			if ends[j] == start {
				j++
				continue
			}
			k := j + 1
			for k < qn && ends[k] > start && k-j < maxTileQ {
				k++
			}
			r.t.offerTile(s.block(*r, start, nd), qs, qlo+j, accs[j:k], ends[j:k], sc)
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
