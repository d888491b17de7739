package join

// This file is the flat-store join layer: a pluggable Engine interface
// whose operands are two columnar stores, with
// exact engines — store-order and Cauchy–Schwarz norm-pruned — that are
// multi-query scans of P through flat's scan driver, and the LSH /
// sketch joiners verifying candidates through the flat layout. Engines
// partition Q into row tiles and may execute tiles in parallel through
// a caller-supplied Runner (a bounded worker pool such as the server's);
// results are concatenated in tile order, so the output never depends on
// scheduling. The server joins through none of them: its exact join is a
// batch search over the shards' own indexes, its lsh join the LSH query
// algorithm over their banding indexes.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/sketch"
	"repro/internal/vec"
)

// tileQRows is the Q-tile granularity — the unit of parallel work handed
// to a Runner, and the number of queries that share one sweep of P.
const tileQRows = 64

// Runner executes n independent tasks, possibly in parallel, returning
// only once all of them have completed. *server.Pool satisfies it, so
// the serving layer's bounded worker budget can drive tile execution;
// a nil Runner in Opts means serial execution.
type Runner interface {
	ForEach(n int, fn func(i int))
}

// Opts configures an Engine run.
type Opts struct {
	// Unsigned thresholds |pᵀq| instead of pᵀq.
	Unsigned bool
	// TopK, when positive, switches from threshold mode (the single
	// best pair per query, Definition 1) to top-k-pairs mode: up to
	// TopK pairs per query at value ≥ cs, in decreasing order.
	TopK int
	// Runner parallelizes Q-tile execution; nil runs serially.
	Runner Runner
	// Ctx, when non-nil, cancels the join: the exact engines stop within
	// one row block of P (the scan driver's poll), the candidate engines
	// between two queries, and Join returns Ctx's error and no matches.
	Ctx context.Context
	// DeadP and DeadQ mark rows of P and Q, in store row order, that the
	// join treats as absent: the result is the one the same engine gives
	// over stores holding only the unmarked rows, in the operands' own
	// row numbers. Nil means every row is live.
	DeadP, DeadQ *flat.Tombstones
	// Stats, when non-nil, is set to the work the join did, cancelled or
	// not: ScannedRows is Result.Compared, the block counters are the scan
	// driver's, summed over queries (zero for the candidate engines), and
	// Candidates the rows the candidate engines verified (zero for scans).
	Stats *flat.ScanStats
}

// Engine is a join algorithm over two flat stores: for each query row
// q of Q it reports pairs from P whose verified (absolute, when
// unsigned) inner product clears the acceptance threshold cs, under
// the promise threshold s ≥ cs of Definition 1. Exact engines, run
// with cs = s, reproduce the naive reference joins bit for bit.
type Engine interface {
	Name() string
	Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error)
}

// Preparer is implemented by engines whose per-P state (banding index,
// sketch recoverer, sorted view) dominates a Join call and can be
// built once: Prepare returns an engine bound to P and its dead set
// that reuses that state across any number of Join calls against the
// same pair. A caller joining one data store against many query stores
// prepares it once instead of rebuilding per pair. The returned engine
// still answers safely for other operands (it falls back to building
// from scratch).
type Preparer interface {
	Prepare(P *flat.Store, dead *flat.Tombstones) (Engine, error)
}

// checkJoin validates the operands and thresholds shared by all flat
// engines, and reports whether an operand is empty (no pair, no error).
func checkJoin(P, Q *flat.Store, s, cs float64, opts Opts) (empty bool, err error) {
	if P == nil || Q == nil {
		return false, fmt.Errorf("join: nil store operand")
	}
	if P.Dim() != Q.Dim() {
		return false, fmt.Errorf("join: dimension mismatch: P has %d, Q has %d", P.Dim(), Q.Dim())
	}
	if opts.TopK < 0 {
		return false, fmt.Errorf("join: topk %d must be non-negative", opts.TopK)
	}
	if d := opts.DeadP; d != nil && d.Len() != P.Len() {
		return false, fmt.Errorf("join: DeadP covers %d rows, P has %d", d.Len(), P.Len())
	}
	if d := opts.DeadQ; d != nil && d.Len() != Q.Len() {
		return false, fmt.Errorf("join: DeadQ covers %d rows, Q has %d", d.Len(), Q.Len())
	}
	return P.Len() == 0 || Q.Len() == 0, validateThresholds(s, cs)
}

// joinTiles is the Q-tile loop every engine shares: task answers the
// live queries among rows [qlo, qhi) of Q — appending their matches in
// query order, counting its work into st — once per tile, serially or
// on the runner, and the tiles' matches are concatenated in tile order,
// so the output never depends on scheduling. A query's accumulator
// keeps max(TopK, 1) pairs: threshold mode is top-1 under the canonical
// (value descending, p-index ascending) order, NaN rejection included.
// The first tile error (a cancellation) fails the join.
func joinTiles(Q *flat.Store, opts Opts, task func(ctx context.Context, qlo, qhi, k int, out *[]Match, st *flat.ScanStats) error) (Result, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	nq := Q.Len()
	tiles := (nq + tileQRows - 1) / tileQRows
	parts := make([][]Match, tiles)
	stats := make([]flat.ScanStats, tiles)
	errs := make([]error, tiles)
	run := func(t int) {
		errs[t] = task(ctx, t*tileQRows, min((t+1)*tileQRows, nq), max(opts.TopK, 1), &parts[t], &stats[t])
	}
	if opts.Runner == nil || tiles == 1 {
		for t := 0; t < tiles; t++ {
			run(t)
		}
	} else {
		opts.Runner.ForEach(tiles, run)
	}
	var total flat.ScanStats
	for t := range stats {
		total.Add(stats[t])
	}
	if opts.Stats != nil {
		*opts.Stats = total
	}
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	return Result{Matches: slices.Concat(parts...), Compared: int64(total.ScannedRows)}, nil
}

// scanJoin is the exact join: every Q-tile is one multi-query top-k scan
// of P through the flat scan driver — the block loop, the tile kernel,
// the tombstone triage, the Cauchy–Schwarz early exit of a norm-sorted
// view and the per-block cancellation poll are the search path's — and
// each query's hits at value ≥ cs are its pairs. cs is also every
// accumulator's floor (flat.Acc.SetFloor): a row below it is never
// offered, and on a norm-sorted view a query no remaining row can satisfy
// stops at once instead of sweeping on to fill its accumulator. v and
// dead are P's rows and dead set in the order the scan visits them.
// Dead query rows are never scanned: a tile is swept once per run of
// live queries (once, when Q has no tombstones).
func scanJoin(v flat.View, dead *flat.Tombstones, Q *flat.Store, cs float64, opts Opts) (Result, error) {
	return joinTiles(Q, opts, func(ctx context.Context, qlo, qhi, k int, out *[]Match, st *flat.ScanStats) error {
		sc := flat.GetTileScratch()
		defer flat.PutTileScratch(sc)
		so := flat.ScanOpts{Unsigned: opts.Unsigned, Dead: dead}
		for lo := qlo; lo < qhi; {
			if opts.DeadQ.Dead(lo) {
				lo++
				continue
			}
			hi := lo + 1
			for hi < qhi && !opts.DeadQ.Dead(hi) {
				hi++
			}
			var run flat.ScanStats
			so.Stats = &run
			accs := sc.Accs(hi-lo, k)
			for j := range accs {
				accs[j].SetFloor(cs)
			}
			if err := v.ScanMulti(ctx, Q, lo, hi, accs, sc, so); err != nil {
				return err
			}
			st.Add(run)
			for j := range accs {
				flushAcc(&accs[j], lo+j, cs, out)
			}
			lo = hi
		}
		return nil
	})
}

// flushAcc appends an accumulator's hits at value ≥ cs for query qi.
func flushAcc(acc *flat.Acc, qi int, cs float64, out *[]Match) {
	for _, h := range acc.Hits() {
		if h.Score < cs {
			break
		}
		*out = append(*out, Match{QIdx: qi, PIdx: h.Index, Value: h.Score})
	}
}

// prepared is an engine bound to one P operand and its dead set: join
// answers from the per-P state Prepare built, and any other operand goes
// back to the unprepared engine, which builds from scratch.
type prepared struct {
	Engine
	store *flat.Store
	dead  *flat.Tombstones
	join  func(Q *flat.Store, cs float64, opts Opts) (Result, error)
}

// Join implements Engine.
func (p prepared) Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error) {
	if P != p.store || opts.DeadP != p.dead {
		return p.Engine.Join(P, Q, s, cs, opts)
	}
	if empty, err := checkJoin(P, Q, s, cs, opts); empty || err != nil {
		return Result{}, err
	}
	return p.join(Q, cs, opts)
}

// joinOnce is Join for an engine whose Join is "prepare P, then answer".
func joinOnce(e Preparer, P, Q *flat.Store, s, cs float64, opts Opts) (Result, error) {
	if empty, err := checkJoin(P, Q, s, cs, opts); empty || err != nil {
		return Result{}, err
	}
	p, err := e.Prepare(P, opts.DeadP)
	if err != nil {
		return Result{}, err
	}
	return p.Join(P, Q, s, cs, opts)
}

// Tiled is the exact engine: P swept in store order. Every dot runs
// through the store's blocked kernel (shared with vec.DotKernel), so
// with cs = s the result is bit-identical to NaiveSigned /
// NaiveUnsigned over the same rows — including the argmax tie-break
// (lowest p-index wins) — at a fraction of the cost.
type Tiled struct{}

// Name implements Engine.
func (Tiled) Name() string { return "tiled" }

// Join implements Engine.
func (Tiled) Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error) {
	if empty, err := checkJoin(P, Q, s, cs, opts); empty || err != nil {
		return Result{}, err
	}
	return scanJoin(P.View(), opts.DeadP, Q, cs, opts)
}

// NormPruned is the exact engine with Cauchy–Schwarz block skipping: P
// is swept through a descending-norm view, and for each query the scan
// stops at the first block whose leading norm bounds every remaining
// value below the acceptance bar — ‖p‖·‖q‖ < cs means no remaining
// pair can be reported, and once k values are in hand the bar rises to
// the k-th. Results are bit-identical to Tiled (the bound only skips
// work, never answers), so with cs = s it also matches the naive
// reference exactly; the reorder costs O(n log n + n·d) per call and
// pays off over the query set.
type NormPruned struct {
	// Sorted, when non-nil, is a prebuilt descending-norm view of the P
	// operand, letting callers that join one data store against many
	// query stores build it once (Prepare does the same without the
	// caller keeping the view). It must have been built from the exact
	// store passed as P.
	Sorted *flat.NormSorted
}

// Name implements Engine.
func (NormPruned) Name() string { return "normpruned" }

// Prepare implements Preparer: the descending-norm view, and dead as it
// sees it, are built once and reused across Join calls against the
// same P.
func (e NormPruned) Prepare(P *flat.Store, dead *flat.Tombstones) (Engine, error) {
	ns := flat.NewNormSorted(P)
	sortedDead := ns.GatherDead(dead)
	return prepared{NormPruned{}, P, dead, func(Q *flat.Store, cs float64, opts Opts) (Result, error) {
		return scanJoin(ns.View, sortedDead, Q, cs, opts)
	}}, nil
}

// Join implements Engine.
func (e NormPruned) Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error) {
	if e.Sorted == nil {
		return joinOnce(e, P, Q, s, cs, opts)
	}
	if empty, err := checkJoin(P, Q, s, cs, opts); empty || err != nil {
		return Result{}, err
	}
	if e.Sorted.Len() != P.Len() || e.Sorted.Dim() != P.Dim() {
		return Result{}, fmt.Errorf("join: prebuilt norm view is %dx%d, operand is %dx%d",
			e.Sorted.Len(), e.Sorted.Dim(), P.Len(), P.Dim())
	}
	return scanJoin(e.Sorted.View, e.Sorted.GatherDead(opts.DeadP), Q, cs, opts)
}

// liveRows returns views of the rows of P that dead does not mark (slice
// headers into the store's chunks, no float copy) — what a candidate
// engine with no structure lent to it builds one over, so a dead row is
// never a candidate — and, when any row is dead, each view's row number
// in P (nil: the identity).
func liveRows(P *flat.Store, dead *flat.Tombstones) (rows []vec.Vector, rowOf []int) {
	if dead.Count() == 0 {
		return P.Rows(), nil
	}
	rows = make([]vec.Vector, 0, P.Len()-dead.Count())
	rowOf = make([]int, 0, cap(rows))
	for i := 0; i < P.Len(); i++ {
		if !dead.Dead(i) {
			rows, rowOf = append(rows, P.Row(i)), append(rowOf, i)
		}
	}
	return rows, rowOf
}

// renumber maps the tail of ids, from from on, through rowOf (nil: the
// identity) — liveRows' numbering back to P's.
func renumber(ids []int, from int, rowOf []int) []int {
	if rowOf != nil {
		for i := from; i < len(ids); i++ {
			ids[i] = rowOf[ids[i]]
		}
	}
	return ids
}

// probeScratch is one Q-tile's working set in a candidate engine,
// pooled so a warm join allocates nothing per tile for it.
type probeScratch struct {
	cands []int
	keys  lsh.QueryKeys
}

var probePool = sync.Pool{New: func() any { return new(probeScratch) }}

// A tileSource readies the candidate source of one Q-tile, query rows
// [qlo, qhi) — whatever it computes for the tile at once kept in sc —
// and returns it: a function appending to dst the rows of P worth
// verifying for query qi, or failing the tile.
type tileSource func(sc *probeScratch, qlo, qhi int) func(dst []int, qi int) ([]int, error)

// verifyTile is the candidate engines' loop over one Q-tile — a join's,
// or a served alsh batch search's: for each query of rows [qlo, qhi) that
// deadQ does not mark, the tile's source names candidate rows and
// Store.OfferRows verifies those dead does not mark through the store's
// kernel into accs[qi-qlo], ties toward the smaller p-index like the exact
// engines. ctx is polled before the tile is hashed, between two queries
// and inside OfferRows; a cancelled tile returns ctx's error with accs
// partial, and a tile whose source fails returns that error. st counts
// the rows verified, and as scanned evals per query when finding a
// query's candidates is the work (the sketch's evaluations).
func verifyTile(ctx context.Context, P, Q *flat.Store, qlo, qhi int, accs []flat.Acc, dead, deadQ *flat.Tombstones, unsigned bool, evals int, tile tileSource, st *flat.ScanStats) error {
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	if err := ctx.Err(); err != nil {
		return err // before the tile is hashed for nothing
	}
	candidates := tile(sc, qlo, qhi)
	done := ctx.Done()
	for qi := qlo; qi < qhi; qi++ {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if deadQ.Dead(qi) {
			continue
		}
		var err error
		if sc.cands, err = candidates(sc.cands[:0], qi); err != nil {
			return err
		}
		n, stopped := P.OfferRows(done, &accs[qi-qlo], Q.Row(qi), sc.cands, dead, unsigned)
		st.Candidates += n
		st.ScannedRows += cmp.Or(evals, n)
		if stopped {
			return ctx.Err()
		}
	}
	return nil
}

// candidateJoin is the join of a candidate engine: verifyTile per Q-tile,
// each query's verified values at ≥ cs its pairs.
func candidateJoin(P, Q *flat.Store, cs float64, opts Opts, dead *flat.Tombstones, evals int, tile tileSource) (Result, error) {
	return joinTiles(Q, opts, func(ctx context.Context, qlo, qhi, k int, out *[]Match, st *flat.ScanStats) error {
		sc := flat.GetTileScratch()
		defer flat.PutTileScratch(sc)
		accs := sc.Accs(qhi-qlo, k)
		if err := verifyTile(ctx, P, Q, qlo, qhi, accs, dead, opts.DeadQ, opts.Unsigned, evals, tile, st); err != nil {
			return err
		}
		for j := range accs {
			flushAcc(&accs[j], qlo+j, cs, out)
		}
		return nil
	})
}

// LSH is the banding-index engine over the flat layout: each query
// probes a (K, L) index over P's rows (plus −q under the paper's
// unsigned reduction), and every candidate is verified through the
// store's kernel.
type LSH struct {
	// NewFamily builds the hash family for the operand dimension; K
	// concatenated hashes per table, L tables. With these the index is
	// built per Join (or once, by Prepare) over P's live rows, as views
	// into the store.
	NewFamily func(d int) (lsh.Family, error)
	K, L      int
	Seed      uint64
	// Index, when non-nil, is a banding index the caller already keeps
	// over every row of the P operand, row i under id i — an alsh shard's.
	// The join probes it and builds nothing; rows Opts.DeadP marks are
	// dropped before they are scored.
	Index *lsh.Index
	// Keys, when non-nil, are the Q operand's rows as lsh.HashQueries
	// hashed them — every row a join or a TopKTile reads, under Index's
	// hash functions and Probe{Radius, Neg: unsigned} — so no tile is
	// hashed here: a caller probing several indexes that share their hash
	// functions (the shards of one alsh collection) hashes each query once
	// for all of them. Keys from other hash functions fail the join.
	Keys *lsh.QueryKeys
	// Radius is the lsh.Probe radius the family's query map needs (zero:
	// none).
	Radius float64
}

// Name implements Engine.
func (LSH) Name() string { return "lsh" }

// probe is the candidate source over ix, whose ids rowOf maps to rows of
// P: a Q-tile is hashed in one pass, unless e.Keys already holds it, then
// each query looks its buckets up.
func (e LSH) probe(ix *lsh.Index, rowOf []int, Q *flat.Store, unsigned bool) tileSource {
	p := lsh.Probe{Radius: e.Radius, Neg: unsigned}
	return func(sc *probeScratch, qlo, qhi int) func(dst []int, qi int) ([]int, error) {
		keys := e.Keys
		if keys == nil {
			ix.HashQueries(&sc.keys, Q, qlo, qhi, p)
			keys = &sc.keys
		}
		return func(dst []int, qi int) ([]int, error) {
			out, err := ix.AppendHashed(dst, keys, qi)
			return renumber(out, len(dst), rowOf), err
		}
	}
}

// TopKTile answers query rows [qlo, qhi) of Q from e.Index, which must
// hold every row of P (row i under id i): accs[i], as the caller reset
// it, is offered each candidate of query qlo+i that dead does not mark —
// one tile of a served alsh batch search, the join's loop to the letter
// (verifyTile), a single search being the tile of one. st counts the
// candidates verified, like a join's Opts.Stats.
func (e LSH) TopKTile(ctx context.Context, P, Q *flat.Store, qlo, qhi int, accs []flat.Acc, dead *flat.Tombstones, unsigned bool, st *flat.ScanStats) error {
	return verifyTile(ctx, P, Q, qlo, qhi, accs, dead, nil, unsigned, 0, e.probe(e.Index, nil, Q, unsigned), st)
}

// Prepare implements Preparer: the banding index over P's live rows is
// built once and reused across Join calls against the same P.
func (e LSH) Prepare(P *flat.Store, dead *flat.Tombstones) (Engine, error) {
	if e.NewFamily == nil {
		return nil, fmt.Errorf("join: LSH engine needs NewFamily")
	}
	fam, err := e.NewFamily(P.Dim())
	if err != nil {
		return nil, err
	}
	ix, err := lsh.NewIndex(fam, e.K, e.L, e.Seed)
	if err != nil {
		return nil, err
	}
	rows, rowOf := liveRows(P, dead)
	ix.InsertAll(rows)
	e.Index, e.Keys = nil, nil // another operand gets a build of its own, which no keys were hashed for
	return prepared{e, P, dead, func(Q *flat.Store, cs float64, opts Opts) (Result, error) {
		return candidateJoin(P, Q, cs, opts, nil, 0, e.probe(ix, rowOf, Q, opts.Unsigned))
	}}, nil
}

// Join implements Engine.
func (e LSH) Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error) {
	if e.Index == nil {
		return joinOnce(e, P, Q, s, cs, opts)
	}
	if empty, err := checkJoin(P, Q, s, cs, opts); empty || err != nil {
		return Result{}, err
	}
	if e.Index.Len() != P.Len() {
		return Result{}, fmt.Errorf("join: prebuilt index holds %d rows, operand has %d", e.Index.Len(), P.Len())
	}
	return candidateJoin(P, Q, cs, opts, opts.DeadP, 0, e.probe(e.Index, nil, Q, opts.Unsigned))
}

// Sketch is the §4.3 linear-sketch engine over the flat layout
// (unsigned only). The recoverer is top-1 by construction, so at most
// one pair per query is reported regardless of Opts.TopK; the
// recovered candidate's value is re-verified through the store.
type Sketch struct {
	// Kappa, Copies and Seed shape the recoverer built per Join (or once,
	// by Prepare) over P's live rows.
	Kappa  float64
	Copies int
	Seed   uint64
}

var errSketchSigned = errors.New("join: sketch engine supports unsigned joins only")

// Name implements Engine.
func (Sketch) Name() string { return "sketch" }

// recover is the join over rec, whose ids rowOf maps to rows of P.
func (e Sketch) recover(rec *sketch.Recoverer, rowOf []int, P, Q *flat.Store, cs float64, opts Opts) (Result, error) {
	if !opts.Unsigned {
		return Result{}, errSketchSigned
	}
	return candidateJoin(P, Q, cs, opts, nil, rec.Levels()*e.Copies, func(*probeScratch, int, int) func([]int, int) ([]int, error) {
		return func(dst []int, qi int) ([]int, error) {
			if pi, _ := rec.Query(Q.Row(qi)); pi >= 0 {
				dst = append(dst, pi)
			}
			return renumber(dst, 0, rowOf), nil
		}
	})
}

// Prepare implements Preparer: the recoverer over P's live rows is built
// once and reused across Join calls against the same P.
func (e Sketch) Prepare(P *flat.Store, dead *flat.Tombstones) (Engine, error) {
	rows, rowOf := liveRows(P, dead)
	rec, err := sketch.NewRecoverer(rows, e.Kappa, e.Copies, e.Seed)
	if err != nil {
		return nil, err
	}
	return prepared{e, P, dead, func(Q *flat.Store, cs float64, opts Opts) (Result, error) {
		return e.recover(rec, rowOf, P, Q, cs, opts)
	}}, nil
}

// Join implements Engine.
func (e Sketch) Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error) {
	if !opts.Unsigned {
		return Result{}, errSketchSigned // before the recoverer is built for nothing
	}
	return joinOnce(e, P, Q, s, cs, opts)
}
