package join

// This file is the flat-store join layer: a pluggable Engine interface
// whose operands are two columnar stores, with exact engines — store-order
// and Cauchy–Schwarz norm-pruned — that are multi-query scans of P through
// flat's scan driver, and the LSH / sketch engines verifying candidates
// through the flat layout. Each engine builds what it needs over P (the
// norm-sorted view, the banding index, the recoverer) inside Join. Engines
// partition Q into row tiles and may execute tiles in parallel through a
// caller-supplied Runner; results are concatenated in tile order, so the
// output never depends on scheduling. The server joins through none of
// them: its exact join is a batch search over the shards' own indexes, and
// its lsh join walks their banding indexes. From this package the server
// takes the engine names and LSH.TopKTile, through which an alsh
// collection's search probes a shard's banding index.

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
)

// tileQRows is the Q-tile granularity — the unit of parallel work handed
// to a Runner, and the number of queries that share one sweep of P.
const tileQRows = 64

// Runner executes n independent tasks, possibly in parallel, returning
// only once all of them have completed. *server.Pool satisfies it; a nil
// Runner in Opts means serial execution.
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
}

// Engine is a join algorithm over two flat stores: for each query row
// q of Q it reports pairs from P whose verified (absolute, when
// unsigned) inner product clears the acceptance threshold cs, under
// the promise threshold s ≥ cs of Definition 1. Exact engines, run
// with cs = s, reproduce the naive reference joins bit for bit. Join
// takes no context: a join runs to the end.
type Engine interface {
	Name() string
	Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error)
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
	return P.Len() == 0 || Q.Len() == 0, validateThresholds(s, cs)
}

// joinTiles is the Q-tile loop every engine shares: task answers the
// queries of rows [qlo, qhi) of Q — appending their matches in query
// order, counting its work into st — once per tile, serially or on the
// runner, and the tiles' matches are concatenated in tile order, so the
// output never depends on scheduling. A query's accumulator keeps
// max(TopK, 1) pairs: threshold mode is top-1 under the canonical (value
// descending, p-index ascending) order, NaN rejection included. The
// first tile error fails the join.
func joinTiles(Q *flat.Store, opts Opts, task func(qlo, qhi, k int, out *[]Match, st *flat.ScanStats) error) (Result, error) {
	nq := Q.Len()
	tiles := (nq + tileQRows - 1) / tileQRows
	parts := make([][]Match, tiles)
	stats := make([]flat.ScanStats, tiles)
	errs := make([]error, tiles)
	run := func(t int) {
		errs[t] = task(t*tileQRows, min((t+1)*tileQRows, nq), max(opts.TopK, 1), &parts[t], &stats[t])
	}
	if opts.Runner == nil || tiles == 1 {
		for t := 0; t < tiles; t++ {
			run(t)
		}
	} else {
		opts.Runner.ForEach(tiles, run)
	}
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	var compared int64
	for _, st := range stats {
		compared += int64(st.ScannedRows)
	}
	return Result{Matches: slices.Concat(parts...), Compared: compared}, nil
}

// scanJoin is the exact join: every Q-tile is one multi-query top-k scan
// of P's rows in v through the flat scan driver — the block loop, the
// tile kernel and the Cauchy–Schwarz early exit of a norm-sorted view are
// the search path's — and each query's hits at value ≥ cs are its pairs.
// cs is also every accumulator's floor (flat.Acc.SetFloor): a row below
// it is never offered, and on a norm-sorted view a query no remaining row
// can satisfy stops at once instead of sweeping on to fill its
// accumulator.
func scanJoin(v flat.View, Q *flat.Store, cs float64, opts Opts) (Result, error) {
	return joinTiles(Q, opts, func(qlo, qhi, k int, out *[]Match, st *flat.ScanStats) error {
		sc := flat.GetTileScratch()
		defer flat.PutTileScratch(sc)
		accs := sc.Accs(qhi-qlo, k)
		for j := range accs {
			accs[j].SetFloor(cs)
		}
		so := flat.ScanOpts{Unsigned: opts.Unsigned, Stats: st}
		if err := v.ScanMulti(context.TODO(), Q, qlo, qhi, accs, sc, so); err != nil {
			return err
		}
		for j := range accs {
			flushAcc(&accs[j], qlo+j, cs, out)
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
	return scanJoin(P.View(), Q, cs, opts)
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
	// query stores build it once. It must have been built from the exact
	// store passed as P.
	Sorted *flat.NormSorted
}

// Name implements Engine.
func (NormPruned) Name() string { return "normpruned" }

// Join implements Engine.
func (e NormPruned) Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error) {
	if empty, err := checkJoin(P, Q, s, cs, opts); empty || err != nil {
		return Result{}, err
	}
	ns := e.Sorted
	if ns == nil {
		ns = flat.NewNormSorted(P)
	} else if ns.Len() != P.Len() || ns.Dim() != P.Dim() {
		return Result{}, fmt.Errorf("join: prebuilt norm view is %dx%d, operand is %dx%d",
			ns.Len(), ns.Dim(), P.Len(), P.Dim())
	}
	return scanJoin(ns.View, Q, cs, opts)
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
// or a served alsh batch search's: for each query of rows [qlo, qhi), the
// tile's source names candidate rows and Store.OfferRows verifies those
// dead does not mark through the store's kernel into accs[qi-qlo], ties
// toward the smaller p-index like the exact engines. ctx is polled before
// the tile is hashed, between two queries and inside OfferRows; a
// cancelled tile returns ctx's error with accs partial, and a tile whose
// source fails returns that error. st counts the rows verified, and as
// scanned evals per query when finding a query's candidates is the work
// (the sketch's evaluations).
func verifyTile(ctx context.Context, P, Q *flat.Store, qlo, qhi int, accs []flat.Acc, dead *flat.Tombstones, unsigned bool, evals int, tile tileSource, st *flat.ScanStats) error {
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
func candidateJoin(P, Q *flat.Store, cs float64, opts Opts, evals int, tile tileSource) (Result, error) {
	return joinTiles(Q, opts, func(qlo, qhi, k int, out *[]Match, st *flat.ScanStats) error {
		sc := flat.GetTileScratch()
		defer flat.PutTileScratch(sc)
		accs := sc.Accs(qhi-qlo, k)
		if err := verifyTile(context.TODO(), P, Q, qlo, qhi, accs, nil, opts.Unsigned, evals, tile, st); err != nil {
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
	// concatenated hashes per table, L tables. Join builds its index
	// with these over P's rows, as views into the store.
	NewFamily func(d int) (lsh.Family, error)
	K, L      int
	Seed      uint64
	// Index is the banding index TopKTile probes: one the caller keeps
	// over every row of the P operand, row i under id i — an alsh
	// shard's. Join ignores it.
	Index *lsh.Index
	// Keys, when non-nil, are the Q operand's rows as lsh.HashQueries
	// hashed them — every row a TopKTile reads, under Index's hash
	// functions and Probe{Radius, Neg: unsigned} — so no tile is hashed
	// here: a caller probing several indexes that share their hash
	// functions (the shards of one alsh collection) hashes each query once
	// for all of them. Keys from other hash functions fail the tile. Join
	// ignores them.
	Keys *lsh.QueryKeys
	// Radius is the lsh.Probe radius the family's query map needs (zero:
	// none).
	Radius float64
}

// Name implements Engine.
func (LSH) Name() string { return "lsh" }

// probe is the candidate source over e.Index: a Q-tile is hashed in one
// pass, unless e.Keys already holds it, then each query looks its
// buckets up.
func (e LSH) probe(Q *flat.Store, unsigned bool) tileSource {
	p := lsh.Probe{Radius: e.Radius, Neg: unsigned}
	return func(sc *probeScratch, qlo, qhi int) func(dst []int, qi int) ([]int, error) {
		keys := e.Keys
		if keys == nil {
			e.Index.HashQueries(&sc.keys, Q, qlo, qhi, p)
			keys = &sc.keys
		}
		return func(dst []int, qi int) ([]int, error) {
			return e.Index.AppendHashed(dst, keys, qi)
		}
	}
}

// TopKTile answers query rows [qlo, qhi) of Q from e.Index, which must
// hold every row of P (row i under id i): accs[i], as the caller reset
// it, is offered each candidate of query qlo+i that dead does not mark —
// one tile of a served alsh batch search, the join's loop to the letter
// (verifyTile), a single search being the tile of one. st counts the
// candidates verified.
func (e LSH) TopKTile(ctx context.Context, P, Q *flat.Store, qlo, qhi int, accs []flat.Acc, dead *flat.Tombstones, unsigned bool, st *flat.ScanStats) error {
	return verifyTile(ctx, P, Q, qlo, qhi, accs, dead, unsigned, 0, e.probe(Q, unsigned), st)
}

// Join implements Engine: it builds a banding index over P's rows and
// runs every Q-tile through TopKTile's loop over it.
func (e LSH) Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error) {
	if empty, err := checkJoin(P, Q, s, cs, opts); empty || err != nil {
		return Result{}, err
	}
	if e.NewFamily == nil {
		return Result{}, fmt.Errorf("join: LSH engine needs NewFamily")
	}
	fam, err := e.NewFamily(P.Dim())
	if err != nil {
		return Result{}, err
	}
	if e.Index, err = lsh.NewIndex(fam, e.K, e.L, e.Seed); err != nil {
		return Result{}, err
	}
	e.Index.InsertAll(P.Rows())
	e.Keys = nil // hashed under another index's functions, if any
	return candidateJoin(P, Q, cs, opts, 0, e.probe(Q, opts.Unsigned))
}

// Sketch is the §4.3 linear-sketch engine over the flat layout
// (unsigned only). The recoverer is top-1 by construction, so at most
// one pair per query is reported regardless of Opts.TopK; the
// recovered candidate's value is re-verified through the store.
type Sketch struct {
	// Kappa, Copies and Seed shape the recoverer Join builds over P's
	// rows.
	Kappa  float64
	Copies int
	Seed   uint64
}

var errSketchSigned = errors.New("join: sketch engine supports unsigned joins only")

// Name implements Engine.
func (Sketch) Name() string { return "sketch" }

// Join implements Engine.
func (e Sketch) Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error) {
	if !opts.Unsigned {
		return Result{}, errSketchSigned // before the recoverer is built for nothing
	}
	if empty, err := checkJoin(P, Q, s, cs, opts); empty || err != nil {
		return Result{}, err
	}
	rec, err := sketch.NewRecoverer(P.Rows(), e.Kappa, e.Copies, e.Seed)
	if err != nil {
		return Result{}, err
	}
	return candidateJoin(P, Q, cs, opts, rec.Levels()*e.Copies, func(*probeScratch, int, int) func([]int, int) ([]int, error) {
		return func(dst []int, qi int) ([]int, error) {
			if pi, _ := rec.Query(Q.Row(qi)); pi >= 0 {
				dst = append(dst, pi)
			}
			return dst, nil
		}
	})
}
