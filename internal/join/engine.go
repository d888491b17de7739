package join

// This file is the flat-store join layer: a pluggable Engine interface
// whose operands are two columnar stores, with a blocked, tiled P×Q
// exact kernel, a Cauchy–Schwarz norm-pruned variant, and the LSH /
// sketch joiners verifying candidates through the flat layout. Engines
// partition Q into row tiles and may execute tiles in parallel through
// a caller-supplied Runner (the serving layer passes its bounded worker
// pool); results are concatenated in tile order, so the output never
// depends on scheduling.

import (
	"fmt"
	"math"

	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/sketch"
	"repro/internal/vec"
)

const (
	// tilePRows is the P-block granularity of the tiled kernels: one
	// P-tile (256 rows × d floats) stays cache-resident while every
	// query of the current Q-tile is scored against it.
	tilePRows = 256
	// tileQRows is the Q-tile granularity — the unit of parallel work
	// handed to a Runner, and the number of queries that reuse one
	// loaded P-tile.
	tileQRows = 64
	// tileQGroup is the width of one multi-query micro-kernel pass
	// (flat.DotTile): the P-tile is scored against tileQGroup queries
	// per kernel call, so each P-row load is amortized across the
	// group. At 8×256 the score tile stays within 16 KiB.
	tileQGroup = 8
)

// scoreTile is the per-task score buffer of the tiled kernels: one
// tileQGroup × tilePRows block of dots, stack-allocated per Q-tile.
type scoreTile [tileQGroup * tilePRows]float64

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
// built once: Prepare returns an engine bound to P that reuses that
// state across any number of Join calls against the same store. A
// caller joining one data store against many query stores — the
// server's shard-pair fan-out — prepares each data store once instead
// of rebuilding per pair. The returned engine still answers safely
// for other P operands (it falls back to building from scratch).
type Preparer interface {
	Prepare(P *flat.Store) (Engine, error)
}

// validateEngineJoin checks the operands and thresholds shared by all
// flat engines.
func validateEngineJoin(P, Q *flat.Store, s, cs float64, opts Opts) error {
	if P == nil || Q == nil {
		return fmt.Errorf("join: nil store operand")
	}
	if P.Dim() != Q.Dim() {
		return fmt.Errorf("join: dimension mismatch: P has %d, Q has %d", P.Dim(), Q.Dim())
	}
	if opts.TopK < 0 {
		return fmt.Errorf("join: topk %d must be non-negative", opts.TopK)
	}
	return validateThresholds(s, cs)
}

// numQTiles returns the Q-tile count for nq queries.
func numQTiles(nq int) int { return (nq + tileQRows - 1) / tileQRows }

// runQTiles executes one task per Q-tile, serially or on the runner.
func runQTiles(tiles int, r Runner, task func(t int)) {
	if r == nil || tiles == 1 {
		for t := 0; t < tiles; t++ {
			task(t)
		}
		return
	}
	r.ForEach(tiles, task)
}

// concatParts concatenates per-tile partial results in tile order.
func concatParts(parts []Result) Result {
	var res Result
	total := 0
	for i := range parts {
		res.Compared += parts[i].Compared
		total += len(parts[i].Matches)
	}
	if total == 0 {
		return res
	}
	res.Matches = make([]Match, 0, total)
	for i := range parts {
		res.Matches = append(res.Matches, parts[i].Matches...)
	}
	return res
}

// Tiled is the exact engine: a blocked, tiled P×Q kernel over two flat
// stores. Every dot runs through the store's blocked kernel (shared
// with vec.DotKernel), so with cs = s the result is bit-identical to
// NaiveSigned / NaiveUnsigned over the same rows — including the
// argmax tie-break (lowest p-index wins) — at a fraction of the cost.
type Tiled struct{}

// Name implements Engine.
func (Tiled) Name() string { return "tiled" }

// Join implements Engine.
func (Tiled) Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error) {
	if err := validateEngineJoin(P, Q, s, cs, opts); err != nil {
		return Result{}, err
	}
	nq := Q.Len()
	if P.Len() == 0 || nq == 0 {
		return Result{}, nil
	}
	tiles := numQTiles(nq)
	parts := make([]Result, tiles)
	runQTiles(tiles, opts.Runner, func(t int) {
		qlo := t * tileQRows
		qhi := min(qlo+tileQRows, nq)
		if opts.TopK > 0 {
			tiledTopK(P, Q, qlo, qhi, cs, opts.Unsigned, opts.TopK, &parts[t])
		} else {
			tiledBest(P, Q, qlo, qhi, cs, opts.Unsigned, &parts[t])
		}
	})
	return concatParts(parts), nil
}

// tiledBest runs threshold mode for one Q-tile: per-query argmax over P
// via the tiled kernel, reported when it clears cs. Scanning P in
// ascending row order with a strict > comparison reproduces the naive
// reference's tie-break (lowest p-index among maxima); NaN scores are
// rejected like everywhere else (an unrankable value must not latch
// the argmax and shadow later candidates).
func tiledBest(P, Q *flat.Store, qlo, qhi int, cs float64, unsigned bool, out *Result) {
	n := P.Len()
	nq := qhi - qlo
	best := make([]int, nq)
	bv := make([]float64, nq)
	for j := range best {
		best[j] = -1
		bv[j] = math.Inf(-1)
	}
	var buf scoreTile
	for plo := 0; plo < n; plo += tilePRows {
		phi := min(plo+tilePRows, n)
		nb := phi - plo
		for g := 0; g < nq; g += tileQGroup {
			gh := min(g+tileQGroup, nq)
			// One micro-kernel pass scores the whole query group
			// against the cache-resident P-tile.
			_ = P.DotTile(Q, qlo+g, qlo+gh, plo, phi, buf[:(gh-g)*nb])
			for j := g; j < gh; j++ {
				scores := buf[(j-g)*nb : (j-g+1)*nb]
				b, v := best[j], bv[j]
				for r := 0; r < nb; r++ {
					d := scores[r]
					if math.IsNaN(d) {
						continue
					}
					if unsigned && d < 0 {
						d = -d
					}
					if b == -1 || d > v {
						b, v = plo+r, d
					}
				}
				best[j], bv[j] = b, v
			}
		}
	}
	out.Compared = int64(n) * int64(nq)
	for j := 0; j < nq; j++ {
		if best[j] >= 0 && bv[j] >= cs {
			out.Matches = append(out.Matches, Match{QIdx: qlo + j, PIdx: best[j], Value: bv[j]})
		}
	}
}

// tiledTopK runs top-k-pairs mode for one Q-tile: a canonical (value
// descending, p-index ascending) accumulator per query, flushed at cs.
func tiledTopK(P, Q *flat.Store, qlo, qhi int, cs float64, unsigned bool, k int, out *Result) {
	n := P.Len()
	nq := qhi - qlo
	accs := make([]flat.Acc, nq)
	for j := range accs {
		accs[j] = flat.NewAcc(k)
	}
	var buf scoreTile
	for plo := 0; plo < n; plo += tilePRows {
		phi := min(plo+tilePRows, n)
		nb := phi - plo
		for g := 0; g < nq; g += tileQGroup {
			gh := min(g+tileQGroup, nq)
			_ = P.DotTile(Q, qlo+g, qlo+gh, plo, phi, buf[:(gh-g)*nb])
			for j := g; j < gh; j++ {
				scores := buf[(j-g)*nb : (j-g+1)*nb]
				acc := &accs[j]
				for r := 0; r < nb; r++ {
					v := scores[r]
					if unsigned && v < 0 {
						v = -v
					}
					acc.Offer(plo+r, v)
				}
			}
		}
	}
	out.Compared = int64(n) * int64(nq)
	for j := range accs {
		flushAcc(&accs[j], qlo+j, cs, out)
	}
}

// flushAcc appends an accumulator's hits at value ≥ cs for query qi.
func flushAcc(acc *flat.Acc, qi int, cs float64, out *Result) {
	for _, h := range acc.Hits() {
		if h.Score < cs {
			break
		}
		out.Matches = append(out.Matches, Match{QIdx: qi, PIdx: h.Index, Value: h.Score})
	}
}

// NormPruned is the exact engine with Cauchy–Schwarz tile skipping: P
// is traversed through a descending-norm view, and for each query the
// scan stops at the first P-tile whose leading norm bounds every
// remaining value below the acceptance bar — ‖p‖·‖q‖ < cs means no
// remaining pair can be reported, and once a better value is in hand
// the bar rises to it. Results are bit-identical to Tiled (the bound
// only skips work, never answers), so with cs = s it also matches the
// naive reference exactly; the reorder costs O(n log n + n·d) per call
// and pays off over the query set.
type NormPruned struct {
	// Sorted, when non-nil, is a prebuilt descending-norm view of the P
	// operand, letting callers that join one data store against many
	// query stores (e.g. the server's shard-pair fan-out) build it
	// once. It must have been built from the exact store passed as P.
	Sorted *flat.NormSorted

	// bound records, for Prepare-built engines, the store Sorted came
	// from, so a Join against a different P safely rebuilds instead of
	// answering from the wrong view.
	bound *flat.Store
}

// Name implements Engine.
func (NormPruned) Name() string { return "normpruned" }

// Prepare implements Preparer: the descending-norm view is built once
// and reused across Join calls against the same P.
func (e NormPruned) Prepare(P *flat.Store) (Engine, error) {
	return NormPruned{Sorted: flat.NewNormSorted(P), bound: P}, nil
}

// Join implements Engine.
func (e NormPruned) Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error) {
	if err := validateEngineJoin(P, Q, s, cs, opts); err != nil {
		return Result{}, err
	}
	nq := Q.Len()
	if P.Len() == 0 || nq == 0 {
		return Result{}, nil
	}
	ns := e.Sorted
	if ns != nil && e.bound != nil && e.bound != P {
		ns = nil // prepared for a different store
	}
	if ns == nil {
		ns = flat.NewNormSorted(P)
	} else if ns.Len() != P.Len() || ns.Dim() != P.Dim() {
		return Result{}, fmt.Errorf("join: prebuilt norm view is %dx%d, operand is %dx%d",
			ns.Len(), ns.Dim(), P.Len(), P.Dim())
	}
	rs, perm := ns.Store(), ns.Perm()
	tiles := numQTiles(nq)
	parts := make([]Result, tiles)
	runQTiles(tiles, opts.Runner, func(t int) {
		qlo := t * tileQRows
		qhi := min(qlo+tileQRows, nq)
		if opts.TopK > 0 {
			normPrunedTopK(rs, perm, Q, qlo, qhi, cs, opts.Unsigned, opts.TopK, &parts[t])
		} else {
			normPrunedBest(rs, perm, Q, qlo, qhi, cs, opts.Unsigned, &parts[t])
		}
	})
	return concatParts(parts), nil
}

// normPrunedBest is threshold mode over the descending-norm store rs
// (perm maps physical → original row index). A query goes inactive at
// the first tile with lead·‖q‖ strictly below max(cs, best-so-far):
// every remaining value is then strictly smaller, so it can neither be
// reported nor displace (or tie) the running argmax. Because physical
// order is not index order, ties are broken explicitly toward the
// smaller original index, matching the ascending-order scan.
func normPrunedBest(rs *flat.Store, perm []int, Q *flat.Store, qlo, qhi int, cs float64, unsigned bool, out *Result) {
	n := rs.Len()
	nq := qhi - qlo
	best := make([]int, nq)
	bv := make([]float64, nq)
	done := make([]bool, nq)
	for j := range best {
		best[j] = -1
		bv[j] = math.Inf(-1)
	}
	live := nq
	var buf scoreTile
	var compared int64
	for plo := 0; plo < n && live > 0; plo += tilePRows {
		lead := rs.Norm(plo)
		phi := min(plo+tilePRows, n)
		nb := phi - plo
		// The per-tile Cauchy–Schwarz bound is evaluated per query of
		// the tile first (same rule and same point in the scan as the
		// single-query path); contiguous still-live runs then feed the
		// multi-query micro-kernel, so dead queries cost nothing.
		for j := 0; j < nq; j++ {
			if done[j] {
				continue
			}
			stop := cs
			if bv[j] > stop {
				stop = bv[j]
			}
			if lead*Q.Norm(qlo+j) < stop {
				done[j] = true
				live--
			}
		}
		for j := 0; j < nq; {
			if done[j] {
				j++
				continue
			}
			g := j + 1
			for g < nq && !done[g] && g-j < tileQGroup {
				g++
			}
			_ = rs.DotTile(Q, qlo+j, qlo+g, plo, phi, buf[:(g-j)*nb])
			compared += int64(nb) * int64(g-j)
			for jj := j; jj < g; jj++ {
				scores := buf[(jj-j)*nb : (jj-j+1)*nb]
				b, v := best[jj], bv[jj]
				for r := 0; r < nb; r++ {
					d := scores[r]
					if math.IsNaN(d) {
						continue
					}
					if unsigned && d < 0 {
						d = -d
					}
					if orig := perm[plo+r]; b == -1 || d > v || (d == v && orig < b) {
						b, v = orig, d
					}
				}
				best[jj], bv[jj] = b, v
			}
			j = g
		}
	}
	out.Compared = compared
	for j := 0; j < nq; j++ {
		if best[j] >= 0 && bv[j] >= cs {
			out.Matches = append(out.Matches, Match{QIdx: qlo + j, PIdx: best[j], Value: bv[j]})
		}
	}
}

// normPrunedTopK is top-k-pairs mode with the same skipping rule, the
// bar being max(cs, the full accumulator's k-th best).
func normPrunedTopK(rs *flat.Store, perm []int, Q *flat.Store, qlo, qhi int, cs float64, unsigned bool, k int, out *Result) {
	n := rs.Len()
	nq := qhi - qlo
	accs := make([]flat.Acc, nq)
	done := make([]bool, nq)
	for j := range accs {
		accs[j] = flat.NewAcc(k)
	}
	live := nq
	var buf scoreTile
	var compared int64
	for plo := 0; plo < n && live > 0; plo += tilePRows {
		lead := rs.Norm(plo)
		phi := min(plo+tilePRows, n)
		nb := phi - plo
		for j := 0; j < nq; j++ {
			if done[j] {
				continue
			}
			acc := &accs[j]
			stop := cs
			if acc.Full() && acc.Threshold() > stop {
				stop = acc.Threshold()
			}
			if lead*Q.Norm(qlo+j) < stop {
				done[j] = true
				live--
			}
		}
		for j := 0; j < nq; {
			if done[j] {
				j++
				continue
			}
			g := j + 1
			for g < nq && !done[g] && g-j < tileQGroup {
				g++
			}
			_ = rs.DotTile(Q, qlo+j, qlo+g, plo, phi, buf[:(g-j)*nb])
			compared += int64(nb) * int64(g-j)
			for jj := j; jj < g; jj++ {
				scores := buf[(jj-j)*nb : (jj-j+1)*nb]
				acc := &accs[jj]
				for r := 0; r < nb; r++ {
					v := scores[r]
					if unsigned && v < 0 {
						v = -v
					}
					acc.Offer(perm[plo+r], v)
				}
			}
			j = g
		}
	}
	out.Compared = compared
	for j := range accs {
		flushAcc(&accs[j], qlo+j, cs, out)
	}
}

// LSH is the banding-index engine over the flat layout: P's rows are
// indexed as views into the store (no float copies), each query probes
// the index (plus −q under the paper's unsigned reduction), and every
// candidate is verified through the store's kernel. Ties among
// candidates break toward the smaller p-index, like the exact engines.
type LSH struct {
	// NewFamily builds the hash family for the operand dimension.
	NewFamily func(d int) (lsh.Family, error)
	// K concatenated hashes per table, L tables (defaults 8, 16).
	K, L int
	Seed uint64

	// prebuilt holds Prepare's per-P index, reused when Join sees the
	// same store again.
	prebuilt *lshState
}

// lshState is an index bound to the store it was built over.
type lshState struct {
	store *flat.Store
	ix    *lsh.Index
}

// Name implements Engine.
func (LSH) Name() string { return "lsh" }

// buildIndex constructs the banding index over P's rows (views into
// the store, no float copies).
func (e LSH) buildIndex(P *flat.Store) (*lsh.Index, error) {
	if e.NewFamily == nil {
		return nil, fmt.Errorf("join: LSH engine needs NewFamily")
	}
	fam, err := e.NewFamily(P.Dim())
	if err != nil {
		return nil, err
	}
	k, l := e.K, e.L
	if k == 0 {
		k = 8
	}
	if l == 0 {
		l = 16
	}
	ix, err := lsh.NewIndex(fam, k, l, e.Seed)
	if err != nil {
		return nil, err
	}
	ix.InsertAll(P.Rows())
	return ix, nil
}

// Prepare implements Preparer: the banding index over P is built once
// and reused across Join calls against the same store.
func (e LSH) Prepare(P *flat.Store) (Engine, error) {
	ix, err := e.buildIndex(P)
	if err != nil {
		return nil, err
	}
	e.prebuilt = &lshState{store: P, ix: ix}
	return e, nil
}

// Join implements Engine.
func (e LSH) Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error) {
	if err := validateEngineJoin(P, Q, s, cs, opts); err != nil {
		return Result{}, err
	}
	nq := Q.Len()
	if P.Len() == 0 || nq == 0 {
		return Result{}, nil
	}
	var ix *lsh.Index
	if e.prebuilt != nil && e.prebuilt.store == P {
		ix = e.prebuilt.ix
	} else {
		var err error
		if ix, err = e.buildIndex(P); err != nil {
			return Result{}, err
		}
	}
	tiles := numQTiles(nq)
	parts := make([]Result, tiles)
	runQTiles(tiles, opts.Runner, func(t int) {
		qlo := t * tileQRows
		qhi := min(qlo+tileQRows, nq)
		out := &parts[t]
		for qi := qlo; qi < qhi; qi++ {
			q := Q.Row(qi)
			var cands []int
			if opts.Unsigned {
				// The paper's unsigned reduction: probe −q too.
				cands = ix.Candidates(q, vec.Neg(q))
			} else {
				cands = ix.Candidates(q)
			}
			out.Compared += int64(len(cands))
			if opts.TopK > 0 {
				acc := flat.NewAcc(opts.TopK)
				for _, pi := range cands {
					acc.Offer(pi, verifyDot(P, pi, q, opts.Unsigned))
				}
				flushAcc(&acc, qi, cs, out)
				continue
			}
			best, bv := -1, math.Inf(-1)
			for _, pi := range cands {
				v := verifyDot(P, pi, q, opts.Unsigned)
				if math.IsNaN(v) {
					continue
				}
				if best == -1 || v > bv || (v == bv && pi < best) {
					best, bv = pi, v
				}
			}
			if best >= 0 && bv >= cs {
				out.Matches = append(out.Matches, Match{QIdx: qi, PIdx: best, Value: bv})
			}
		}
	})
	return concatParts(parts), nil
}

// verifyDot scores one candidate pair through the flat store's kernel.
func verifyDot(P *flat.Store, pi int, q vec.Vector, unsigned bool) float64 {
	v := P.Dot(pi, q)
	if unsigned && v < 0 {
		v = -v
	}
	return v
}

// Sketch is the §4.3 linear-sketch engine over the flat layout
// (unsigned only). The recoverer is top-1 by construction, so at most
// one pair per query is reported regardless of Opts.TopK; the
// recovered candidate's value is re-verified through the store.
type Sketch struct {
	Kappa  float64
	Copies int
	Seed   uint64

	// prebuilt holds Prepare's per-P recoverer, reused when Join sees
	// the same store again.
	prebuilt *sketchState
}

// sketchState is a recoverer bound to the store it was built over.
type sketchState struct {
	store *flat.Store
	rec   *sketch.Recoverer
}

// Name implements Engine.
func (Sketch) Name() string { return "sketch" }

// params resolves the zero-value defaults (κ=2, 9 copies).
func (e Sketch) params() (kappa float64, copies int) {
	kappa, copies = e.Kappa, e.Copies
	if kappa == 0 {
		kappa = 2
	}
	if copies == 0 {
		copies = 9
	}
	return kappa, copies
}

// Prepare implements Preparer: the recoverer over P is built once and
// reused across Join calls against the same store.
func (e Sketch) Prepare(P *flat.Store) (Engine, error) {
	kappa, copies := e.params()
	rec, err := sketch.NewRecoverer(P.Rows(), kappa, copies, e.Seed)
	if err != nil {
		return nil, err
	}
	e.prebuilt = &sketchState{store: P, rec: rec}
	return e, nil
}

// Join implements Engine.
func (e Sketch) Join(P, Q *flat.Store, s, cs float64, opts Opts) (Result, error) {
	if err := validateEngineJoin(P, Q, s, cs, opts); err != nil {
		return Result{}, err
	}
	if !opts.Unsigned {
		return Result{}, fmt.Errorf("join: sketch engine supports unsigned joins only")
	}
	nq := Q.Len()
	if P.Len() == 0 || nq == 0 {
		return Result{}, nil
	}
	kappa, copies := e.params()
	var rec *sketch.Recoverer
	if e.prebuilt != nil && e.prebuilt.store == P {
		rec = e.prebuilt.rec
	} else {
		var err error
		if rec, err = sketch.NewRecoverer(P.Rows(), kappa, copies, e.Seed); err != nil {
			return Result{}, err
		}
	}
	perQuery := int64(rec.Levels() * copies)
	tiles := numQTiles(nq)
	parts := make([]Result, tiles)
	runQTiles(tiles, opts.Runner, func(t int) {
		qlo := t * tileQRows
		qhi := min(qlo+tileQRows, nq)
		out := &parts[t]
		for qi := qlo; qi < qhi; qi++ {
			q := Q.Row(qi)
			pi, _ := rec.Query(q)
			out.Compared += perQuery
			if pi < 0 {
				continue
			}
			if v := verifyDot(P, pi, q, true); v >= cs {
				out.Matches = append(out.Matches, Match{QIdx: qi, PIdx: pi, Value: v})
			}
		}
	})
	return concatParts(parts), nil
}
