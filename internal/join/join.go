// Package join implements the IPS join engines of the reproduction:
// exact reference baselines, the flat-store Engine layer (blocked tiled
// kernel, Cauchy–Schwarz norm pruning), LSH-indexed approximate joins,
// the §4.3 sketch-based join, and the signed↔unsigned reductions
// described in the paper's introduction (unsigned join = signed join
// against Q and −Q).
//
// All engines report the paper's Definition 1 semantics: for each query
// q ∈ Q, return at least one pair (p, q) with pᵀq ≥ cs (or |pᵀq| ≥ cs),
// under the promise that some p′ has pᵀq ≥ s; queries without a
// qualifying partner carry no guarantee. Engines also expose a Compared
// work counter so benchmarks can verify sub-quadratic behaviour.
package join

import (
	"fmt"
	"math"

	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/sketch"
	"repro/internal/vec"
)

// Match is one reported pair (p, q): in pair notation the data index
// PIdx comes first and the query index QIdx second, matching the
// paper's (p, q) ∈ P × Q convention, and Value is the verified inner
// product (signed engines report the signed value, unsigned ones the
// absolute value).
type Match struct {
	QIdx, PIdx int
	Value      float64
}

// Result is the outcome of a join, plus the number of candidate pairs
// examined (the work measure). Matches are ordered by ascending QIdx;
// within one query, threshold-mode engines report a single pair and
// top-k engines report pairs by descending Value with ties toward the
// smaller PIdx. The ordering regression tests pin this contract.
type Result struct {
	Matches  []Match
	Compared int64
}

// MatchedQueries returns the set of query indices with at least one
// reported pair. The map is preallocated to the match count, which
// upper-bounds the distinct queries (top-k results may report several
// pairs per query).
func (r Result) MatchedQueries() map[int]bool {
	m := make(map[int]bool, len(r.Matches))
	for _, pair := range r.Matches {
		m[pair.QIdx] = true
	}
	return m
}

// NaiveSigned is the exact signed join reference: for each q, the
// maximising p is found by a per-pair row-slice scan and reported when
// pᵀq ≥ s. Time Θ(|P|·|Q|·d). This is deliberately the plain
// []vec.Vector nested loop — it is the ground truth the flat engines
// are tested against bit for bit (vec.Dot and the tiled kernels share
// vec.DotKernel's accumulation order) and the honest baseline the join
// benchmarks measure speedups over. Production paths should use the
// Tiled or NormPruned Engine instead. Panics on dimension mismatches,
// like vec.Dot.
func NaiveSigned(P, Q []vec.Vector, s float64) Result {
	return naiveScan(P, Q, s, false)
}

// NaiveUnsigned is the exact unsigned join reference (threshold on
// |pᵀq|).
func NaiveUnsigned(P, Q []vec.Vector, s float64) Result {
	return naiveScan(P, Q, s, true)
}

// naiveScan is the shared reference scan: argmax per query with ties
// broken toward the smaller p-index (first maximum encountered wins
// under the strict > comparison). NaN scores are rejected — they
// cannot be ranked and would otherwise latch the argmax and shadow
// every later candidate — mirroring flat.Acc and the flat engines.
func naiveScan(P, Q []vec.Vector, s float64, unsigned bool) Result {
	var res Result
	if len(P) == 0 || len(Q) == 0 {
		return res
	}
	for qi, q := range Q {
		best, bv := -1, math.Inf(-1)
		for pi, p := range P {
			v := vec.Dot(p, q)
			if math.IsNaN(v) {
				continue
			}
			if unsigned && v < 0 {
				v = -v
			}
			if best == -1 || v > bv {
				best, bv = pi, v
			}
		}
		res.Compared += int64(len(P))
		if best >= 0 && bv >= s {
			res.Matches = append(res.Matches, Match{QIdx: qi, PIdx: best, Value: bv})
		}
	}
	return res
}

// packPair packs two row-slice operands into flat stores for the
// Engine layer. Empty operands return nil stores (the engines answer
// them with an empty result).
func packPair(P, Q []vec.Vector) (fp, fq *flat.Store, err error) {
	if len(P) == 0 || len(Q) == 0 {
		return nil, nil, nil
	}
	if fp, err = flat.FromVectors(P); err != nil {
		return nil, nil, fmt.Errorf("join: packing P: %w", err)
	}
	if fq, err = flat.FromVectors(Q); err != nil {
		return nil, nil, fmt.Errorf("join: packing Q: %w", err)
	}
	return fp, fq, nil
}

// LSHJoiner runs (cs, s) joins through a banding index over P. It is
// the row-slice adapter over the flat LSH Engine: operands are packed
// into columnar stores and candidates verify through the store kernel.
type LSHJoiner struct {
	Family lsh.Family
	K, L   int
	Seed   uint64
}

// engine adapts the joiner's prebuilt family to the Engine layer.
func (j LSHJoiner) engine() LSH {
	return LSH{
		NewFamily: func(int) (lsh.Family, error) { return j.Family, nil },
		K:         j.K, L: j.L, Seed: j.Seed,
	}
}

// JoinVectors packs row-slice operands into flat stores and runs one
// engine call; empty operands yield an empty result without error. It
// is the single adapter between the historical []vec.Vector surfaces
// (core engines, the legacy joiners here) and the flat Engine layer.
func JoinVectors(e Engine, P, Q []vec.Vector, s, cs float64, opts Opts) (Result, error) {
	if err := validateThresholds(s, cs); err != nil {
		return Result{}, err
	}
	fp, fq, err := packPair(P, Q)
	if err != nil || fp == nil {
		return Result{}, err
	}
	return e.Join(fp, fq, s, cs, opts)
}

// Signed runs the approximate signed (cs, s) join: index P, probe each
// q, and report the best colliding candidate when it clears cs.
func (j LSHJoiner) Signed(P, Q []vec.Vector, s, cs float64) (Result, error) {
	return JoinVectors(j.engine(), P, Q, s, cs, Opts{})
}

// Unsigned runs the approximate unsigned (cs, s) join via the paper's
// reduction: a signed probe with q and another with −q, keeping the
// larger absolute verified value.
func (j LSHJoiner) Unsigned(P, Q []vec.Vector, s, cs float64) (Result, error) {
	return JoinVectors(j.engine(), P, Q, s, cs, Opts{Unsigned: true})
}

// SketchJoiner runs unsigned (cs, s) joins through the §4.3 trie
// recovery structure: approximation c = 1/n^{1/κ} with Õ(d·n^{1−2/κ})
// work per query.
type SketchJoiner struct {
	Kappa  float64
	Copies int
	Seed   uint64
}

// Unsigned builds the recoverer over P and queries each q once. A match
// is reported when the recovered candidate's exact |pᵀq| — re-verified
// through the columnar store — clears cs.
func (j SketchJoiner) Unsigned(P, Q []vec.Vector, s, cs float64) (Result, error) {
	return JoinVectors(Sketch{Kappa: j.Kappa, Copies: j.Copies, Seed: j.Seed},
		P, Q, s, cs, Opts{Unsigned: true})
}

// GuaranteedC returns the paper's approximation factor 1/n^{1/κ} for a
// sketch join over n data vectors.
func (j SketchJoiner) GuaranteedC(n int) float64 {
	return 1 / sketch.ApproxFactor(n, j.Kappa)
}

func validateThresholds(s, cs float64) error {
	if s <= 0 {
		return fmt.Errorf("join: threshold s=%v must be positive", s)
	}
	if cs < 0 || cs > s {
		return fmt.Errorf("join: cs=%v out of [0, s=%v]", cs, s)
	}
	return nil
}

// Recall scores an approximate result against the exact one per
// Definition 1: over queries where the exact join certifies a partner at
// ≥ s, the fraction for which the approximate join reported a pair
// (whose value, by construction, is ≥ cs). When the exact result
// certifies no query at all, recall is vacuously 1.0 — a defined
// value, never the 0/0 NaN of the raw ratio.
func Recall(exact, approx Result, s float64) float64 {
	promised := 0
	hit := 0
	got := approx.MatchedQueries()
	for _, m := range exact.Matches {
		if m.Value >= s {
			promised++
			if got[m.QIdx] {
				hit++
			}
		}
	}
	if promised == 0 {
		return 1
	}
	return float64(hit) / float64(promised)
}
