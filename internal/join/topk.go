package join

import (
	"sort"

	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/vec"
)

// Top-k join variants: the paper's footnote observes that "it is common
// to limit the number of occurrences of each tuple in a join result to
// a given number k". These engines report up to k pairs per query at
// (absolute) inner product ≥ threshold, accumulated through flat.Acc —
// the single implementation of the canonical ordering (value
// descending, ties toward the smaller p-index) and of NaN rejection —
// so the tiled engines' top-k mode is bit-identical to the naive
// references here.

// NaiveSignedTopK reports, for each query, its k largest inner products
// that clear s, in decreasing order.
func NaiveSignedTopK(P, Q []vec.Vector, s float64, k int) Result {
	var res Result
	if k <= 0 {
		return res
	}
	for qi, q := range Q {
		acc := flat.NewAcc(k)
		for pi, p := range P {
			res.Compared++
			acc.Offer(pi, vec.Dot(p, q))
		}
		flushAcc(&acc, qi, s, &res.Matches)
	}
	return res
}

// NaiveUnsignedTopK is the unsigned (|pᵀq|) counterpart; reported
// values are absolute.
func NaiveUnsignedTopK(P, Q []vec.Vector, s float64, k int) Result {
	var res Result
	if k <= 0 {
		return res
	}
	for qi, q := range Q {
		acc := flat.NewAcc(k)
		for pi, p := range P {
			res.Compared++
			acc.Offer(pi, vec.AbsDot(p, q))
		}
		flushAcc(&acc, qi, s, &res.Matches)
	}
	return res
}

// MergePerQuery combines partial join results that share one global
// index space — e.g. per-tile joins after local→global index
// translation — into a single Result under the canonical ordering
// (QIdx ascending; within a query, Value descending with ties toward
// the smaller PIdx). k > 0 keeps up to k pairs per query (top-k-pairs
// mode); k == 0 keeps the single best pair per query (threshold mode).
// Compared counters are summed. Partials are assumed pair-disjoint, as
// per-tile joins are by construction.
func MergePerQuery(parts []Result, k int) Result {
	keep := k
	if keep <= 0 {
		keep = 1
	}
	var res Result
	total := 0
	for i := range parts {
		res.Compared += parts[i].Compared
		total += len(parts[i].Matches)
	}
	if total == 0 {
		return res
	}
	all := make([]Match, 0, total)
	for i := range parts {
		all = append(all, parts[i].Matches...)
	}
	sort.Slice(all, func(a, b int) bool {
		x, y := all[a], all[b]
		if x.QIdx != y.QIdx {
			return x.QIdx < y.QIdx
		}
		if x.Value != y.Value {
			return x.Value > y.Value
		}
		return x.PIdx < y.PIdx
	})
	res.Matches = make([]Match, 0, total)
	run := 0
	for i, m := range all {
		if i > 0 && all[i-1].QIdx == m.QIdx {
			run++
		} else {
			run = 0
		}
		if run < keep {
			res.Matches = append(res.Matches, m)
		}
	}
	return res
}

// SignedTopK is the LSH-indexed top-k join: candidates from the banding
// index, verified and truncated to the k best ≥ cs per query.
func (j LSHJoiner) SignedTopK(P, Q []vec.Vector, s, cs float64, k int) (Result, error) {
	if err := validateThresholds(s, cs); err != nil {
		return Result{}, err
	}
	ix, err := lsh.NewIndex(j.Family, j.K, j.L, j.Seed)
	if err != nil {
		return Result{}, err
	}
	ix.InsertAll(P)
	var res Result
	if k <= 0 {
		return res, nil
	}
	for qi, q := range Q {
		cands := ix.Candidates(q)
		res.Compared += int64(len(cands))
		acc := flat.NewAcc(k)
		for _, pi := range cands {
			acc.Offer(pi, vec.Dot(P[pi], q))
		}
		flushAcc(&acc, qi, cs, &res.Matches)
	}
	return res, nil
}
