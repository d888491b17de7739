package join

import (
	"repro/internal/flat"
	"repro/internal/vec"
)

// Top-k join variants: the paper's footnote observes that "it is common
// to limit the number of occurrences of each tuple in a join result to
// a given number k". The naive references here report up to k pairs per
// query at (absolute) inner product ≥ threshold, accumulated through
// flat.Acc — the single implementation of the canonical ordering (value
// descending, ties toward the smaller p-index) and of NaN rejection — so
// the exact engines' top-k mode is bit-identical to them.

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
