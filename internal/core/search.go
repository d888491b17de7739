package core

import (
	"fmt"

	"repro/internal/lsh"
	"repro/internal/sketch"
	"repro/internal/transform"
	"repro/internal/vec"
)

// This file implements the *indexing* version of the problem, as the
// paper defines it: "the signed (cs, s) search is defined as follows:
// given a set P ⊂ R^d of n vectors, construct a data structure that
// efficiently returns a vector p ∈ P such that pᵀq > cs for any given
// query vector q, under the promise that there is a point p′ ∈ P such
// that p′ᵀq ≥ s" (and the unsigned analogue with absolute values).

// Searcher is a built (cs, s) search structure for a fixed data set.
type Searcher interface {
	// Search returns (index, value, true) when a point clearing c·s is
	// found; (−1, best-seen, false) otherwise. Implementations verify the
	// returned value exactly against the raw data.
	Search(q vec.Vector, sp Spec) (int, float64, bool)
}

// SearchBuilder constructs a Searcher over a data set.
type SearchBuilder interface {
	Name() string
	Build(P []vec.Vector) (Searcher, error)
}

// ExactSearch scans linearly — the ground-truth searcher.
type ExactSearch struct{}

// Name implements SearchBuilder.
func (ExactSearch) Name() string { return "exact-search" }

type exactSearcher struct{ data []vec.Vector }

// Build implements SearchBuilder.
func (ExactSearch) Build(P []vec.Vector) (Searcher, error) {
	if len(P) == 0 {
		return nil, fmt.Errorf("core: empty data set")
	}
	return exactSearcher{data: P}, nil
}

func (es exactSearcher) Search(q vec.Vector, sp Spec) (int, float64, bool) {
	best, bv := -1, 0.0
	for i, p := range es.data {
		v := vec.Dot(p, q)
		if sp.Variant == Unsigned && v < 0 {
			v = -v
		}
		if best == -1 || v > bv {
			best, bv = i, v
		}
	}
	if best >= 0 && bv >= sp.CS() {
		return best, bv, true
	}
	return -1, bv, false
}

// ALSHSearch builds the §4.1 structure: SIMPLE map + hyperplane
// banding index over the unit sphere.
type ALSHSearch struct {
	// U is the query ball radius; K, L the banding shape.
	U    float64
	K, L int
	Seed uint64
}

// Name implements SearchBuilder.
func (ALSHSearch) Name() string { return "alsh-search" }

type alshSearcher struct {
	data []vec.Vector
	ix   *lsh.Index
	u    float64
}

// Build implements SearchBuilder.
func (b ALSHSearch) Build(P []vec.Vector) (Searcher, error) {
	if len(P) == 0 {
		return nil, fmt.Errorf("core: empty data set")
	}
	u := b.U
	if u == 0 {
		u = 1
	}
	k, l := b.K, b.L
	if k == 0 {
		k = 8
	}
	if l == 0 {
		l = 16
	}
	tr, err := transform.NewSimple(len(P[0]), u)
	if err != nil {
		return nil, err
	}
	inner, err := lsh.NewHyperplane(tr.OutputDim())
	if err != nil {
		return nil, err
	}
	fam, err := lsh.NewAsymmetric("simple-alsh", lsh.SimpleMaps(tr), inner)
	if err != nil {
		return nil, err
	}
	ix, err := lsh.NewIndex(fam, k, l, b.Seed)
	if err != nil {
		return nil, err
	}
	ix.InsertAll(P)
	return alshSearcher{data: P, ix: ix, u: u}, nil
}

func (as alshSearcher) Search(q vec.Vector, sp Spec) (int, float64, bool) {
	probe := q
	if n := vec.Norm(q); n > as.u {
		probe = vec.Scaled(q, (1-1e-12)*as.u/n)
	}
	score := func(id int) float64 {
		v := vec.Dot(as.data[id], q)
		if sp.Variant == Unsigned && v < 0 {
			v = -v
		}
		return v
	}
	best, bv := as.ix.Query(probe, score)
	if sp.Variant == Unsigned {
		// Probe the negated query too (the paper's unsigned reduction).
		if b2, v2 := as.ix.Query(vec.Neg(probe), score); b2 >= 0 && (best < 0 || v2 > bv) {
			best, bv = b2, v2
		}
	}
	if best >= 0 && bv >= sp.CS() {
		return best, bv, true
	}
	return -1, bv, false
}

// SketchSearch builds the §4.3 trie structure (unsigned only).
type SketchSearch struct {
	Kappa  float64
	Copies int
	Seed   uint64
}

// Name implements SearchBuilder.
func (SketchSearch) Name() string { return "sketch-search" }

type sketchSearcher struct{ rec *sketch.Recoverer }

// Build implements SearchBuilder.
func (b SketchSearch) Build(P []vec.Vector) (Searcher, error) {
	rec, err := sketch.NewRecoverer(P, b.Kappa, b.Copies, b.Seed)
	if err != nil {
		return nil, err
	}
	return sketchSearcher{rec: rec}, nil
}

func (ss sketchSearcher) Search(q vec.Vector, sp Spec) (int, float64, bool) {
	if sp.Variant != Unsigned {
		return -1, 0, false
	}
	idx, v := ss.rec.Query(q)
	if v >= sp.CS() {
		return idx, v, true
	}
	return -1, v, false
}

// CheckSearchGuarantee verifies a searcher against the promise
// semantics over a query workload: for every q whose true optimum
// clears s, the searcher must return a point clearing c·s, and every
// returned point must genuinely clear c·s. It returns the fraction of
// promised queries answered (1.0 = guarantee fully met) and an error
// for any *incorrect* (as opposed to missing) answer.
func CheckSearchGuarantee(P []vec.Vector, queries []vec.Vector, s Searcher, sp Spec) (float64, error) {
	if err := sp.Validate(); err != nil {
		return 0, err
	}
	promised, answered := 0, 0
	for qi, q := range queries {
		bestIdx, bestVal := -1, 0.0
		for i, p := range P {
			v := vec.Dot(p, q)
			if sp.Variant == Unsigned && v < 0 {
				v = -v
			}
			if bestIdx == -1 || v > bestVal {
				bestIdx, bestVal = i, v
			}
		}
		idx, val, ok := s.Search(q, sp)
		if ok {
			if idx < 0 || idx >= len(P) {
				return 0, fmt.Errorf("core: query %d: returned index %d out of range", qi, idx)
			}
			true2 := vec.Dot(P[idx], q)
			if sp.Variant == Unsigned && true2 < 0 {
				true2 = -true2
			}
			if true2 < sp.CS()-1e-12 {
				return 0, fmt.Errorf("core: query %d: returned point at %v < cs %v", qi, true2, sp.CS())
			}
			if diff := val - true2; diff > 1e-9 || diff < -1e-9 {
				return 0, fmt.Errorf("core: query %d: reported value %v != actual %v", qi, val, true2)
			}
		}
		if bestVal >= sp.S {
			promised++
			if ok {
				answered++
			}
		}
	}
	if promised == 0 {
		return 1, nil
	}
	return float64(answered) / float64(promised), nil
}
