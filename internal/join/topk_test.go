package join

import (
	"math"
	"testing"

	"repro/internal/lsh"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// naiveTopK computes the reference answer for one query.
func naiveTopK(P []vec.Vector, q vec.Vector, s float64, k int, unsigned bool) []float64 {
	var vals []float64
	for _, p := range P {
		v := vec.Dot(p, q)
		if unsigned {
			v = math.Abs(v)
		}
		if v >= s {
			vals = append(vals, v)
		}
	}
	// descending selection sort of top k
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			if vals[j] > vals[i] {
				vals[i], vals[j] = vals[j], vals[i]
			}
		}
	}
	if len(vals) > k {
		vals = vals[:k]
	}
	return vals
}

func TestNaiveSignedTopKMatchesReference(t *testing.T) {
	rng := xrand.New(1)
	P := make([]vec.Vector, 100)
	for i := range P {
		P[i] = vec.Vector(rng.UnitVec(8))
	}
	Q := make([]vec.Vector, 10)
	for i := range Q {
		Q[i] = vec.Vector(rng.UnitVec(8))
	}
	const s, k = 0.2, 5
	res := NaiveSignedTopK(P, Q, s, k)
	byQuery := map[int][]float64{}
	for _, m := range res.Matches {
		byQuery[m.QIdx] = append(byQuery[m.QIdx], m.Value)
		if got := vec.Dot(P[m.PIdx], Q[m.QIdx]); math.Abs(got-m.Value) > 1e-12 {
			t.Fatalf("value mismatch %v vs %v", m.Value, got)
		}
	}
	for qi, q := range Q {
		want := naiveTopK(P, q, s, k, false)
		got := byQuery[qi]
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("query %d rank %d: %v vs %v", qi, i, got[i], want[i])
			}
		}
	}
}

func TestNaiveUnsignedTopKSeesNegatives(t *testing.T) {
	P := []vec.Vector{{1, 0}, {-1, 0}, {0.5, 0}}
	Q := []vec.Vector{{1, 0}}
	res := NaiveUnsignedTopK(P, Q, 0.4, 2)
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %d", len(res.Matches))
	}
	// The two ±1 vectors tie at |1|; the 0.5 vector must be cut.
	for _, m := range res.Matches {
		if m.PIdx == 2 {
			t.Fatal("rank-3 vector included in top-2")
		}
		if m.Value != 1 {
			t.Fatalf("value %v", m.Value)
		}
	}
}

func TestTopKOrdering(t *testing.T) {
	P := []vec.Vector{{0.3}, {0.9}, {0.5}, {0.7}}
	Q := []vec.Vector{{1}}
	res := NaiveSignedTopK(P, Q, 0.0, 3)
	want := []float64{0.9, 0.7, 0.5}
	if len(res.Matches) != 3 {
		t.Fatalf("matches = %d", len(res.Matches))
	}
	for i, m := range res.Matches {
		if m.Value != want[i] {
			t.Fatalf("rank %d: %v, want %v", i, m.Value, want[i])
		}
	}
}

func TestTopKZeroK(t *testing.T) {
	P := []vec.Vector{{1}}
	Q := []vec.Vector{{1}}
	if res := NaiveSignedTopK(P, Q, 0, 0); len(res.Matches) != 0 {
		t.Fatal("k=0 must return nothing")
	}
}

// TestLSHSignedTopK: the LSH engine in top-k mode reports a query's
// three planted partners, best first.
func TestLSHSignedTopK(t *testing.T) {
	rng := xrand.New(2)
	const d = 16
	q := vec.Vector(rng.UnitVec(d))
	P := make([]vec.Vector, 200)
	for i := range P {
		P[i] = vec.Vector(rng.UnitVec(d))
	}
	// Plant three graded partners.
	for i, scale := range []float64{0.95, 0.9, 0.85} {
		P[i] = vec.Scaled(q.Clone(), scale)
	}
	fam, _ := lsh.NewHyperplane(d)
	e := LSH{NewFamily: func(int) (lsh.Family, error) { return fam, nil }, K: 6, L: 32, Seed: 3}
	res, err := JoinVectors(e, P, []vec.Vector{q}, 0.8, 0.4, Opts{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("matches = %d, want 3", len(res.Matches))
	}
	wantOrder := []int{0, 1, 2}
	for i, m := range res.Matches {
		if m.PIdx != wantOrder[i] {
			t.Fatalf("rank %d: planted %d, want %d", i, m.PIdx, wantOrder[i])
		}
	}
}

func TestLSHSignedTopKValidation(t *testing.T) {
	fam, _ := lsh.NewHyperplane(2)
	e := LSH{NewFamily: func(int) (lsh.Family, error) { return fam, nil }, K: 1, L: 1, Seed: 1}
	if _, err := JoinVectors(e, nil, nil, 0.5, 0.9, Opts{TopK: 2}); err == nil {
		t.Fatal("cs>s must fail")
	}
}
