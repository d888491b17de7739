package join

import (
	"math"
	"testing"

	"repro/internal/lsh"
	"repro/internal/sketch"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// corpus builds a workload where `hot` query indices have a planted
// partner in P at inner product ≈ target and all other pairs are weak.
func corpus(rng *xrand.RNG, nP, nQ, d int, target float64, hot []int) (P, Q []vec.Vector) {
	P = make([]vec.Vector, nP)
	for i := range P {
		P[i] = vec.Scaled(vec.Vector(rng.UnitVec(d)), 0.3)
	}
	Q = make([]vec.Vector, nQ)
	for i := range Q {
		Q[i] = vec.Vector(rng.UnitVec(d))
	}
	for hi, qi := range hot {
		pi := hi % nP
		P[pi] = vec.Scaled(Q[qi].Clone(), target)
	}
	return P, Q
}

// fixed is an LSH engine over a prebuilt family.
func fixed(fam lsh.Family, k, l int, seed uint64) LSH {
	return LSH{NewFamily: func(int) (lsh.Family, error) { return fam, nil }, K: k, L: l, Seed: seed}
}

func TestNaiveSignedFindsPlanted(t *testing.T) {
	rng := xrand.New(1)
	hot := []int{2, 5}
	P, Q := corpus(rng, 20, 10, 16, 0.9, hot)
	res := NaiveSigned(P, Q, 0.8)
	if res.Compared != 200 {
		t.Fatalf("Compared = %d, want 200", res.Compared)
	}
	matched := res.MatchedQueries()
	for _, qi := range hot {
		if !matched[qi] {
			t.Fatalf("hot query %d not matched", qi)
		}
	}
	for _, m := range res.Matches {
		if m.Value < 0.8 {
			t.Fatalf("match below threshold: %+v", m)
		}
		if got := vec.Dot(P[m.PIdx], Q[m.QIdx]); math.Abs(got-m.Value) > 1e-12 {
			t.Fatalf("reported value %v != actual %v", m.Value, got)
		}
	}
}

func TestNaiveUnsignedSeesNegative(t *testing.T) {
	rng := xrand.New(2)
	P, Q := corpus(rng, 10, 5, 8, 0.9, nil)
	// Plant a strongly *negative* partner for query 3.
	P[4] = vec.Scaled(Q[3].Clone(), -0.95)
	signed := NaiveSigned(P, Q, 0.8)
	unsigned := NaiveUnsigned(P, Q, 0.8)
	if signed.MatchedQueries()[3] {
		t.Fatal("signed join must not match a negative partner")
	}
	if !unsigned.MatchedQueries()[3] {
		t.Fatal("unsigned join must match a negative partner")
	}
}

func TestLSHSignedJoinRecall(t *testing.T) {
	rng := xrand.New(3)
	hot := []int{0, 3, 7, 11}
	P, Q := corpus(rng, 200, 20, 16, 0.95, hot)
	fam, _ := lsh.NewHyperplane(16)
	const s, cs = 0.9, 0.45
	approx, err := JoinVectors(fixed(fam, 6, 24, 4), P, Q, s, cs, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	exact := NaiveSigned(P, Q, s)
	if r := Recall(exact, approx, s); r < 0.99 {
		t.Fatalf("recall %v too low", r)
	}
	for _, m := range approx.Matches {
		if m.Value < cs {
			t.Fatalf("match %+v below cs=%v (engine verifies)", m, cs)
		}
	}
}

func TestLSHJoinSubquadratic(t *testing.T) {
	rng := xrand.New(5)
	P, Q := corpus(rng, 500, 50, 16, 0.95, []int{1})
	fam, _ := lsh.NewHyperplane(16)
	res, err := JoinVectors(fixed(fam, 10, 8, 6), P, Q, 0.9, 0.45, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	naiveWork := int64(len(P) * len(Q))
	if res.Compared >= naiveWork/4 {
		t.Fatalf("LSH compared %d pairs, naive is %d — not subquadratic", res.Compared, naiveWork)
	}
}

func TestLSHUnsignedJoinNegativePartner(t *testing.T) {
	rng := xrand.New(7)
	P, Q := corpus(rng, 100, 10, 16, 0.9, nil)
	P[42] = vec.Scaled(Q[6].Clone(), -0.97)
	fam, _ := lsh.NewHyperplane(16)
	res, err := JoinVectors(fixed(fam, 6, 24, 8), P, Q, 0.9, 0.45, Opts{Unsigned: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MatchedQueries()[6] {
		t.Fatal("unsigned LSH join must find the negative partner via −q probe")
	}
}

func TestSketchJoinUnsigned(t *testing.T) {
	rng := xrand.New(9)
	hot := []int{2}
	P, Q := corpus(rng, 128, 6, 16, 0.95, hot)
	const s = 0.9
	cs := s / sketch.ApproxFactor(len(P), 3)
	res, err := JoinVectors(Sketch{Kappa: 3, Copies: 9, Seed: 10}, P, Q, s, cs, Opts{Unsigned: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MatchedQueries()[2] {
		t.Fatal("sketch join missed the planted partner")
	}
	for _, m := range res.Matches {
		if m.Value < cs {
			t.Fatalf("match %+v below cs=%v (engine verifies)", m, cs)
		}
	}
}

func TestThresholdValidation(t *testing.T) {
	fam, _ := lsh.NewHyperplane(4)
	j := fixed(fam, 2, 2, 1)
	P := []vec.Vector{{1, 0, 0, 0}}
	Q := []vec.Vector{{1, 0, 0, 0}}
	if _, err := JoinVectors(j, P, Q, -1, 0.5, Opts{}); err == nil {
		t.Fatal("s<0 must fail")
	}
	if _, err := JoinVectors(j, P, Q, 0.5, 0.9, Opts{}); err == nil {
		t.Fatal("cs>s must fail")
	}
	sj := Sketch{Kappa: 2, Copies: 1, Seed: 1}
	if _, err := JoinVectors(sj, P, Q, 0, 0, Opts{Unsigned: true}); err == nil {
		t.Fatal("s=0 must fail")
	}
}

func TestRecallSemantics(t *testing.T) {
	exact := Result{Matches: []Match{{QIdx: 0, Value: 0.95}, {QIdx: 1, Value: 0.92}}}
	approx := Result{Matches: []Match{{QIdx: 0, Value: 0.5}}}
	if got := Recall(exact, approx, 0.9); got != 0.5 {
		t.Fatalf("Recall = %v, want 0.5", got)
	}
	// No promised queries → vacuous recall 1.
	if got := Recall(Result{}, approx, 0.9); got != 1 {
		t.Fatalf("vacuous Recall = %v", got)
	}
}

func BenchmarkNaiveSigned_500x50(b *testing.B) {
	rng := xrand.New(11)
	P, Q := corpus(rng, 500, 50, 32, 0.9, []int{1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NaiveSigned(P, Q, 0.8)
	}
}

func BenchmarkLSHSigned_500x50(b *testing.B) {
	rng := xrand.New(12)
	P, Q := corpus(rng, 500, 50, 32, 0.9, []int{1})
	fam, _ := lsh.NewHyperplane(32)
	j := fixed(fam, 8, 8, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JoinVectors(j, P, Q, 0.8, 0.4, Opts{}); err != nil {
			b.Fatal(err)
		}
	}
}
