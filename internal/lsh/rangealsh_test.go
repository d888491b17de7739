package lsh

import (
	"testing"

	"repro/internal/transform"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// skewedCorpus builds vectors with strongly varying norms and one
// planted high-inner-product partner for the query.
func skewedCorpus(seed uint64, n, d int) ([]vec.Vector, vec.Vector, int) {
	rng := xrand.New(seed)
	q := vec.Vector(rng.UnitVec(d))
	data := make([]vec.Vector, n)
	for i := range data {
		v := vec.Vector(rng.UnitVec(d))
		// Norms spread over three orders of magnitude.
		vec.Scale(v, 0.001+0.999*rng.Float64()*rng.Float64()*rng.Float64())
		data[i] = v
	}
	planted := n / 2
	data[planted] = vec.Scaled(q.Clone(), 0.02) // small norm, perfect angle
	// Ensure nothing with a big norm accidentally aligns better.
	for i := range data {
		if i != planted && vec.Dot(data[i], q) >= 0.02 {
			vec.Scale(data[i], 0.01/vec.Norm(data[i]))
		}
	}
	return data, q, planted
}

func TestNormRangeMIPSFindsSmallNormWinner(t *testing.T) {
	// The winner has tiny norm: a single global-U index rarely surfaces
	// it (its normalized inner product is minuscule at U = maxNorm), but
	// the norm-banded index must.
	data, q, planted := skewedCorpus(1, 400, 16)
	nr, err := NewNormRangeMIPS(data, NormRangeOptions{K: 6, L: 24, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if nr.Bands() < 2 {
		t.Fatalf("expected multiple bands, got %d", nr.Bands())
	}
	got, val := nr.Query(q)
	if got != planted {
		// The banded index must at least find something within 80% of the
		// optimum; finding the exact planted winner is the common case.
		exact := vec.Dot(data[planted], q)
		if val < 0.8*exact {
			t.Fatalf("Query = (%d, %v), want planted %d (%v)", got, val, planted, exact)
		}
	}
}

func TestNormRangeMIPSDeterministic(t *testing.T) {
	data, q, _ := skewedCorpus(3, 100, 8)
	build := func() (int, float64) {
		nr, err := NewNormRangeMIPS(data, NormRangeOptions{K: 4, L: 8, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return nr.Query(q)
	}
	i1, v1 := build()
	i2, v2 := build()
	if i1 != i2 || v1 != v2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", i1, v1, i2, v2)
	}
}

func TestNormRangeMIPSZeroVectors(t *testing.T) {
	data := []vec.Vector{{0, 0}, {0.5, 0}, {0, 0}}
	nr, err := NewNormRangeMIPS(data, NormRangeOptions{K: 2, L: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := nr.Query(vec.Vector{1, 0})
	if got != 1 {
		t.Fatalf("Query = %d, want 1 (zero vectors excluded)", got)
	}
}

func TestNormRangeMIPSValidation(t *testing.T) {
	if _, err := NewNormRangeMIPS(nil, NormRangeOptions{}); err == nil {
		t.Fatal("empty data must fail")
	}
	if _, err := NewNormRangeMIPS([]vec.Vector{{0}}, NormRangeOptions{}); err == nil {
		t.Fatal("all-zero data must fail")
	}
	if _, err := NewNormRangeMIPS([]vec.Vector{{1}, {1, 2}}, NormRangeOptions{}); err == nil {
		t.Fatal("ragged data must fail")
	}
	if _, err := NewNormRangeMIPS([]vec.Vector{{1}}, NormRangeOptions{MaxBands: -1}); err == nil {
		t.Fatal("negative MaxBands must fail")
	}
}

func TestNormRangeBeatsSingleIndexOnSkewedData(t *testing.T) {
	// Aggregate recall across several skewed corpora: the banded index
	// must recover at least as many planted winners as a single
	// unit-ball index built with U = 1 over globally rescaled data.
	const trials = 10
	bandHits, flatHits := 0, 0
	for trial := 0; trial < trials; trial++ {
		data, q, planted := skewedCorpus(uint64(10+trial), 300, 16)
		nr, err := NewNormRangeMIPS(data, NormRangeOptions{K: 6, L: 16, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := nr.Query(q); got == planted {
			bandHits++
		}
		// Flat single index: rescale everything by the global max norm.
		maxNorm := 0.0
		for _, p := range data {
			if n := vec.Norm(p); n > maxNorm {
				maxNorm = n
			}
		}
		flat := make([]vec.Vector, len(data))
		for i, p := range data {
			flat[i] = vec.Scaled(p, 1/maxNorm)
		}
		fam := mustSimpleALSHFamily(t, 16)
		ix, err := NewIndex(fam, 6, 16, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		ix.InsertAll(flat)
		probe := q
		if n := vec.Norm(q); n > 1 {
			probe = vec.Scaled(q, (1-1e-12)/n)
		}
		if got, _ := ix.Query(probe, func(id int) float64 { return vec.Dot(flat[id], probe) }); got == planted {
			flatHits++
		}
	}
	if bandHits < flatHits {
		t.Fatalf("norm banding (%d/%d) worse than flat index (%d/%d)",
			bandHits, trials, flatHits, trials)
	}
	if bandHits < trials/2 {
		t.Fatalf("norm banding recovered only %d/%d planted winners", bandHits, trials)
	}
}

func mustSimpleALSHFamily(t testing.TB, d int) Family {
	t.Helper()
	tr, err := transform.NewSimple(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewHyperplane(tr.OutputDim())
	if err != nil {
		t.Fatal(err)
	}
	fam, err := NewAsymmetric("simple-alsh", SimpleMaps(tr), inner)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}
