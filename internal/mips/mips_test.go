package mips

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// checkAgree asserts the solver reproduces the linear-scan answer value
// (ties may differ in index, so compare values).
func checkAgree(t *testing.T, data []vec.Vector, q vec.Vector, got Result) {
	t.Helper()
	want := LinearScan(data, q)
	if got.Index < 0 || got.Index >= len(data) {
		t.Fatalf("index %d out of range", got.Index)
	}
	if got.Value != want.Value {
		t.Fatalf("value %v, want %v (index %d vs %d)", got.Value, want.Value, got.Index, want.Index)
	}
	if gotV := vec.Dot(data[got.Index], q); gotV != got.Value {
		t.Fatalf("reported value %v inconsistent with index (%v)", got.Value, gotV)
	}
}

func TestLinearScan(t *testing.T) {
	data := []vec.Vector{{1, 0}, {0, 2}, {-3, 0}}
	res := LinearScan(data, vec.Vector{0, 1})
	if res.Index != 1 || res.Value != 2 || res.Scanned != 3 {
		t.Fatalf("LinearScan = %+v", res)
	}
	empty := LinearScan(nil, vec.Vector{1})
	if empty.Index != -1 {
		t.Fatal("empty scan must return -1")
	}
}

func TestNormPrunedCorrectness(t *testing.T) {
	rng := xrand.New(1)
	lf := dataset.NewLatentFactor(rng, 500, 30, 12, 0.8)
	np, err := NewNormPruned(lf.Items)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range lf.Users {
		checkAgree(t, lf.Items, q, np.Query(q))
	}
}

func TestNormPrunedPrunes(t *testing.T) {
	// With strongly skewed norms the scan should stop early on average.
	rng := xrand.New(2)
	lf := dataset.NewLatentFactor(rng, 2000, 40, 12, 1.2)
	np, err := NewNormPruned(lf.Items)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, q := range lf.Users {
		total += np.Query(q).Scanned
	}
	avg := float64(total) / float64(len(lf.Users))
	if avg > float64(len(lf.Items))*0.8 {
		t.Fatalf("norm pruning ineffective: avg scanned %v of %d", avg, len(lf.Items))
	}
}

func TestNormPrunedEmpty(t *testing.T) {
	if _, err := NewNormPruned(nil); err == nil {
		t.Fatal("empty data must fail")
	}
}

func TestBallTreeCorrectness(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{1, 2, 17, 300} {
		data := dataset.Gaussian(rng, n, 6, false)
		bt, err := NewBallTree(data, 8)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			q := vec.Vector(rng.NormalVec(6))
			checkAgree(t, data, q, bt.Query(q))
		}
	}
}

func TestBallTreeClusteredDataPrunes(t *testing.T) {
	// Two well-separated clusters: queries aligned with one cluster
	// should prune (most of) the other.
	rng := xrand.New(4)
	const n, d = 2000, 8
	data := make([]vec.Vector, n)
	for i := range data {
		v := vec.Vector(rng.NormalVec(d))
		vec.Scale(v, 0.05)
		if i < n/2 {
			v[0] += 10
		} else {
			v[0] -= 10
		}
		data[i] = v
	}
	bt, err := NewBallTree(data, 16)
	if err != nil {
		t.Fatal(err)
	}
	q := vec.New(d)
	q[0] = 1 // MIPS answer is deep in the +10 cluster
	res := bt.Query(q)
	checkAgree(t, data, q, res)
	if res.Scanned > n/2 {
		t.Fatalf("ball tree scanned %d of %d on separable data", res.Scanned, n)
	}
}

func TestBallTreeValidation(t *testing.T) {
	if _, err := NewBallTree(nil, 4); err == nil {
		t.Fatal("empty data must fail")
	}
	if _, err := NewBallTree([]vec.Vector{{1}}, 0); err == nil {
		t.Fatal("leafSize=0 must fail")
	}
}

func TestBallTreeDuplicatePoints(t *testing.T) {
	// Identical points force degenerate splits; the build must terminate
	// and answer correctly.
	data := make([]vec.Vector, 50)
	for i := range data {
		data[i] = vec.Vector{1, 2}
	}
	bt, err := NewBallTree(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := bt.Query(vec.Vector{1, 0})
	if res.Value != 1 {
		t.Fatalf("value %v", res.Value)
	}
	if bt.Depth() < 1 {
		t.Fatal("depth")
	}
}

func TestCurseOfDimensionality(t *testing.T) {
	// The paper (citing Weber et al.): exact space partitioning degrades
	// to a full scan as dimension grows on unstructured data. Verify the
	// trend: the scanned fraction at d=64 exceeds that at d=4.
	rng := xrand.New(5)
	frac := func(d int) float64 {
		data := dataset.Gaussian(rng, 800, d, true)
		bt, err := NewBallTree(data, 16)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		const queries = 15
		for i := 0; i < queries; i++ {
			total += bt.Query(vec.Vector(rng.UnitVec(d))).Scanned
		}
		return float64(total) / float64(queries*800)
	}
	lo, hi := frac(4), frac(64)
	if hi <= lo {
		t.Fatalf("expected degradation with dimension: d=4 %.3f vs d=64 %.3f", lo, hi)
	}
}

func BenchmarkMIPSBaselines(b *testing.B) {
	rng := xrand.New(6)
	lf := dataset.NewLatentFactor(rng, 5000, 64, 16, 0.8)
	np, err := NewNormPruned(lf.Items)
	if err != nil {
		b.Fatal(err)
	}
	bt, err := NewBallTree(lf.Items, 32)
	if err != nil {
		b.Fatal(err)
	}
	for name, query := range map[string]func(vec.Vector) Result{
		"linear":     func(q vec.Vector) Result { return LinearScan(lf.Items, q) },
		"norm-prune": np.Query,
		"ball-tree":  bt.Query,
	} {
		b.Run(fmt.Sprintf("%s/n=5000", name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				query(lf.Users[i%len(lf.Users)])
			}
		})
	}
}
