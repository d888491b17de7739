package flat

import (
	"math"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

func randomVecs(rng *xrand.RNG, n, d int) []vec.Vector {
	vs := make([]vec.Vector, n)
	for i := range vs {
		vs[i] = vec.Vector(rng.NormalVec(d))
	}
	return vs
}

func TestStoreShapeAndRows(t *testing.T) {
	rng := xrand.New(1)
	vs := randomVecs(rng, 17, 5)
	s, err := FromVectors(vs)
	if err != nil {
		t.Fatalf("FromVectors: %v", err)
	}
	if s.Len() != 17 || s.Dim() != 5 {
		t.Fatalf("shape = (%d, %d), want (17, 5)", s.Len(), s.Dim())
	}
	for i, v := range vs {
		if !vec.EqualTol(s.Row(i), v, 0) {
			t.Fatalf("row %d = %v, want %v", i, s.Row(i), v)
		}
		if s.Norm(i) != vec.Norm(v) {
			t.Fatalf("norm %d = %v, want %v", i, s.Norm(i), vec.Norm(v))
		}
	}
	rows := s.Rows()
	if len(rows) != 17 {
		t.Fatalf("Rows returned %d views", len(rows))
	}
	if &rows[3][0] != &s.Row(3)[0] {
		t.Fatal("Rows views do not alias the backing array")
	}
}

func TestStoreErrors(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("New(0) succeeded")
	}
	if _, err := New(-3); err == nil {
		t.Fatal("New(-3) succeeded")
	}
	if _, err := FromVectors(nil); err == nil {
		t.Fatal("FromVectors(nil) succeeded")
	}
	s, _ := New(3)
	if err := s.Append(vec.Vector{1, 2}); err == nil {
		t.Fatal("short append succeeded")
	}
	if err := s.AppendAll([]vec.Vector{{1, 2, 3}, {4, 5}}); err == nil {
		t.Fatal("mixed-dimension AppendAll succeeded")
	}
	if s.Len() != 0 {
		t.Fatalf("failed AppendAll left %d rows behind", s.Len())
	}
	if err := s.Append(vec.Vector{1, 2, 3}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := s.DotBatch(vec.Vector{1, 2}, make([]float64, 1)); err == nil {
		t.Fatal("DotBatch with wrong query dimension succeeded")
	}
	if err := s.DotBatch(vec.Vector{1, 2, 3}, make([]float64, 5)); err == nil {
		t.Fatal("DotBatch with wrong out length succeeded")
	}
	if _, err := s.TopK(vec.Vector{1}, 1, false, 1); err == nil {
		t.Fatal("TopK with wrong query dimension succeeded")
	}
	if _, err := s.TopK(vec.Vector{1, 2, 3}, 0, false, 1); err == nil {
		t.Fatal("TopK with k=0 succeeded")
	}
	ns := NewNormSorted(s)
	if _, _, err := ns.TopK(vec.Vector{1}, 1, false); err == nil {
		t.Fatal("NormSorted.TopK with wrong query dimension succeeded")
	}
}

// TestCloneIsIndependent: a clone shares its parent's rows, yet appends
// to either are invisible to the other.
func TestCloneIsIndependent(t *testing.T) {
	s, _ := FromVectors([]vec.Vector{{1, 2}, {3, 4}})
	c := s.Clone()
	if err := c.Append(vec.Vector{5, 6}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := s.Append(vec.Vector{7, 8}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if s.Len() != 3 || !vec.EqualTol(s.Row(2), vec.Vector{7, 8}, 0) {
		t.Fatalf("clone append leaked into original: len=%d row 2=%v", s.Len(), s.Row(2))
	}
	if c.Len() != 3 || !vec.EqualTol(c.Row(2), vec.Vector{5, 6}, 0) {
		t.Fatalf("original append leaked into clone: len=%d row 2=%v", c.Len(), c.Row(2))
	}
}

// TestDotBatchMatchesVecDot pins the bit-identity contract of the
// single-query sweep on every kernel tier — dotRange16 at d = 16, four
// rows per AVX2 dotRows4 call at every other d ≥ 4 where the tier has
// AVX2, the Go chain elsewhere — because the serving layer's
// equivalence guarantees are built on it: every DotBatch score, and
// every DotRange score over windows that start on odd rows and straddle
// a chunk edge, must have vec.DotKernel's bits (sameScoreBits: −0 is
// not +0), at n ≡ 0–3 mod 4 rows, every d mod 4, and over rows of +0,
// −0 and subnormals against a query with the same. Scores land on NaN,
// which no input makes, so a row left unscored fails.
func TestDotBatchMatchesVecDot(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := xrand.New(2)
		for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100} {
			for _, n := range []int{1, 2, 3, 4, 5, 257, 514, 515, 516, chunkRows + 7} {
				vs := randomVecs(rng, n, d)
				tiny := math.SmallestNonzeroFloat64
				for i, v := range vs[:min(n, 5)] {
					for j := range v {
						switch i {
						case 0:
							v[j] = 0
						case 1:
							v[j] = math.Copysign(0, -1)
						case 2:
							v[j] = float64(j%5-2) * tiny
						default:
							v[j] = [3]float64{math.Copysign(0, -1), 3 * tiny, -1}[(i+j)%3]
						}
					}
				}
				s, err := FromVectors(vs)
				if err != nil {
					t.Fatalf("d=%d n=%d: %v", d, n, err)
				}
				signed := vec.Vector(rng.NormalVec(d))
				zeros := vec.New(d)
				for j := range zeros {
					zeros[j] = [3]float64{math.Copysign(0, -1), tiny, 0.5}[j%3]
				}
				out := make([]float64, n)
				unscored := func(out []float64) []float64 {
					for i := range out {
						out[i] = math.NaN()
					}
					return out
				}
				for _, q := range []vec.Vector{signed, zeros} {
					if err := s.DotBatch(q, unscored(out)); err != nil {
						t.Fatalf("d=%d n=%d: DotBatch: %v", d, n, err)
					}
					checkDots(t, vs, q, 0, out)
					for _, w := range [][2]int{{1, n}, {3, n}, {chunkRows - 5, chunkRows + 2}, {chunkRows - 3, n}} {
						lo, hi := w[0], w[1]
						if lo >= hi || hi > n {
							continue
						}
						if err := s.DotRange(q, lo, hi, unscored(out[:hi-lo])); err != nil {
							t.Fatalf("d=%d n=%d: DotRange(%d, %d): %v", d, n, lo, hi, err)
						}
						checkDots(t, vs, q, lo, out[:hi-lo])
					}
				}
			}
		}
	})
}

// checkDots requires got[i] to hold vs[lo+i]·q with vec.DotKernel's
// bits.
func checkDots(t *testing.T, vs []vec.Vector, q vec.Vector, lo int, got []float64) {
	t.Helper()
	for i, g := range got {
		if want := vec.DotKernel(vs[lo+i], q); !sameScoreBits(g, want) {
			t.Fatalf("d=%d n=%d row %d (range from %d): %v (%#x), vec.DotKernel %v (%#x)",
				len(q), len(vs), lo+i, lo, g, math.Float64bits(g), want, math.Float64bits(want))
		}
	}
}

// naiveTopK is the reference top-k: score every row with vec.Dot and
// keep the k best under (score descending, index ascending).
func naiveTopK(vs []vec.Vector, q vec.Vector, k int, unsigned bool) []Hit {
	a := NewAcc(k)
	for i, v := range vs {
		s := vec.Dot(v, q)
		if unsigned && s < 0 {
			s = -s
		}
		a.Offer(i, s)
	}
	return a.Hits()
}

func hitsEqual(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNormSortedEarlyTermination checks both exactness and that the
// bound actually prunes on a norm-skewed data set.
func TestNormSortedEarlyTermination(t *testing.T) {
	rng := xrand.New(4)
	n, d := 4096, 16
	vs := randomVecs(rng, n, d)
	// Give a handful of rows much larger norms so the descending-norm
	// prefix resolves the top-k early.
	for i := 0; i < 8; i++ {
		vec.Scale(vs[rng.Intn(n)], 50)
	}
	s, err := FromVectors(vs)
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNormSorted(s)
	q := vec.Vector(rng.NormalVec(d))
	hits, scanned, err := ns.TopK(q, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveTopK(vs, q, 5, false); !hitsEqual(hits, want) {
		t.Fatalf("norm-sorted hits %v != naive %v", hits, want)
	}
	if scanned >= n {
		t.Fatalf("norm bound never terminated: scanned %d of %d", scanned, n)
	}
	t.Logf("norm-sorted scan stopped after %d of %d rows", scanned, n)
}

// TestNormSortedOrder pins the view's row order to its definition — norm
// descending, store index ascending among equal norms — against a
// comparison sort, on rows with repeated, zero, tiny, huge and infinite
// norms, at sizes around the radix sort's edge cases, for both tiers.
func TestNormSortedOrder(t *testing.T) {
	rng := xrand.New(91)
	for _, n := range []int{1, 2, 257, 3000} {
		vs := randomVecs(rng, n, 5)
		for i, v := range vs {
			switch i % 9 {
			case 1:
				vec.Scale(v, 1e-150)
			case 2:
				vec.Scale(v, 1e150)
			case 3:
				copy(v, vs[i/2]) // a repeated norm
			case 4:
				copy(v, vec.New(5))
			case 5:
				if i%5 == 0 {
					v[0] = math.Inf(1)
				}
			}
		}
		s, err := FromVectors(vs)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range map[string]View{"f64": NewNormSorted(s).View} {
			norm := func(i int) float64 { return v.norms.at(i) } // the tier's own, in view order
			seen := make([]bool, n)
			for phys, orig := range physPerm(v) {
				if seen[orig] {
					t.Fatalf("%s n=%d: row %d appears twice", name, n, orig)
				}
				seen[orig] = true
				if phys == 0 {
					continue
				}
				prev := int(v.ids[phys-1])
				if a, b := norm(phys-1), norm(phys); a < b || (a == b && prev > orig) {
					t.Fatalf("%s n=%d: rows %d (norm %v) and %d (norm %v) are out of order at %d", name, n, prev, a, orig, b, phys)
				}
			}
			if name == "f64" {
				for phys, orig := range physPerm(v) {
					if norm(phys) != s.Norm(orig) {
						t.Fatalf("n=%d: view row %d carries norm %v, row %d has %v", n, phys, norm(phys), orig, s.Norm(orig))
					}
				}
			}
		}
	}
}

func TestTopKZeroAndTieVectors(t *testing.T) {
	// Adversarial ties: duplicated rows, zero rows, sign flips.
	vs := []vec.Vector{
		{1, 0}, {0, 0}, {1, 0}, {-1, 0}, {0, 0}, {0.5, 0}, {1, 0},
	}
	s, err := FromVectors(vs)
	if err != nil {
		t.Fatal(err)
	}
	q := vec.Vector{2, 0}
	for _, unsigned := range []bool{false, true} {
		got, err := s.TopK(q, 4, unsigned, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveTopK(vs, q, 4, unsigned)
		if !hitsEqual(got, want) {
			t.Fatalf("unsigned=%v: got %v, want %v", unsigned, got, want)
		}
		nsGot, _, err := NewNormSorted(s).TopK(q, 4, unsigned)
		if err != nil {
			t.Fatal(err)
		}
		if !hitsEqual(nsGot, want) {
			t.Fatalf("unsigned=%v: norm-sorted got %v, want %v", unsigned, nsGot, want)
		}
	}
}

func TestTopKOverAsking(t *testing.T) {
	vs := []vec.Vector{{1}, {2}, {3}}
	s, _ := FromVectors(vs)
	hits, err := s.TopK(vec.Vector{1}, 10, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 || hits[0].Index != 2 || hits[0].Score != 3 {
		t.Fatalf("over-asking returned %v", hits)
	}
	if math.IsNaN(hits[0].Score) {
		t.Fatal("NaN score")
	}
}
