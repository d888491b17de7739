package cheb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSmallOrders(t *testing.T) {
	// T_0 = 1, T_1 = x, T_2 = 2x²−1, T_3 = 4x³−3x.
	for _, x := range []float64{-2, -1, -0.5, 0, 0.3, 1, 1.5} {
		if got := T(0, x); got != 1 {
			t.Fatalf("T_0(%v) = %v", x, got)
		}
		if got := T(1, x); math.Abs(got-x) > 1e-12 {
			t.Fatalf("T_1(%v) = %v", x, got)
		}
		if got, want := T(2, x), 2*x*x-1; math.Abs(got-want) > 1e-9 {
			t.Fatalf("T_2(%v) = %v, want %v", x, got, want)
		}
		if got, want := T(3, x), 4*x*x*x-3*x; math.Abs(got-want) > 1e-9 {
			t.Fatalf("T_3(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestClosedFormMatchesRecurrence(t *testing.T) {
	f := func(qRaw uint8, xRaw int16) bool {
		q := int(qRaw % 20)
		x := float64(xRaw) / 10000 * 1.3 // spans inside and outside [-1,1]
		a, b := T(q, x), TRec(q, x)
		scale := math.Max(1, math.Abs(b))
		return math.Abs(a-b)/scale < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedOnUnitInterval(t *testing.T) {
	for q := 0; q <= 30; q++ {
		for x := -1.0; x <= 1.0; x += 0.01 {
			if v := math.Abs(T(q, x)); v > 1+1e-9 {
				t.Fatalf("|T_%d(%v)| = %v > 1", q, x, v)
			}
		}
		if MaxAbsOnUnit(q) != 1 {
			t.Fatal("MaxAbsOnUnit must be 1")
		}
	}
}

func TestGrowthOutsideUnit(t *testing.T) {
	// T_q(1+ε) ≥ e^{q√ε}/2 for 0 < ε < 1/2 (the form used by the paper's
	// embedding-2 threshold).
	for _, q := range []int{1, 2, 5, 10, 20} {
		for _, eps := range []float64{0.01, 0.1, 0.25, 0.49} {
			got := T(q, 1+eps)
			want := GrowthLowerBound(q, eps)
			if got < want {
				t.Fatalf("T_%d(1+%v) = %v < e^{q√ε}/2 = %v", q, eps, got, want)
			}
		}
	}
}

func TestScaledRecMatchesDefinition(t *testing.T) {
	// ScaledRec(q, u, b) must equal b^q·T_q(u/b).
	f := func(qRaw uint8, uRaw, bRaw int8) bool {
		q := int(qRaw % 12)
		b := float64(int(bRaw%10) + 11) // b in [2..20]-ish, nonzero
		u := float64(uRaw)
		got := ScaledRec(q, u, b)
		bq := math.Pow(b, float64(q))
		want := bq * T(q, u/b)
		// The error of the closed form T is relative to 1, the size of
		// its terms, not to its value: at a root of T_q (u = 0, q odd)
		// cos(q·π/2) comes back as ~1e-16 where ScaledRec is exactly 0,
		// and b^q multiplies that residue. So compare at the scale b^q.
		scale := math.Max(bq, math.Abs(want))
		return math.Abs(got-want)/scale < 1e-8
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestScaledRecIntegrality(t *testing.T) {
	// With integer u, b all values must be exactly integral.
	for q := 0; q <= 10; q++ {
		v := ScaledRec(q, 7, 16)
		if v != math.Trunc(v) {
			t.Fatalf("ScaledRec(%d,7,16) = %v not integral", q, v)
		}
	}
}

func TestSemigroupProperty(t *testing.T) {
	// T_m(T_n(x)) = T_{mn}(x).
	for _, m := range []int{1, 2, 3} {
		for _, n := range []int{1, 2, 4} {
			for x := -0.95; x <= 0.96; x += 0.1 {
				lhs := T(m, T(n, x))
				rhs := T(m*n, x)
				if math.Abs(lhs-rhs) > 1e-9 {
					t.Fatalf("T_%d(T_%d(%v)): %v != %v", m, n, x, lhs, rhs)
				}
			}
		}
	}
}

func TestPanics(t *testing.T) {
	for i, f := range []func(){
		func() { T(-1, 0) },
		func() { TRec(-1, 0) },
		func() { ScaledRec(-2, 0, 1) },
		func() { GrowthLowerBound(1, 0.7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
