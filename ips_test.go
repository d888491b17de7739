package ips

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ovp"
	"repro/internal/xrand"
)

// plantedOVP builds a small certified OVP instance.
func plantedOVP(rng *xrand.RNG) (*OVPInstance, OVPPair) {
	return ovp.Planted(rng, 10, 12, 16, 0.25, true)
}

func TestExactJoinFacade(t *testing.T) {
	rng := xrand.New(1)
	P, Q, _ := dataset.Planted(rng, 40, 8, 8, 0.9, []int{2})
	sp := Spec{Variant: Signed, S: 0.8, C: 0.5}
	res, err := ExactJoin(P, Q, sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGuarantee(P, Q, res, sp); err != nil {
		t.Fatal(err)
	}
}

func TestLSHJoinFacade(t *testing.T) {
	rng := xrand.New(2)
	P, Q, _ := dataset.Planted(rng, 150, 15, 16, 0.95, []int{0, 7})
	sp := Spec{Variant: Signed, S: 0.9, C: 0.5}
	res, err := LSHJoin(P, Q, sp, LSHJoinOptions{Seed: 3, L: 32, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := ExactJoin(P, Q, sp)
	if r := Recall(exact, res, sp.S); r < 0.99 {
		t.Fatalf("recall %v", r)
	}
}

func TestLSHJoinDefaults(t *testing.T) {
	rng := xrand.New(3)
	P, Q, _ := dataset.Planted(rng, 20, 4, 8, 0.95, []int{1})
	if _, err := LSHJoin(P, Q, Spec{Variant: Unsigned, S: 0.9, C: 0.5}, LSHJoinOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestSketchJoinFacade(t *testing.T) {
	rng := xrand.New(4)
	P, Q, _ := dataset.Planted(rng, 128, 5, 16, 0.95, []int{2})
	kappa := 3.0
	c := SketchJoinGuaranteedC(len(P), kappa)
	if c <= 0 || c >= 1 {
		t.Fatalf("guaranteed c = %v", c)
	}
	sp := Spec{Variant: Unsigned, S: 0.9, C: c}
	res, err := SketchJoin(P, Q, sp, kappa, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGuarantee(P, Q, res, sp); err != nil {
		t.Fatal(err)
	}
}

// TestSketchJoinGuaranteedC pins the certified factor 1/n^{1/κ} at a
// value that is exact in floating point.
func TestSketchJoinGuaranteedC(t *testing.T) {
	if got := SketchJoinGuaranteedC(16, 2); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("guaranteed c(n=16, κ=2) = %v, want 0.25", got)
	}
}

// TestSketchJoinUnsignedOnly checks that the sketch join refuses a
// signed spec and that its unsigned result meets Definition 1.
func TestSketchJoinUnsignedOnly(t *testing.T) {
	rng := xrand.New(4)
	P, Q, _ := dataset.Planted(rng, 64, 4, 8, 0.95, []int{1})
	if _, err := SketchJoin(P, Q, Spec{Variant: Signed, S: 0.9, C: 0.5}, 3, 9, 5); err == nil {
		t.Fatal("signed sketch join accepted")
	}
	sp := Spec{Variant: Unsigned, S: 0.9, C: 0.25}
	res, err := SketchJoin(P, Q, sp, 3, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGuarantee(P, Q, res, sp); err != nil {
		t.Fatal(err)
	}
}

// TestLSHJoinValidation checks that the LSH join refuses an empty data
// or query side (the engine itself would return an empty result).
func TestLSHJoinValidation(t *testing.T) {
	sp := Spec{Variant: Signed, S: 1, C: 0.5}
	P := []Vector{{1}}
	for name, in := range map[string][2][]Vector{
		"both empty":  {nil, nil},
		"empty data":  {nil, P},
		"empty query": {P, nil},
	} {
		if _, err := LSHJoin(in[0], in[1], sp, LSHJoinOptions{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestJoinRefusals pins that all three joins refuse an invalid spec.
func TestJoinRefusals(t *testing.T) {
	P := []Vector{{1, 0}, {0, 1}}
	joins := map[string]func(P []Vector, sp Spec) (Result, error){
		"exact":  func(P []Vector, sp Spec) (Result, error) { return ExactJoin(P, P, sp) },
		"lsh":    func(P []Vector, sp Spec) (Result, error) { return LSHJoin(P, P, sp, LSHJoinOptions{}) },
		"sketch": func(P []Vector, sp Spec) (Result, error) { return SketchJoin(P, P, sp, 2, 1, 1) },
	}
	for name, run := range joins {
		for _, sp := range []Spec{
			{Variant: Variant(9), S: 0.5, C: 0.5},
			{Variant: Unsigned, S: 0, C: 0.5},
			{Variant: Unsigned, S: 0.5, C: 0},
			{Variant: Unsigned, S: 0.5, C: 1.5},
		} {
			if _, err := run(P, sp); err == nil {
				t.Errorf("%s accepted invalid spec %+v", name, sp)
			}
		}
	}
}

func TestMIPSIndex(t *testing.T) {
	rng := xrand.New(6)
	P, Q, at := dataset.Planted(rng, 300, 10, 16, 0.95, []int{0, 4, 9})
	ix, err := NewMIPSIndex(P, MIPSOptions{Seed: 7, K: 6, L: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, qi := range []int{0, 4, 9} {
		got, val := ix.Query(Q[qi])
		if got != at[qi] {
			t.Fatalf("query %d: got %d (%.3f), want %d", qi, got, val, at[qi])
		}
	}
}

func TestMIPSIndexTopK(t *testing.T) {
	rng := xrand.New(8)
	P, Q, _ := dataset.Planted(rng, 200, 5, 16, 0.95, []int{1})
	ix, err := NewMIPSIndex(P, MIPSOptions{Seed: 9, K: 4, L: 16})
	if err != nil {
		t.Fatal(err)
	}
	top := ix.TopK(Q[1], 5)
	if len(top) == 0 {
		t.Fatal("empty TopK")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Value > top[i-1].Value {
			t.Fatal("TopK not sorted")
		}
	}
	if len(top) > 5 {
		t.Fatal("TopK too long")
	}
}

func TestMIPSIndexValidation(t *testing.T) {
	if _, err := NewMIPSIndex(nil, MIPSOptions{}); err == nil {
		t.Fatal("empty data must fail")
	}
}

func TestBruteMIPS(t *testing.T) {
	data := []Vector{{1, 0}, {0, -1}, {0.5, 0.5}}
	q := Vector{0, 1}
	i, v := BruteMIPS(data, q, false)
	if i != 2 || math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("signed BruteMIPS = (%d, %v)", i, v)
	}
	i, v = BruteMIPS(data, q, true)
	if i != 1 || math.Abs(v-1) > 1e-12 {
		t.Fatalf("unsigned BruteMIPS = (%d, %v)", i, v)
	}
}

func TestSketchMIPSFacade(t *testing.T) {
	rng := xrand.New(10)
	P, Q, at := dataset.Planted(rng, 128, 3, 16, 0.95, []int{0})
	m, err := NewSketchMIPS(P, 3, 9, 11)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := m.Query(Q[0])
	if got != at[0] {
		t.Fatalf("SketchMIPS query = %d, want %d", got, at[0])
	}
}

func TestTheoryFacade(t *testing.T) {
	if _, err := NewSignedEmbedding(8); err != nil {
		t.Fatal(err)
	}
	if _, err := NewChebyshevEmbedding(8, 2); err != nil {
		t.Fatal(err)
	}
	e, err := NewChoppedEmbedding(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.Params().S != 4 {
		t.Fatalf("chopped s = %v", e.Params().S)
	}
	st, err := StaircaseCase1(2, 0.1, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Verify(1e-9); err != nil {
		t.Fatal(err)
	}
	if LSHGapBound(1024) <= 0 {
		t.Fatal("gap bound")
	}
	fig, err := RenderFigure1(15)
	if err != nil || !strings.Contains(fig, "3") {
		t.Fatalf("RenderFigure1: %v", err)
	}
	pts := Figure2(0.7, 20)
	if len(pts) != 20 {
		t.Fatal("Figure2 length")
	}
	if RhoDataDep(0.7, 0.5) > RhoSimple(0.7, 0.5) {
		t.Fatal("DATA-DEP must dominate SIMP")
	}
	_ = RhoMH(0.7, 0.5)
}

func TestTheoryFacadeOVP(t *testing.T) {
	rng := xrand.New(12)
	inst, pair := plantedOVP(rng)
	got, ok := SolveOVPNaive(inst)
	if !ok || got != pair {
		t.Fatalf("naive OVP = %+v ok=%v", got, ok)
	}
	e, err := NewChoppedEmbedding(inst.D, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = SolveOVPViaEmbedding(inst, e)
	if !ok || got != pair {
		t.Fatalf("embedded OVP = %+v ok=%v", got, ok)
	}
}

func TestIndexFacades(t *testing.T) {
	rng := xrand.New(20)
	P, Q, at := dataset.Planted(rng, 200, 4, 16, 0.95, []int{0})
	mp, err := NewMultiProbeIndex(16, 8, 4, 3, 22)
	if err != nil {
		t.Fatal(err)
	}
	mp.InsertAll(P)
	if got, _ := mp.Query(Q[0], func(p Vector) float64 { return Dot(p, Q[0]) }); got != at[0] {
		t.Fatalf("MultiProbe query = %d, want %d", got, at[0])
	}
}

func TestStaircaseCase2And3Facade(t *testing.T) {
	st2, err := StaircaseCase2(2, 0.5, 0.5, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Verify(1e-9); err != nil {
		t.Fatal(err)
	}
	st3, err := StaircaseCase3(0.5, 0.5, 72, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := st3.Verify(1e-9); err != nil {
		t.Fatal(err)
	}
}
