package ips

// Cross-module integration tests: each one exercises a full pipeline
// spanning several internal packages, the way a downstream user would
// compose them.

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/join"
	"repro/internal/lsh"
	"repro/internal/vec"
	"repro/internal/vecio"
	"repro/internal/xrand"
)

// TestIntegration_SymmetricFamilyJoin runs a signed join where data and
// query domains coincide, through the §4.2 symmetric family — the
// scenario the paper's symmetric-LSH section is about.
func TestIntegration_SymmetricFamilyJoin(t *testing.T) {
	rng := xrand.New(3)
	const d = 4
	// Fixed-point friendly vectors in the unit ball.
	quantize := func(v vec.Vector) vec.Vector {
		for i := range v {
			v[i] = float64(int(v[i]*64)) / 64
		}
		return v
	}
	P := make([]vec.Vector, 60)
	for i := range P {
		P[i] = quantize(vec.Scaled(vec.Vector(rng.UnitVec(d)), 0.4))
	}
	Q := make([]vec.Vector, 8)
	for i := range Q {
		Q[i] = quantize(vec.Scaled(vec.Vector(rng.UnitVec(d)), 0.4))
	}
	// Plant strong partners (distinct from the queries themselves).
	for qi := 0; qi < len(Q); qi += 2 {
		planted := vec.Scaled(Q[qi], 0.9)
		P[qi] = quantize(planted)
	}
	fam, err := lsh.NewSymmetricIPS(d, 6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	j := join.LSHJoiner{Family: fam, K: 2, L: 48, Seed: 4}
	const s, cs = 0.1, 0.05
	res, err := j.Signed(P, Q, s, cs)
	if err != nil {
		t.Fatal(err)
	}
	exact := join.NaiveSigned(P, Q, s)
	if r := join.Recall(exact, res, s); r < 0.9 {
		t.Fatalf("symmetric-family join recall %v", r)
	}
}

// TestIntegration_SaveLoadDeterminism persists a workload with vecio
// and verifies the reloaded join is bit-identical.
func TestIntegration_SaveLoadDeterminism(t *testing.T) {
	rng := xrand.New(5)
	P, Q, _ := dataset.Planted(rng, 80, 10, 8, 0.95, []int{1})
	var bufP, bufQ bytes.Buffer
	if err := vecio.WriteDense(&bufP, P); err != nil {
		t.Fatal(err)
	}
	if err := vecio.WriteDense(&bufQ, Q); err != nil {
		t.Fatal(err)
	}
	P2, err := vecio.ReadDense(&bufP)
	if err != nil {
		t.Fatal(err)
	}
	Q2, err := vecio.ReadDense(&bufQ)
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Variant: Signed, S: 0.9, C: 0.5}
	r1, err := LSHJoin(P, Q, sp, LSHJoinOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := LSHJoin(P2, Q2, sp, LSHJoinOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Matches) != len(r2.Matches) || r1.Compared != r2.Compared {
		t.Fatalf("reloaded join differs: %d/%d vs %d/%d",
			len(r1.Matches), r1.Compared, len(r2.Matches), r2.Compared)
	}
	for i := range r1.Matches {
		if r1.Matches[i] != r2.Matches[i] {
			t.Fatalf("match %d differs", i)
		}
	}
}

// TestIntegration_NormRangeOnLatentFactors exercises the norm-banded
// MIPS index against brute force on the recommender workload.
func TestIntegration_NormRangeOnLatentFactors(t *testing.T) {
	rng := xrand.New(7)
	lf := dataset.NewLatentFactor(rng, 500, 25, 16, 1.0)
	lf.ScaleItemsToUnitBall()
	nr, err := lsh.NewNormRangeMIPS(lf.Items, lsh.NormRangeOptions{K: 6, L: 24, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	good := 0
	for _, u := range lf.Users {
		got, val := nr.Query(u)
		exact, exactVal := BruteMIPS(lf.Items, u, false)
		if got == exact || val >= 0.7*exactVal {
			good++
		}
	}
	if frac := float64(good) / float64(len(lf.Users)); frac < 0.7 {
		t.Fatalf("norm-range index acceptable on only %v of queries", frac)
	}
}

// TestFlatTopKMultiExport checks the public batch entry point: the
// multi-query sweep must answer exactly like per-query FlatTopK.
func TestFlatTopKMultiExport(t *testing.T) {
	data := []Vector{{1, 0}, {0, 1}, {0.5, 0.5}, {1, 0}, {0, 0}}
	s, err := NewFlatStore(data)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Vector{{1, 0}, {0, 2}, {0, 0}, {-1, 1}}
	multi, err := FlatTopKMulti(s, queries, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single, err := FlatTopK(s, q, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(multi[i]) != len(single) {
			t.Fatalf("query %d: multi %v != single %v", i, multi[i], single)
		}
		for r := range single {
			if multi[i][r] != single[r] {
				t.Fatalf("query %d rank %d: multi %v != single %v", i, r, multi[i], single)
			}
		}
	}
}
