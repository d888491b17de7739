// Benchmarks regenerating the paper's evaluation artifacts. One bench
// family per table/figure (see DESIGN.md's experiment index):
//
//	BenchmarkTable1_*   — the Lemma 3 embeddings and the two permissible
//	                      subquadratic algorithms behind Table 1.
//	BenchmarkFigure1_*  — the Lemma 4 grid partition and empirical-gap
//	                      machinery behind Figure 1.
//	BenchmarkFigure2_*  — the analytic ρ curves and their Monte-Carlo
//	                      validation behind Figure 2.
//	BenchmarkTheorem3_* — the staircase constructions of Theorem 3.
//	BenchmarkCrossover_*— the exact/LSH/sketch work crossover (ablation).
//
// Run with: go test -bench=. -benchmem
package ips

import (
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/lsh"
	"repro/internal/ovp"
	"repro/internal/seqs"
	"repro/internal/sketch"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// --- Table 1: hard side (embeddings + OVP pipeline) ---

func BenchmarkTable1_E1_Pipeline(b *testing.B) {
	rng := xrand.New(1)
	const d = 32
	e, err := embed.NewSignedPM1(d)
	if err != nil {
		b.Fatal(err)
	}
	in, _ := ovp.Planted(rng, 24, 24, d, 0.2, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ovp.SolveViaSignsEmbedding(in, e); !ok {
			b.Fatal("planted pair lost")
		}
	}
}

func BenchmarkTable1_E2_Pipeline(b *testing.B) {
	for _, q := range []int{1, 2} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			rng := xrand.New(2)
			const d = 16
			e, err := embed.NewChebyshevPM1(d, q)
			if err != nil {
				b.Fatal(err)
			}
			in, _ := ovp.Planted(rng, 16, 16, d, 0.2, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := ovp.SolveViaSignsEmbedding(in, e); !ok {
					b.Fatal("planted pair lost")
				}
			}
		})
	}
}

func BenchmarkTable1_E3_Pipeline(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := xrand.New(3)
			const d = 16
			e, err := embed.NewChopped01(d, k)
			if err != nil {
				b.Fatal(err)
			}
			in, _ := ovp.Planted(rng, 24, 24, d, 0.2, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := ovp.SolveViaBitsEmbedding(in, e); !ok {
					b.Fatal("planted pair lost")
				}
			}
		})
	}
}

// --- Table 1: permissible side (the two subquadratic algorithms) ---

func BenchmarkTable1_SketchJoin(b *testing.B) {
	for _, n := range []int{256, 1024} {
		for _, kappa := range []float64{3, 4} {
			b.Run(fmt.Sprintf("n=%d/kappa=%g", n, kappa), func(b *testing.B) {
				rng := xrand.New(uint64(n))
				P, Q, _ := dataset.Planted(rng, n, 8, 16, 0.95, []int{0, 4})
				e := join.Sketch{Kappa: kappa, Copies: 5, Seed: 5}
				s := 0.9
				cs := s / sketch.ApproxFactor(n, kappa)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := join.JoinVectors(e, P, Q, s, cs, join.Opts{Unsigned: true}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTable1_MinHashJoin(b *testing.B) {
	for _, n := range []int{512, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(uint64(n))
			const d, avg = 256, 12
			P := dataset.BinarySets(rng, n, d, avg, 0.05)
			Q := dataset.BinarySets(rng, 16, d, avg, 0.05)
			fam, err := lsh.NewMinHash(d)
			if err != nil {
				b.Fatal(err)
			}
			e := join.LSH{NewFamily: func(int) (lsh.Family, error) { return fam, nil }, K: 3, L: 8, Seed: 7}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := join.JoinVectors(e, P, Q, avg/2, avg/4, join.Opts{Unsigned: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 1: grid partition and Lemma 4 gap estimation ---

func BenchmarkFigure1_Partition(b *testing.B) {
	const n = 1023
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sqs, err := grid.Squares(n)
		if err != nil {
			b.Fatal(err)
		}
		if len(sqs) == 0 {
			b.Fatal("empty partition")
		}
	}
}

func BenchmarkFigure1_Locate(b *testing.B) {
	const n = 1023
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := grid.Locate(n, i%512, 512+(i%511)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1_EmpiricalGap(b *testing.B) {
	st, err := seqs.Case1_1D(0.001, 0.5, 512)
	if err != nil {
		b.Fatal(err)
	}
	fam, err := lsh.NewHyperplane(1)
	if err != nil {
		b.Fatal(err)
	}
	n := st.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.EmpiricalGap(fam, st.P[:n], st.Q[:n], 200, 11)
	}
}

func BenchmarkFigure1_MassAccounting(b *testing.B) {
	st, err := seqs.Case1_1D(1.0/256, 0.5, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	fam, err := lsh.NewHyperplane(1)
	if err != nil {
		b.Fatal(err)
	}
	P, Q := st.P[:15], st.Q[:15]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ma, err := grid.AccountMasses(fam, P, Q, 200, 13)
		if err != nil {
			b.Fatal(err)
		}
		if err := ma.VerifyProof(1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 2: ρ curves ---

func BenchmarkFigure2_Curves(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts := lsh.Figure2Series(0.7, 100)
		if len(pts) != 100 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkFigure2_MCCollision(b *testing.B) {
	fam, err := lsh.NewHyperplane(8)
	if err != nil {
		b.Fatal(err)
	}
	p := vec.Vector{1, 0, 0, 0, 0, 0, 0, 0}
	q := vec.Vector{0.6, 0.8, 0, 0, 0, 0, 0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsh.EstimateCollision(fam, p, q, 100, uint64(i))
	}
}

// --- Theorem 3: staircase constructions ---

func BenchmarkTheorem3_Case1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := seqs.Case1(4, 0.5, 0.5, 64)
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTheorem3_Case2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := seqs.Case2(4, 1, 0.5, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem3_Case3RS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := seqs.Case3(0.5, 0.5, 72, seqs.FamilyReedSolomon, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Crossover ablation: exact vs LSH vs sketch joins ---

func BenchmarkCrossover_Exact(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(uint64(n))
			P, Q, _ := dataset.Planted(rng, n, 32, 24, 0.95, []int{0, 8})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				join.NaiveSigned(P, Q, 0.9)
			}
		})
	}
}

func BenchmarkCrossover_LSH(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(uint64(n))
			P, Q, _ := dataset.Planted(rng, n, 32, 24, 0.95, []int{0, 8})
			fam, err := lsh.NewHyperplane(24)
			if err != nil {
				b.Fatal(err)
			}
			e := join.LSH{NewFamily: func(int) (lsh.Family, error) { return fam, nil }, K: 10, L: 8, Seed: 3}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := join.JoinVectors(e, P, Q, 0.9, 0.45, join.Opts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblation_RecovererCopies sweeps the median-boosting copy
// count of the §4.3 trie — the paper's O(log 1/δ) repetition knob.
func BenchmarkAblation_RecovererCopies(b *testing.B) {
	rng := xrand.New(40)
	const n, d = 256, 16
	P, Q, _ := dataset.Planted(rng, n, 8, d, 0.95, []int{0})
	for _, copies := range []int{1, 5, 9} {
		b.Run(fmt.Sprintf("copies=%d", copies), func(b *testing.B) {
			rec, err := sketch.NewRecoverer(P, 3, copies, 41)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Query(Q[i%len(Q)])
			}
		})
	}
}

// BenchmarkAblation_BandingShape sweeps (K, L) at fixed K·L budget —
// the precision/recall trade of the banding index.
func BenchmarkAblation_BandingShape(b *testing.B) {
	rng := xrand.New(42)
	const n, d = 2000, 24
	P, Q, _ := dataset.Planted(rng, n, 16, d, 0.95, []int{0, 8})
	for _, shape := range [][2]int{{4, 24}, {8, 12}, {12, 8}} {
		b.Run(fmt.Sprintf("K=%d/L=%d", shape[0], shape[1]), func(b *testing.B) {
			fam, err := lsh.NewHyperplane(d)
			if err != nil {
				b.Fatal(err)
			}
			e := join.LSH{NewFamily: func(int) (lsh.Family, error) { return fam, nil }, K: shape[0], L: shape[1], Seed: 43}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := join.JoinVectors(e, P, Q, 0.9, 0.45, join.Opts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_MultiProbe compares plain banding (probes=0)
// against multi-probe queries at reduced table counts.
func BenchmarkAblation_MultiProbe(b *testing.B) {
	rng := xrand.New(44)
	const n, d = 2000, 24
	data := make([]vec.Vector, n)
	for i := range data {
		data[i] = vec.Vector(rng.UnitVec(d))
	}
	q := vec.Vector(rng.UnitVec(d))
	for _, probes := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("probes=%d", probes), func(b *testing.B) {
			mp, err := lsh.NewMultiProbe(d, 12, 4, probes, 45)
			if err != nil {
				b.Fatal(err)
			}
			mp.InsertAll(data)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mp.Query(q, func(p vec.Vector) float64 { return vec.Dot(p, q) })
			}
		})
	}
}

// BenchmarkAblation_PackedVsFloatDot measures the bit-packed kernel
// against the dense float dot at the paper's {−1,1} domain.
func BenchmarkAblation_PackedVsFloatDot(b *testing.B) {
	rng := xrand.New(46)
	const d = 1024
	sx, sy := bitvec.NewSigns(d), bitvec.NewSigns(d)
	for i := 0; i < d; i++ {
		sx.SetSign(i, rng.Sign())
		sy.SetSign(i, rng.Sign())
	}
	fx, fy := vec.Vector(sx.Floats()), vec.Vector(sy.Floats())
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bitvec.DotSigns(sx, sy)
		}
	})
	b.Run("float", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vec.Dot(fx, fy)
		}
	})
}

func BenchmarkCrossover_SketchBuildAndQuery(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(uint64(n))
			P, Q, _ := dataset.Planted(rng, n, 32, 24, 0.95, []int{0, 8})
			rec, err := sketch.NewRecoverer(P, 3, 5, 9)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Query(Q[i%len(Q)])
			}
		})
	}
}
