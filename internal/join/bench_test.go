package join

import (
	"runtime"
	"testing"

	"repro/internal/flat"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// The BenchmarkJoin suite measures the acceptance workload of the
// flat-store join layer: n=10k data rows against 256 queries at d=16,
// naive row-slice reference vs the tiled kernel vs norm-pruned tiling,
// single-threaded, plus the two under a parallel runner.
// scripts/bench.sh records these in BENCH_<n>.json.

const (
	benchN  = 10_000
	benchNQ = 256
	benchD  = 16
	benchS  = 0.8
)

// benchWorkload builds the shared join benchmark inputs once.
func benchWorkload() (P, Q []vec.Vector, fp, fq *flat.Store) {
	rng := xrand.New(99)
	P = make([]vec.Vector, benchN)
	for i := range P {
		P[i] = vec.Scaled(vec.Vector(rng.UnitVec(benchD)), 0.2+0.8*rng.Float64())
	}
	Q = make([]vec.Vector, benchNQ)
	for i := range Q {
		Q[i] = vec.Vector(rng.UnitVec(benchD))
	}
	for i := 0; i < benchNQ; i += 4 {
		P[(i*37)%benchN] = vec.Scaled(Q[i].Clone(), 0.9)
	}
	var err error
	if fp, err = flat.FromVectors(P); err != nil {
		panic(err)
	}
	if fq, err = flat.FromVectors(Q); err != nil {
		panic(err)
	}
	return P, Q, fp, fq
}

func BenchmarkJoinNaive_10kx256_d16(b *testing.B) {
	P, Q, _, _ := benchWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NaiveSigned(P, Q, benchS)
	}
}

func benchEngine(b *testing.B, e Engine, fp, fq *flat.Store, opts Opts) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Join(fp, fq, benchS, benchS, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinTiled_10kx256_d16(b *testing.B) {
	_, _, fp, fq := benchWorkload()
	benchEngine(b, Tiled{}, fp, fq, Opts{})
}

func BenchmarkJoinNormPruned_10kx256_d16(b *testing.B) {
	_, _, fp, fq := benchWorkload()
	benchEngine(b, NormPruned{}, fp, fq, Opts{})
}

// BenchmarkJoinNormPrunedTail is the norm-pruned join as a normscan
// collection serves it after a write: the view prebuilt, the last 512
// rows of P a run of their own behind the rest.
func BenchmarkJoinNormPrunedTail_10kx256_d16(b *testing.B) {
	P, _, fp, fq := benchWorkload()
	v, _, folded := flat.SortRows(P[:benchN-512]).Extend(P[benchN-512:])
	if folded {
		b.Fatal("Extend folded a 512-row tail")
	}
	benchEngine(b, NormPruned{Sorted: &flat.NormSorted{View: v}}, fp, fq, Opts{})
}

func BenchmarkJoinTiledTopK8_10kx256_d16(b *testing.B) {
	_, _, fp, fq := benchWorkload()
	benchEngine(b, Tiled{}, fp, fq, Opts{TopK: 8})
}

func BenchmarkJoinTiledPool_10kx256_d16(b *testing.B) {
	_, _, fp, fq := benchWorkload()
	benchEngine(b, Tiled{}, fp, fq, Opts{Runner: newChanRunner(runtime.GOMAXPROCS(0))})
}

func BenchmarkJoinNormPrunedPool_10kx256_d16(b *testing.B) {
	_, _, fp, fq := benchWorkload()
	benchEngine(b, NormPruned{}, fp, fq, Opts{Runner: newChanRunner(runtime.GOMAXPROCS(0))})
}
