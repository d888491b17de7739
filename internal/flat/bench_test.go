package flat

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// BenchmarkFlatDotBatch measures the single-query f64 sweep: one full
// DotBatch over n rows per iteration; ns/row is the per-row cost. d=16
// runs dotRange16, the fixed-dimension row-pair kernel small-hot
// serves, on both tiers. Every other d runs four rows per AVX2 dotRows4
// call with asm=true (skipped without AVX2), and dotRangeGeneric, the
// Go chain, with asm=false: d=24 has no element tail, d=32 is
// mixed-durable's dimension and d=64 scan-heavy's.
func BenchmarkFlatDotBatch(b *testing.B) {
	for _, d := range []int{16, 24, 32, 64} {
		rng := xrand.New(1)
		n := 20000
		s, err := FromVectors(randomVecs(rng, n, d))
		if err != nil {
			b.Fatal(err)
		}
		q := vec.Vector(rng.NormalVec(d))
		out := make([]float64, n)
		for _, asm := range []bool{true, false} {
			b.Run(fmt.Sprintf("d=%d/asm=%v", d, asm), func(b *testing.B) {
				saved := useDotTileAsm
				defer func() { useDotTileAsm = saved }()
				if asm && !saved {
					b.Skip("no AVX2 on this machine")
				}
				useDotTileAsm = asm
				b.SetBytes(int64(n * d * 8))
				for i := 0; i < b.N; i++ {
					if err := s.DotBatch(q, out); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			})
		}
	}
}

// BenchmarkFlatTopK measures the blocked top-10 scan (kernel plus
// accumulator bookkeeping) against the row-slice baseline cost.
func BenchmarkFlatTopK(b *testing.B) {
	rng := xrand.New(2)
	n, d := 20000, 16
	vs := randomVecs(rng, n, d)
	s, err := FromVectors(vs)
	if err != nil {
		b.Fatal(err)
	}
	ns := NewNormSorted(s)
	// The same rows with the last 512 in a run of their own.
	tailed := extendTo(NewNormSorted(prefixOf(s, n-chunkRows/2)).View, s, n)
	q := vec.Vector(rng.NormalVec(d))
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.TopK(q, 10, false, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("normsorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ns.TopK(q, 10, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("normsorted-tail", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tailed.Scan(context.Background(), q, ScanOpts{K: 10}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rowslices", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naiveTopK(vs, q, 10, false)
		}
	})
}

// BenchmarkFlatNormSortedExtend measures a normscan write's index work,
// amortized over a sequence of 1 024 writes of 16 rows onto a
// norm-sorted view of n — the merges of every run of the stack and the
// folds into the base run included — and /masked with 16 deaths a write,
// the dead set gathered from the last write's. B/op must stay within
// TestNormSortedExtendCostIsBatchSized's O(n/64 + batch·log n) bound.
func BenchmarkFlatNormSortedExtend(b *testing.B) {
	for _, n := range []int{5000, 40000} {
		for _, masked := range []bool{false, true} {
			name := fmt.Sprintf("n=%d", n)
			if masked {
				name += "/masked"
			}
			b.Run(name, func(b *testing.B) {
				write := normWrites(b, n, 16, 1024, masked)
				b.ReportAllocs()
				for b.Loop() {
					write()
				}
			})
		}
	}
}

// BenchmarkFlatDotTile measures the multi-query tile kernel, quads and
// octets side by side: one iteration scores 8 queries over the full
// store (ns/op ÷ 8 is the per-query sweep cost; compare with
// BenchmarkFlatDotBatch). quads runs the AVX2 kernels — dotTile16x4 at
// d = 16, dotTile4 elsewhere — and octets the AVX-512 dotTile8, each
// skipped on a machine without it. 16, 32 and 64 are the benchmark
// workloads' dimensions, 34 ALSH hashing's (SIMPLE maps d = 32 to 34).
func BenchmarkFlatDotTile(b *testing.B) {
	for _, d := range []int{16, 32, 34, 64} {
		rng := xrand.New(1)
		n, nq := 20000, 8
		s, err := FromVectors(randomVecs(rng, n, d))
		if err != nil {
			b.Fatal(err)
		}
		qs, err := FromVectors(randomVecs(rng, nq, d))
		if err != nil {
			b.Fatal(err)
		}
		for _, kernel := range []string{"quads", "octets"} {
			b.Run(fmt.Sprintf("d=%d/%s", d, kernel), func(b *testing.B) {
				k := kernelTier{quads: true, octets: kernel == "octets"}
				if !useDotTileAsm || (k.octets && !useOctetAsm) {
					b.Skipf("no %s on this machine", kernel)
				}
				defer k.use()()
				sc, out := new(TileScratch), make([]float64, nq*blockRows)
				b.SetBytes(int64(n * d * 8)) // one data sweep serves all 8 queries
				for b.Loop() {
					for lo := 0; lo < n; lo += blockRows {
						hi := min(lo+blockRows, n)
						s.scoreTile(qs, 0, nq, lo, hi, out[:nq*(hi-lo)], sc)
					}
				}
			})
		}
	}
}

// BenchmarkFlatOfferRows measures the candidate verify loop at
// planted-alsh's shard shape: 1 500 rows inside the unit ball, 240
// scattered candidates per query (≈ 953 per query over 4 shards), k = 10.
// One iteration verifies one query's candidates; ns/cand is the
// per-candidate cost. d = 32 is planted-alsh's; 16 walks whole chunks
// only and 33 adds the one-element tail. asm runs the AVX2 dotRows4
// (skipped without AVX2), go the pure-Go pair kernel every machine
// without it serves.
func BenchmarkFlatOfferRows(b *testing.B) {
	for _, d := range []int{16, 32, 33} {
		rng := xrand.New(3)
		n, m := 1500, 240
		vs := make([]vec.Vector, n)
		for i := range vs {
			vs[i] = vec.Scale(rng.UnitVec(d), rng.Float64())
		}
		s, err := FromVectors(vs)
		if err != nil {
			b.Fatal(err)
		}
		q := vec.Vector(rng.UnitVec(d))
		rows := rng.Perm(n)[:m]
		for _, asm := range []bool{true, false} {
			b.Run(fmt.Sprintf("d=%d/asm=%v", d, asm), func(b *testing.B) {
				saved := useDotTileAsm
				defer func() { useDotTileAsm = saved }()
				if asm && !saved {
					b.Skip("no AVX2 on this machine")
				}
				useDotTileAsm = asm
				a := NewAcc(10)
				for i := 0; i < b.N; i++ {
					a.hits = a.hits[:0] // pooled, as the engines' accumulators are
					s.OfferRows(nil, &a, q, rows, nil, false)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/cand")
			})
		}
	}
}

// BenchmarkFlatBlockOffer measures the top-k bookkeeping of one 256-row
// block into a full accumulator whose bar no score reaches — nearly
// every block of a sweep once its queries' accumulators fill: ns/block
// is what block.offer adds to the kernel's scoring. asm skips 16 scores
// per AVX2 skipBelow compare (skipped without AVX2), go runs
// skipBelowGeneric's compare per score.
func BenchmarkFlatBlockOffer(b *testing.B) {
	rng := xrand.New(5)
	scores := rng.NormalVec(blockRows)
	for _, asm := range []bool{true, false} {
		b.Run(fmt.Sprintf("asm=%v", asm), func(b *testing.B) {
			saved := useDotTileAsm
			defer func() { useDotTileAsm = saved }()
			if asm && !saved {
				b.Skip("no AVX2 on this machine")
			}
			useDotTileAsm = asm
			a := NewAcc(10)
			for i := range 10 {
				a.Offer(blockRows+i, 10)
			}
			for i := 0; i < b.N; i++ {
				block{}.offer(&a, scores)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/block")
		})
	}
}

// BenchmarkFlatTopKMulti measures the full multi-query top-k driver:
// one iteration answers 256 top-10 queries over a 20k-row store
// (ns/op ÷ 256 compares against BenchmarkFlatTopK/flat), at every
// dimension a benchmark workload serves — the batch paths the
// bench-gate's BenchmarkFlatTopK filter holds to its bar: f64 (the
// d=… cells) and int8 (int8/d=…, which also lists each query's
// certified candidates, as an int8 collection's top 10 does).
func BenchmarkFlatTopKMulti(b *testing.B) {
	for _, tier := range []string{"f64", "int8"} {
		for _, d := range []int{16, 32, 64} {
			name := fmt.Sprintf("d=%d", d)
			if tier == "int8" {
				name = "int8/" + name
			}
			b.Run(name, func(b *testing.B) {
				rng := xrand.New(2)
				n, nq := 20000, 256
				s, err := FromVectors(randomVecs(rng, n, d))
				if err != nil {
					b.Fatal(err)
				}
				qs, err := FromVectors(randomVecs(rng, nq, d))
				if err != nil {
					b.Fatal(err)
				}
				v := s.View()
				if tier == "int8" {
					v = NewStoreI8(s).View()
				}
				sc := GetTileScratch()
				defer PutTileScratch(sc)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					accs := sc.Accs(nq, 10)
					if err := v.ScanMulti(context.Background(), qs, 0, nq, accs, sc, ScanOpts{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFlatI8Tile measures the VNNI int8 tile kernel alone: one
// iteration scores one 256-row block of codes against a tile of nq
// queries — exact int32 dots and mask bits (tileDots) — and ns/score is
// ns/op ÷ (256·nq). nq = 1 is a single search, 8 a full batch tile; d = 32
// is mixed-durable's dimension. Skipped where the machine has no VNNI.
func BenchmarkFlatI8Tile(b *testing.B) {
	if !i8TileSIMD(16) {
		b.Skip("no AVX-512 VNNI on this machine")
	}
	for _, d := range []int{16, 32, 64} {
		rng := xrand.New(6)
		fs, err := FromVectors(randomVecs(rng, blockRows, d))
		if err != nil {
			b.Fatal(err)
		}
		s := NewStoreI8(fs)
		for _, nq := range []int{1, 2, 4, 8} {
			qs, err := FromVectors(randomVecs(rng, nq, d))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("d=%d/nq=%d", d, nq), func(b *testing.B) {
				sc := GetTileScratch()
				defer PutTileScratch(sc)
				s.bindTile(qs, 0, nq, sc)
				for b.Loop() {
					s.tileDots(&sc.i8, 0, nq, 0, blockRows, false)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blockRows*nq), "ns/score")
			})
		}
	}
}
