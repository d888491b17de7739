package flat

import (
	"context"
	"math"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// kernelTier is one kernel dispatch. For f64 tiles quads runs the
// AVX2 quad kernels and octets the AVX-512 octet kernel; for int8 quant
// runs the AVX2 kernel (a tile scoring each query block by block) and
// i8Tile the AVX-512 VNNI tile kernel.
type kernelTier struct {
	name                         string
	quads, octets, quant, i8Tile bool
}

// kernelTiers are the dispatches this machine can run, read before any
// test switches them: the pure-Go kernels always ("go"); with AVX2 the
// quads and the AVX2 int8 kernels ("asm"); and with AVX-512F the octets,
// the quads taking what they leave, beside the VNNI int8 tile where the
// machine has it ("octets"). All must produce bit-identical results.
var kernelTiers = func() []kernelTier {
	tiers := []kernelTier{{name: "go"}}
	if useDotTileAsm {
		tiers = append(tiers, kernelTier{name: "asm", quads: true, quant: useQuantAsm})
	}
	if useOctetAsm {
		tiers = append(tiers, kernelTier{name: "octets", quads: useDotTileAsm, octets: true, quant: useQuantAsm, i8Tile: useI8TileAsm})
	}
	return tiers
}()

// use switches the kernel dispatch to k and returns the switch back.
func (k kernelTier) use() (restore func()) {
	quads, octets, quant, i8Tile := useDotTileAsm, useOctetAsm, useQuantAsm, useI8TileAsm
	useDotTileAsm, useOctetAsm, useQuantAsm, useI8TileAsm = k.quads, k.octets, k.quant, k.i8Tile
	return func() { useDotTileAsm, useOctetAsm, useQuantAsm, useI8TileAsm = quads, octets, quant, i8Tile }
}

// forEachKernelPath runs fn as a subtest under every kernel tier.
func forEachKernelPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, k := range kernelTiers {
		restore := k.use()
		t.Run(k.name, fn)
		restore()
	}
}

// checkTile requires every cell of the DotTile of query rows [qlo, qhi)
// against rows [plo, phi), and every score of the single-query kernel
// on the same operands, to hold vec.DotKernel's score bit for bit
// (sameScoreBits: −0 is not +0).
func checkTile(t *testing.T, s, qs *Store, qlo, qhi, plo, phi int) {
	t.Helper()
	nb := phi - plo
	out := make([]float64, (qhi-qlo)*nb)
	if err := s.DotTile(qs, qlo, qhi, plo, phi, out, new(TileScratch)); err != nil {
		t.Fatalf("d=%d: DotTile: %v", s.Dim(), err)
	}
	single := make([]float64, nb)
	for j := qlo; j < qhi; j++ {
		if err := s.DotRange(qs.Row(j), plo, phi, single); err != nil {
			t.Fatal(err)
		}
		for r, one := range single {
			w := vec.DotKernel(s.Row(plo+r), qs.Row(j))
			if tile := out[(j-qlo)*nb+r]; !sameScoreBits(tile, w) || !sameScoreBits(one, w) {
				t.Fatalf("d=%d rows [%d, %d) queries [%d, %d): query %d row %d: tile %v (%#x), single %v (%#x), vec.DotKernel %v (%#x)",
					s.Dim(), plo, phi, qlo, qhi, j, plo+r, tile, math.Float64bits(tile), one, math.Float64bits(one), w, math.Float64bits(w))
			}
		}
	}
}

// TestDotTileMatchesDotRange pins the tile kernel's bit-identity
// contract: every (row, query) cell of the tile, and the single-query
// kernel's score on the same operands, must equal vec.DotKernel's,
// across dimensions that exercise the d=16 micro-kernel, the
// any-dimension one with every element-tail length, and the Go kernels
// below d=4 — each with quads plus remainders and odd row counts.
func TestDotTileMatchesDotRange(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := xrand.New(11)
		for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 23, 24, 31, 32, 33, 63, 64, 65, 100} {
			for _, n := range []int{1, 2, 3, 5, 255, 256, 257} {
				s, err := FromVectors(randomVecs(rng, n, d))
				if err != nil {
					t.Fatal(err)
				}
				for _, nq := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
					qs, err := FromVectors(randomVecs(rng, nq, d))
					if err != nil {
						t.Fatal(err)
					}
					plo, phi := 0, n
					if n > 4 {
						plo, phi = 1, n-2 // unaligned block offsets
					}
					checkTile(t, s, qs, 0, nq, plo, phi)
				}
			}
		}
	})
}

// TestDotTileSpecialValues runs the same contract over operands where
// the sign of a zero, an infinity or a NaN decides the bits: Gaussian
// rows and queries with ±0, ±Inf, NaN, the smallest denormal and ±1e308
// planted in them; operands drawn from {±0, ±1, ±5e-324} alone, so that
// most partial sums are a signed zero; and −0 rows against non-negative
// queries, where every product is −0 — vec.DotKernel's chain, begun at
// +0, sums them to +0, and so must every kernel, d = 8 and 16 included.
func TestDotTileSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	planted := []float64{0, negZero, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e308, -1e308}
	zeros := []float64{0, negZero, 1, -1, 5e-324, -5e-324}
	forEachKernelPath(t, func(t *testing.T) {
		rng := xrand.New(13)
		// fill draws one element in every from set, the rest Gaussian.
		fill := func(n, d int, set []float64, every int) *Store {
			vs := randomVecs(rng, n, d)
			for _, v := range vs {
				for i := range v {
					if rng.Intn(every) == 0 {
						v[i] = set[rng.Intn(len(set))]
					}
				}
			}
			s, err := FromVectors(vs)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		for _, d := range []int{3, 4, 5, 6, 7, 8, 9, 16, 17, 23, 32, 33, 64, 70} {
			for rep := 0; rep < 8; rep++ {
				n := 1 + rng.Intn(7)
				checkTile(t, fill(n, d, planted, 6), fill(9, d, planted, 6), 0, 9, 0, n)
				checkTile(t, fill(n, d, zeros, 1), fill(9, d, zeros, 1), 0, 9, 0, n)
				checkTile(t, fill(n, d, []float64{negZero}, 1), fill(9, d, []float64{0, 1, 5e-324}, 1), 0, 9, 0, n)
			}
		}
	})
}

// TestDotTileErrors checks the validated wrapper's failure modes.
func TestDotTileErrors(t *testing.T) {
	s, _ := FromVectors([]vec.Vector{{1, 2}, {3, 4}})
	qs, _ := FromVectors([]vec.Vector{{1, 2}})
	q3, _ := FromVectors([]vec.Vector{{1, 2, 3}})
	out, sc := make([]float64, 2), new(TileScratch)
	if err := s.DotTile(q3, 0, 1, 0, 2, out, sc); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := s.DotTile(qs, 0, 2, 0, 2, out, sc); err == nil {
		t.Fatal("query range out of bounds accepted")
	}
	if err := s.DotTile(qs, 0, 1, 0, 3, out, sc); err == nil {
		t.Fatal("row range out of bounds accepted")
	}
	if err := s.DotTile(qs, 0, 1, 0, 2, out[:1], sc); err == nil {
		t.Fatal("short out accepted")
	}
	if err := s.DotTile(qs, 0, 1, 0, 2, out, sc); err != nil {
		t.Fatalf("valid DotTile rejected: %v", err)
	}
}

// saltedVecs builds the adversarial data set: random rows plus exact
// duplicates, zero rows, and a sign-flipped copy, forcing ties that
// only the canonical (score, index) ordering resolves.
func saltedVecs(rng *xrand.RNG, n, d int) []vec.Vector {
	vs := randomVecs(rng, n, d)
	dup := vs[rng.Intn(len(vs))].Clone()
	return append(vs, dup, dup.Clone(), vec.New(d), vec.New(d), vec.Neg(dup))
}

// tileGrid builds an adversarial query set: random rows plus exact
// duplicates of data rows (maximal ties), a zero query, and a NaN
// query (every score NaN, so the accumulators must reject everything).
func tileGrid(rng *xrand.RNG, vs []vec.Vector, nq, d int) []vec.Vector {
	qs := make([]vec.Vector, 0, nq+3)
	for i := 0; i < nq; i++ {
		qs = append(qs, vec.Vector(rng.NormalVec(d)))
	}
	qs = append(qs, vs[rng.Intn(len(vs))].Clone(), vec.New(d))
	nan := vec.New(d)
	nan[rng.Intn(d)] = math.NaN()
	qs = append(qs, nan)
	return qs
}

// TestTopKMultiMatchesTopK is the multi-query equivalence grid: over
// randomized n/d/k/q (with duplicated rows, zero rows, zero queries
// and NaN queries), TopKMulti must be bit-identical to the per-query
// single-query scan — hits, ordering, tie-breaks, NaN rejection.
func TestTopKMultiMatchesTopK(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		for _, tc := range []struct{ n, d, k, q int }{
			{1, 16, 1, 1},
			{7, 3, 2, 5},
			{300, 8, 5, 11},
			{513, 16, 10, 9},
			{1000, 16, 3, 17},
			{700, 24, 7, 6},
			{260, 1, 4, 4},
		} {
			for seed := uint64(0); seed < 2; seed++ {
				rng := xrand.New(1 + seed*997 + uint64(tc.n*31+tc.d*7+tc.k))
				vs := saltedVecs(rng, tc.n, tc.d)
				s, err := FromVectors(vs)
				if err != nil {
					t.Fatal(err)
				}
				queries := tileGrid(rng, vs, tc.q, tc.d)
				qs, err := FromVectors(queries)
				if err != nil {
					t.Fatal(err)
				}
				for _, unsigned := range []bool{false, true} {
					multi, err := s.TopKMulti(qs, tc.k, unsigned)
					if err != nil {
						t.Fatal(err)
					}
					for j, q := range queries {
						want, err := s.TopK(q, tc.k, unsigned, 1)
						if err != nil {
							t.Fatal(err)
						}
						if !hitsEqual(multi[j], want) {
							t.Fatalf("n=%d d=%d k=%d unsigned=%v query %d: multi %v != single %v",
								tc.n, tc.d, tc.k, unsigned, j, multi[j], want)
						}
					}
				}
			}
		}
	})
}

// TestNormSortedTopKMultiMatchesTopK does the same for the
// early-terminating descending-norm scan, including the per-query
// scanned counts (the multi sweep must prune exactly like the
// single-query bound, never more, never less).
func TestNormSortedTopKMultiMatchesTopK(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		for _, tc := range []struct{ n, d, k, q int }{
			{300, 16, 5, 9},
			{1000, 8, 3, 13},
			{2048, 16, 10, 7},
			{700, 24, 2, 5},
		} {
			rng := xrand.New(uint64(tc.n*131 + tc.d*17 + tc.k))
			vs := saltedVecs(rng, tc.n, tc.d)
			// Skew some norms so the bound actually prunes.
			for i := 0; i < 6; i++ {
				vec.Scale(vs[rng.Intn(len(vs))], 40)
			}
			s, err := FromVectors(vs)
			if err != nil {
				t.Fatal(err)
			}
			ns := NewNormSorted(s)
			queries := tileGrid(rng, vs, tc.q, tc.d)
			qs, err := FromVectors(queries)
			if err != nil {
				t.Fatal(err)
			}
			for _, unsigned := range []bool{false, true} {
				multi, scanned, err := ns.TopKMulti(qs, tc.k, unsigned)
				if err != nil {
					t.Fatal(err)
				}
				pruned := false
				for j, q := range queries {
					want, wantScanned, err := ns.TopK(q, tc.k, unsigned)
					if err != nil {
						t.Fatal(err)
					}
					if !hitsEqual(multi[j], want) {
						t.Fatalf("n=%d d=%d k=%d unsigned=%v query %d: multi %v != single %v",
							tc.n, tc.d, tc.k, unsigned, j, multi[j], want)
					}
					if scanned[j] != wantScanned {
						t.Fatalf("n=%d d=%d k=%d unsigned=%v query %d: multi scanned %d, single %d",
							tc.n, tc.d, tc.k, unsigned, j, scanned[j], wantScanned)
					}
					if wantScanned < s.Len() {
						pruned = true
					}
				}
				if !pruned {
					t.Fatalf("n=%d d=%d: norm bound never pruned any query", tc.n, tc.d)
				}
			}
		}
	})
}

// TestScanFloorOnlyPrunes pins a floored accumulator (Acc.SetFloor)
// under ScanMulti: its hits are the floor-less scan's at or above the
// floor, it never scores more rows than that scan, a floor no row
// reaches scans nothing on a norm-sorted view, and a store-order view —
// which has no bound to compare it with — scores every row.
func TestScanFloorOnlyPrunes(t *testing.T) {
	rng := xrand.New(77)
	vs := saltedVecs(rng, 3000, 16)
	for i := range vs {
		vec.Scale(vs[i], 1/float64(1+i%40))
	}
	s, _ := FromVectors(vs)
	qs, _ := FromVectors(tileGrid(rng, vs, 9, 16))
	sc := GetTileScratch()
	defer PutTileScratch(sc)
	const k = 4
	for _, v := range []View{s.View(), NewNormSorted(s).View} {
		for _, unsigned := range []bool{false, true} {
			for _, floor := range []float64{0.05, 0.5, 1e9} {
				var multi ScanStats
				o := ScanOpts{K: k, Unsigned: unsigned, Stats: &multi}
				accs := sc.Accs(qs.Len(), k)
				for j := range accs {
					accs[j].SetFloor(floor)
				}
				if err := v.ScanMulti(context.Background(), qs, 0, qs.Len(), accs, sc, o); err != nil {
					t.Fatal(err)
				}
				scanned := 0
				for j := range accs {
					var full ScanStats
					want, _ := v.Scan(context.Background(), qs.Row(j), ScanOpts{K: k, Unsigned: unsigned, Stats: &full})
					if !hitsEqual(accs[j].Hits(), hitsAbove(want, floor)) {
						t.Fatalf("sorted=%v unsigned=%v floor=%v query %d: hits %v, the floor-less scan's above it %v", v.Sorted(), unsigned, floor, j, accs[j].Hits(), hitsAbove(want, floor))
					}
					n := sc.Scanned()[j]
					if n > full.ScannedRows {
						t.Fatalf("sorted=%v floor=%v query %d: scanned %d, floor-less %d", v.Sorted(), floor, j, n, full.ScannedRows)
					}
					if !v.Sorted() && n != s.Len() {
						t.Fatalf("store-order scan under a floor scanned %d of %d rows", n, s.Len())
					}
					// (A NaN query's bound is NaN and never prunes.)
					if floor == 1e9 && v.Sorted() && !math.IsNaN(qs.Norm(j)) && n != 0 {
						t.Fatalf("query %d scanned %d rows under a floor no row reaches", j, n)
					}
					scanned += n
				}
				if multi.ScannedRows != scanned {
					t.Fatalf("sorted=%v floor=%v: tile scanned %d rows, its queries %d", v.Sorted(), floor, multi.ScannedRows, scanned)
				}
			}
		}
	}
}

// TestTopKMultiInputValidation checks ScanMulti's contract.
func TestTopKMultiInputValidation(t *testing.T) {
	s, _ := FromVectors([]vec.Vector{{1, 2}, {3, 4}})
	qs, _ := FromVectors([]vec.Vector{{1, 0}, {0, 1}})
	sc := GetTileScratch()
	defer PutTileScratch(sc)
	multi := func(qs *Store, qlo, qhi int, accs []Acc) error {
		return s.View().ScanMulti(context.Background(), qs, qlo, qhi, accs, sc, ScanOpts{})
	}
	if err := multi(nil, 0, 0, nil); err == nil {
		t.Fatal("nil query store accepted")
	}
	if err := multi(qs, 0, 3, make([]Acc, 3)); err == nil {
		t.Fatal("query range out of bounds accepted")
	}
	if err := multi(qs, 0, 2, make([]Acc, 1)); err == nil {
		t.Fatal("accumulator count mismatch accepted")
	}
	if err := multi(qs, 0, 2, sc.Accs(2, 0)); err == nil {
		t.Fatal("k=0 accumulators accepted")
	}
	if _, err := s.TopKMulti(qs, 0, false); err == nil {
		t.Fatal("TopKMulti k=0 accepted")
	}
	q3, _ := FromVectors([]vec.Vector{{1, 2, 3}})
	if _, err := s.TopKMulti(q3, 1, false); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestAccReset pins the reuse semantics pooled accumulators rely on.
func TestAccReset(t *testing.T) {
	a := NewAcc(2)
	a.Offer(0, 5)
	a.Offer(1, 7)
	a.Reset(3)
	if len(a.Hits()) != 0 {
		t.Fatalf("reset left %d hits", len(a.Hits()))
	}
	a.Offer(4, 1)
	a.Offer(2, 1)
	a.Offer(3, 9)
	a.Offer(5, 0.5)
	hits := a.Hits()
	want := []Hit{{Index: 3, Score: 9}, {Index: 2, Score: 1}, {Index: 4, Score: 1}}
	if !hitsEqual(hits, want) {
		t.Fatalf("after reset: %v, want %v", hits, want)
	}
}

// TestAccKeys: a keyed accumulator breaks ties by key whatever the order
// rows are offered in. Rows of small integers tie often; ScanMulti over
// the store-order, norm-sorted and int8 views, dead rows and all, keeps
// each query's k best by (score descending, key ascending), the order a
// brute force over the live rows gives; int8 through its candidates,
// re-ranked under the keys.
func TestAccKeys(t *testing.T) {
	rng := xrand.New(5)
	n, d, k := 700, 3, 9
	vs := randomVecs(rng, n, d)
	for _, v := range vs {
		for j := range v {
			v[j] = math.Round(v[j])
		}
	}
	fs, _ := FromVectors(vs)
	qs, _ := FromVectors(append(randomVecs(rng, 3, d), vec.New(d)))
	keys := rng.Perm(n)
	some, _ := killRandom(rng, n, 0.2)
	for c, v := range []View{fs.View(), NewNormSorted(fs).View, NewStoreI8(fs).View(), fs.View(), NewNormSorted(fs).View} {
		i, dead := c%3, map[bool]*Tombstones{true: some}[c < 3]
		sc := GetTileScratch()
		accs := sc.Accs(qs.Len(), k)
		for j := range accs {
			accs[j].SetKeys(keys)
		}
		if err := v.ScanMulti(context.Background(), qs, 0, qs.Len(), accs, sc, ScanOpts{Dead: v.GatherDead(dead)}); err != nil {
			t.Fatal(err)
		}
		for j := range accs {
			got := accs[j].Hits()
			if i == 2 { // int8: re-rank the candidates
				a := NewAcc(k)
				a.SetKeys(keys)
				fs.OfferRows(nil, &a, qs.Row(j), sc.Candidates(j, &accs[j]), nil, false)
				got = a.Hits()
			}
			want := NewAcc(k)
			for r := range n {
				if !dead.Dead(r) {
					want.Offer(keys[r], vec.Dot(fs.Row(r), qs.Row(j)))
				}
			}
			for r, h := range want.Hits() {
				if r >= len(got) || keys[got[r].Index] != h.Index || got[r].Score != h.Score {
					t.Fatalf("view %d query %d (dead rows: %v): keyed hits %v, want %v by key", i, j, dead != nil, got, want.Hits())
				}
			}
		}
		PutTileScratch(sc)
	}
}

// TestTileKernelAllocs is the zero-allocation contract of the flat
// kernels, on every kernel tier: with a warm scratch and warm
// accumulators, DotTile and ScanMulti — store order, norm-sorted and
// int8 — must allocate nothing.
func TestTileKernelAllocs(t *testing.T) {
	rng := xrand.New(21)
	n, d, nq, k := 1500, 16, 9, 10
	s, err := FromVectors(randomVecs(rng, n, d))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := FromVectors(randomVecs(rng, nq, d))
	if err != nil {
		t.Fatal(err)
	}
	forEachKernelPath(t, func(t *testing.T) {
		sc := new(TileScratch)
		out := make([]float64, nq*256)

		if allocs := testing.AllocsPerRun(20, func() {
			if err := s.DotTile(qs, 0, nq, 0, 256, out, sc); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("DotTile allocates %v per run, want 0", allocs)
		}

		views := map[string]View{"store order": s.View(), "norm-sorted": NewNormSorted(s).View, "int8": NewStoreI8(s).View()}
		for name, v := range views {
			sweep := func() {
				accs := sc.Accs(nq, k)
				if err := v.ScanMulti(context.Background(), qs, 0, nq, accs, sc, ScanOpts{}); err != nil {
					t.Fatal(err)
				}
			}
			sweep() // warm the accumulators so their hit storage reaches capacity
			if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
				t.Fatalf("%s ScanMulti allocates %v per run, want 0", name, allocs)
			}
		}
	})
}
