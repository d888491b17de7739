package server

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/mips"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// The serving-layer equivalence harness: after the columnar-store
// migration, every flat-backed index must return top-k lists identical
// to the old row-slice reference — mips.LinearScan for the argmax and a
// naive vec.Dot accumulator for the full ranked list — across
// randomized n/d/k/seed grids seeded with adversarial ties (duplicate
// rows, zero rows of both signs, sign flips). Exact engines must match
// ID-for-ID with the reference's score bits (every path shares
// vec.DotKernel's accumulation chain, at every d); the candidate engine
// (alsh) must report exactly verified scores for whatever it returns.

const equivTol = 1e-12

// adversarial salts tie-forcing rows into a random set, and a row of
// −0s, whose every product with a non-negative query is −0: the chain,
// begun at +0, sums them to +0.
func adversarial(rng *xrand.RNG, n, d int) []vec.Vector {
	vs := make([]vec.Vector, 0, n+6)
	for i := 0; i < n; i++ {
		vs = append(vs, vec.Vector(rng.NormalVec(d)))
	}
	dup := vs[rng.Intn(len(vs))]
	vs = append(vs, dup.Clone(), dup.Clone(), vec.New(d), vec.New(d), vec.Neg(dup), vec.Neg(vec.New(d)))
	return vs
}

func hitsEquivalent(t *testing.T, ctx string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d\n got: %v\nwant: %v", ctx, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s rank %d: ID %d, want %d\n got: %v\nwant: %v", ctx, i, got[i].ID, want[i].ID, got, want)
		}
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s rank %d (ID %d): score %v (%#x), want %v (%#x)", ctx, i, got[i].ID,
				got[i].Score, math.Float64bits(got[i].Score), want[i].Score, math.Float64bits(want[i].Score))
		}
	}
}

// TestExactEnginesMatchLinearScanGrid sweeps shard counts, n, d, k and
// seeds: the flat-backed exact and normscan engines must reproduce the
// naive reference exactly — bit for bit, alone and in a batch of the
// four queries — and top-1 must agree with mips.LinearScan.
func TestExactEnginesMatchLinearScanGrid(t *testing.T) {
	for _, kind := range []string{KindExact, KindNormScan} {
		for _, shards := range []int{1, 3} {
			for _, n := range []int{1, 40, 500} {
				for _, d := range []int{1, 8, 16, 21} {
					for seed := uint64(0); seed < 2; seed++ {
						rng := xrand.New(seed*100003 + uint64(n*37+d*5+shards))
						data := adversarial(rng, n, d)
						recs := records(data, 0)
						s := New(Config{DefaultShards: shards, CacheCapacity: -1})
						if _, _, err := s.Ingest("c", &IndexSpec{Kind: kind}, shards, recs); err != nil {
							t.Fatal(err)
						}
						for _, k := range []int{1, 7, 2 * len(data)} {
							for _, unsigned := range []bool{false, true} {
								nonNeg := vec.Vector(rng.NormalVec(d))
								for i := range nonNeg {
									nonNeg[i] = math.Abs(nonNeg[i])
								}
								queries := []vec.Vector{rng.NormalVec(d), rng.NormalVec(d), vec.New(d) /* all ties */, nonNeg}
								batch, err := s.Search("c", queries, k, unsigned)
								if err != nil {
									t.Fatal(err)
								}
								for trial, q := range queries {
									ctx := fmt.Sprintf("kind=%s shards=%d n=%d d=%d k=%d unsigned=%v seed=%d trial=%d",
										kind, shards, n, d, k, unsigned, seed, trial)
									res, err := s.Search("c", []vec.Vector{q}, k, unsigned)
									if err != nil {
										t.Fatalf("%s: %v", ctx, err)
									}
									if res[0].Err != nil || batch[trial].Err != nil {
										t.Fatalf("%s: %v / batch %v", ctx, res[0].Err, batch[trial].Err)
									}
									want := exactTopK(recs, q, k, unsigned)
									hitsEquivalent(t, ctx, res[0].Hits, want)
									hitsEquivalent(t, ctx+" batch", batch[trial].Hits, want)
									if !unsigned && len(res[0].Hits) > 0 {
										ls := mips.LinearScan(data, q)
										if res[0].Hits[0].ID != ls.Index {
											t.Fatalf("%s: top-1 ID %d, mips.LinearScan argmax %d",
												ctx, res[0].Hits[0].ID, ls.Index)
										}
										if math.Abs(res[0].Hits[0].Score-ls.Value) > equivTol {
											t.Fatalf("%s: top-1 score %v, mips.LinearScan %v",
												ctx, res[0].Hits[0].Score, ls.Value)
										}
									}
								}
							}
						}
						s.Close()
					}
				}
			}
		}
	}
}

// TestCandidateEnginesVerifyScores checks the flat-backed candidate
// engine: whatever alsh returns, the reported score must equal the exact
// (absolute) inner product of that record — i.e. candidate verification
// through the columnar store is exact — and hits must keep the canonical
// ordering.
func TestCandidateEnginesVerifyScores(t *testing.T) {
	for _, kind := range []string{KindALSH} {
		for seed := uint64(0); seed < 3; seed++ {
			rng := xrand.New(31 + seed)
			data := adversarial(rng, 300, 16)
			// alsh expects unit-ball data; scale in place.
			scale := 0.0
			for _, v := range data {
				if n := vec.Norm(v); n > scale {
					scale = n
				}
			}
			for _, v := range data {
				if scale > 0 {
					vec.Scale(v, 1/scale)
				}
			}
			recs := records(data, 0)
			byID := make(map[int]vec.Vector, len(recs))
			for _, r := range recs {
				byID[r.ID] = r.Vec
			}
			s := New(Config{DefaultShards: 2, CacheCapacity: -1})
			if _, _, err := s.Ingest("c", &IndexSpec{Kind: kind}, 2, recs); err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 10; trial++ {
				q := vec.Vector(rng.NormalVec(16))
				res, err := s.Search("c", []vec.Vector{q}, 5, true)
				if err != nil {
					t.Fatal(err)
				}
				if res[0].Err != nil {
					t.Fatal(res[0].Err)
				}
				prev := math.Inf(1)
				prevID := -1
				for _, h := range res[0].Hits {
					v, ok := byID[h.ID]
					if !ok {
						t.Fatalf("kind=%s: hit for unknown ID %d", kind, h.ID)
					}
					want := math.Abs(vec.Dot(v, q))
					if math.Abs(h.Score-want) > equivTol {
						t.Fatalf("kind=%s ID=%d: reported score %v, exact %v", kind, h.ID, h.Score, want)
					}
					if h.Score > prev || (h.Score == prev && h.ID < prevID) {
						t.Fatalf("kind=%s: hits out of canonical order: %v", kind, res[0].Hits)
					}
					prev, prevID = h.Score, h.ID
				}
			}
			s.Close()
		}
	}
}

// TestSingleShardConcurrentSearchMatchesExact: concurrent single-query
// searches on one 13 000-row shard — each scanned on its caller's
// goroutine, while the others hold the same snapshot — must each return
// exactly the reference answer.
func TestSingleShardConcurrentSearchMatchesExact(t *testing.T) {
	rng := xrand.New(97)
	data := adversarial(rng, 13000, 16)
	recs := records(data, 0)
	s := New(Config{DefaultShards: 1, Workers: 8, CacheCapacity: -1})
	defer s.Close()
	if _, _, err := s.Ingest("c", &IndexSpec{Kind: KindExact}, 1, recs); err != nil {
		t.Fatal(err)
	}
	queries := make([]vec.Vector, 8)
	for i := range queries {
		queries[i] = vec.Vector(rng.NormalVec(16))
	}
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func(q vec.Vector) {
			defer wg.Done()
			res, err := s.Search("c", []vec.Vector{q}, 10, false)
			if err != nil {
				t.Error(err)
				return
			}
			if res[0].Err != nil {
				t.Error(res[0].Err)
				return
			}
			want := exactTopK(recs, q, 10, false)
			for i := range want {
				if res[0].Hits[i] != want[i] {
					t.Errorf("rank %d: got %+v, want %+v", i, res[0].Hits[i], want[i])
					return
				}
			}
		}(q)
	}
	wg.Wait()
}

// TestBatchSearchCaching checks a batch's cache interplay: a repeated
// batch is served from the LRU with identical hits, and k<=0 is rejected
// for every query.
func TestBatchSearchCaching(t *testing.T) {
	rng := xrand.New(99)
	data := adversarial(rng, 200, 8)
	s := New(Config{DefaultShards: 2})
	defer s.Close()
	if _, _, err := s.Ingest("c", nil, 0, records(data, 0)); err != nil {
		t.Fatal(err)
	}
	queries := make([]vec.Vector, 40)
	for i := range queries {
		queries[i] = vec.Vector(rng.NormalVec(8))
	}
	first, err := s.Search("c", queries, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Err != nil || first[i].Cached {
			t.Fatalf("query %d: err=%v cached=%v on cold cache", i, first[i].Err, first[i].Cached)
		}
	}
	second, err := s.Search("c", queries, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		if !second[i].Cached {
			t.Fatalf("query %d not served from cache", i)
		}
		if len(second[i].Hits) != len(first[i].Hits) {
			t.Fatalf("query %d: cached hits differ", i)
		}
		for r := range first[i].Hits {
			if second[i].Hits[r] != first[i].Hits[r] {
				t.Fatalf("query %d rank %d: cached hit differs", i, r)
			}
		}
	}
	bad, err := s.Search("c", queries, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bad {
		if bad[i].Err == nil {
			t.Fatalf("query %d: k=0 accepted by batch path", i)
		}
	}
}
