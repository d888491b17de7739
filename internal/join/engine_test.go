package join

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// chanRunner is a minimal bounded parallel-for, standing in for the
// serving layer's pool (which the join package cannot import).
type chanRunner struct{ sem chan struct{} }

func newChanRunner(workers int) chanRunner {
	return chanRunner{sem: make(chan struct{}, workers)}
}

func (r chanRunner) ForEach(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		r.sem <- struct{}{}
		go func(i int) {
			defer func() { <-r.sem; wg.Done() }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// gridWorkload builds an adversarial P≠Q workload: random rows mixed
// with zero vectors, duplicated rows (exact signed ties), negated rows
// (exact unsigned ties), and planted strong partners for a quarter of
// the queries.
func gridWorkload(rng *xrand.RNG, n, nq, d int) (P, Q []vec.Vector) {
	Q = make([]vec.Vector, nq)
	for i := range Q {
		switch i % 5 {
		case 3:
			Q[i] = vec.New(d) // zero query
		case 4:
			Q[i] = Q[i-1].Clone() // duplicate query
		default:
			Q[i] = vec.Vector(rng.UnitVec(d))
		}
	}
	P = make([]vec.Vector, n)
	for i := range P {
		switch {
		case i%7 == 3:
			P[i] = vec.New(d) // zero row
		case i%7 == 5 && i > 0:
			P[i] = P[i-1].Clone() // duplicate row → signed tie
		case i%7 == 6 && i > 0:
			P[i] = vec.Neg(P[i-1]) // negated row → unsigned tie
		case i%11 == 1:
			P[i] = vec.Scaled(Q[(i/11)%nq].Clone(), 0.95) // planted partner
		default:
			P[i] = vec.Scaled(vec.Vector(rng.UnitVec(d)), 0.3+0.7*rng.Float64())
		}
	}
	return P, Q
}

// mustJoin runs an engine and fails the test on error.
func mustJoin(t *testing.T, e Engine, fp, fq *flat.Store, s, cs float64, opts Opts) Result {
	t.Helper()
	res, err := e.Join(fp, fq, s, cs, opts)
	if err != nil {
		t.Fatalf("%s: %v", e.Name(), err)
	}
	return res
}

// sameMatches asserts two match lists are identical — indices, order,
// and float bits.
func sameMatches(t *testing.T, label string, want, got []Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestFlatEnginesMatchNaiveGrid is the equivalence grid of the flat
// exact engines: over randomized n/nq/d/s combinations — including
// ties, zero vectors, P≠Q sizes and tile-boundary crossings — the tiled
// and norm-pruned joins must return the exact pair set of the naive
// row-slice reference, bit for bit, serially and under a parallel runner.
func TestFlatEnginesMatchNaiveGrid(t *testing.T) {
	rng := xrand.New(42)
	runner := newChanRunner(4)
	for _, n := range []int{1, 3, 17, 64, 300} {
		for _, nq := range []int{1, 5, 70} {
			for _, d := range []int{3, 8, 16} {
				P, Q := gridWorkload(rng, n, nq, d)
				fp, err := flat.FromVectors(P)
				if err != nil {
					t.Fatal(err)
				}
				fq, err := flat.FromVectors(Q)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []float64{0.1, 0.55, 3.0} {
					for _, unsigned := range []bool{false, true} {
						want := NaiveSigned(P, Q, s)
						if unsigned {
							want = NaiveUnsigned(P, Q, s)
						}
						opts := Opts{Unsigned: unsigned}
						tiled := mustJoin(t, Tiled{}, fp, fq, s, s, opts)
						sameMatches(t, "tiled", want.Matches, tiled.Matches)
						if tiled.Compared != int64(n)*int64(nq) {
							t.Fatalf("tiled compared %d, want %d", tiled.Compared, n*nq)
						}
						pruned := mustJoin(t, NormPruned{}, fp, fq, s, s, opts)
						sameMatches(t, "normpruned", want.Matches, pruned.Matches)
						if pruned.Compared > tiled.Compared {
							t.Fatalf("normpruned compared %d > tiled %d", pruned.Compared, tiled.Compared)
						}
						popts := opts
						popts.Runner = runner
						par := mustJoin(t, Tiled{}, fp, fq, s, s, popts)
						sameMatches(t, "tiled/runner", want.Matches, par.Matches)
						parp := mustJoin(t, NormPruned{}, fp, fq, s, s, popts)
						sameMatches(t, "normpruned/runner", want.Matches, parp.Matches)
					}
				}
			}
		}
	}
}

// TestFlatEnginesTopKMatchNaive pins the top-k-pairs mode to the naive
// top-k reference on the same adversarial workloads.
func TestFlatEnginesTopKMatchNaive(t *testing.T) {
	rng := xrand.New(7)
	for _, n := range []int{4, 40, 280} {
		for _, nq := range []int{3, 66} {
			P, Q := gridWorkload(rng, n, nq, 8)
			fp, _ := flat.FromVectors(P)
			fq, _ := flat.FromVectors(Q)
			for _, k := range []int{1, 3, 10} {
				for _, unsigned := range []bool{false, true} {
					const s = 0.25
					want := NaiveSignedTopK(P, Q, s, k)
					if unsigned {
						want = NaiveUnsignedTopK(P, Q, s, k)
					}
					opts := Opts{Unsigned: unsigned, TopK: k}
					tiled := mustJoin(t, Tiled{}, fp, fq, s, s, opts)
					sameMatches(t, "tiled topk", want.Matches, tiled.Matches)
					pruned := mustJoin(t, NormPruned{}, fp, fq, s, s, opts)
					sameMatches(t, "normpruned topk", want.Matches, pruned.Matches)
				}
			}
		}
	}
}

// TestNormPrunedMatchesTiledLooseCS checks bit-identity also holds when
// cs < s — the pruning bar is the acceptance threshold, so loosening c
// must never change the answer relative to the tiled engine.
func TestNormPrunedMatchesTiledLooseCS(t *testing.T) {
	rng := xrand.New(11)
	P, Q := gridWorkload(rng, 300, 70, 16)
	fp, _ := flat.FromVectors(P)
	fq, _ := flat.FromVectors(Q)
	for _, cs := range []float64{0.0, 0.2, 0.4} {
		for _, unsigned := range []bool{false, true} {
			for _, k := range []int{0, 4} {
				opts := Opts{Unsigned: unsigned, TopK: k}
				want := mustJoin(t, Tiled{}, fp, fq, 0.8, cs, opts)
				got := mustJoin(t, NormPruned{}, fp, fq, 0.8, cs, opts)
				sameMatches(t, "normpruned cs<s", want.Matches, got.Matches)
			}
		}
	}
}

// TestNormPrunedSkipsWork asserts the Cauchy–Schwarz bound actually
// prunes on a norm-skewed workload (it is an optimisation, not just a
// correctness mirror).
func TestNormPrunedSkipsWork(t *testing.T) {
	rng := xrand.New(13)
	n, d := 4096, 16
	P := make([]vec.Vector, n)
	for i := range P {
		// Geometric norm decay: most rows cannot reach the threshold.
		P[i] = vec.Scaled(vec.Vector(rng.UnitVec(d)), math.Pow(0.999, float64(i)))
	}
	Q := make([]vec.Vector, 64)
	for i := range Q {
		Q[i] = vec.Vector(rng.UnitVec(d))
	}
	fp, _ := flat.FromVectors(P)
	fq, _ := flat.FromVectors(Q)
	const s = 0.5
	pruned := mustJoin(t, NormPruned{}, fp, fq, s, s, Opts{})
	full := int64(n) * int64(len(Q))
	if pruned.Compared >= full/2 {
		t.Fatalf("normpruned compared %d of %d pairs — bound not pruning", pruned.Compared, full)
	}
	want := NaiveSigned(P, Q, s)
	sameMatches(t, "normpruned skewed", want.Matches, pruned.Matches)
}

// TestLSHEngineFlatVerification runs the flat LSH engine and checks
// every reported value against the store re-verification, plus recall
// against the exact join on a planted workload.
func TestLSHEngineFlatVerification(t *testing.T) {
	rng := xrand.New(3)
	hot := []int{0, 3, 7, 11}
	P, Q := corpus(rng, 200, 20, 16, 0.95, hot)
	fp, _ := flat.FromVectors(P)
	fq, _ := flat.FromVectors(Q)
	eng := LSH{
		NewFamily: func(d int) (lsh.Family, error) { return lsh.NewHyperplane(d) },
		K:         6, L: 24, Seed: 4,
	}
	const s, cs = 0.9, 0.45
	approx := mustJoin(t, eng, fp, fq, s, cs, Opts{})
	exact := NaiveSigned(P, Q, s)
	if r := Recall(exact, approx, s); r < 0.99 {
		t.Fatalf("recall %v too low", r)
	}
	for _, m := range approx.Matches {
		if got := fp.Dot(m.PIdx, fq.Row(m.QIdx)); got != m.Value {
			t.Fatalf("match %+v not verified through the store (dot %v)", m, got)
		}
	}
}

// TestSketchEngineFlat checks the flat sketch engine recovers a
// planted unsigned partner and reports store-verified values.
func TestSketchEngineFlat(t *testing.T) {
	rng := xrand.New(9)
	P, Q := corpus(rng, 128, 6, 16, 0.95, []int{2})
	fp, _ := flat.FromVectors(P)
	fq, _ := flat.FromVectors(Q)
	eng := Sketch{Kappa: 3, Copies: 9, Seed: 10}
	const s = 0.9
	cs := s * (1 / math.Pow(float64(len(P)), 1.0/3))
	res := mustJoin(t, eng, fp, fq, s, cs, Opts{Unsigned: true})
	if !res.MatchedQueries()[2] {
		t.Fatal("sketch engine missed the planted partner")
	}
	if _, err := eng.Join(fp, fq, s, cs, Opts{}); err == nil {
		t.Fatal("sketch engine must reject signed joins")
	}
}

// TestThresholdModeRejectsNaN pins the NaN contract across every
// threshold-mode scan: a pair whose dot product overflows to NaN
// (finite, JSON-ingestable inputs — Inf + (-Inf) inside the kernel)
// must not latch the argmax and shadow a later legitimate match, and
// k=0 and k=1 modes must agree.
func TestThresholdModeRejectsNaN(t *testing.T) {
	P := []vec.Vector{{1e308, 1e308}, {1, 0}}
	Q := []vec.Vector{{1e308, -1e308}}
	fp, _ := flat.FromVectors(P)
	fq, _ := flat.FromVectors(Q)
	want := []Match{{QIdx: 0, PIdx: 1, Value: 1e308}}
	for _, unsigned := range []bool{false, true} {
		naive := NaiveSigned(P, Q, 1)
		if unsigned {
			naive = NaiveUnsigned(P, Q, 1)
		}
		sameMatches(t, "naive NaN", want, naive.Matches)
		for _, e := range []Engine{Tiled{}, NormPruned{}} {
			got := mustJoin(t, e, fp, fq, 1, 1, Opts{Unsigned: unsigned})
			sameMatches(t, e.Name()+" NaN threshold", want, got.Matches)
			top := mustJoin(t, e, fp, fq, 1, 1, Opts{Unsigned: unsigned, TopK: 1})
			sameMatches(t, e.Name()+" NaN topk", want, top.Matches)
		}
	}
}

// TestNormPrunedPrebuiltView checks the Sorted fast path: a prebuilt
// view gives identical results, and a view of the wrong store shape is
// rejected instead of silently mis-answering.
func TestNormPrunedPrebuiltView(t *testing.T) {
	rng := xrand.New(23)
	P, Q := gridWorkload(rng, 300, 40, 8)
	fp, _ := flat.FromVectors(P)
	fq, _ := flat.FromVectors(Q)
	want := mustJoin(t, NormPruned{}, fp, fq, 0.5, 0.5, Opts{})
	got := mustJoin(t, NormPruned{Sorted: flat.NewNormSorted(fp)}, fp, fq, 0.5, 0.5, Opts{})
	sameMatches(t, "prebuilt view", want.Matches, got.Matches)
	other, _ := flat.FromVectors(P[:100])
	if _, err := (NormPruned{Sorted: flat.NewNormSorted(other)}).Join(fp, fq, 0.5, 0.5, Opts{}); err == nil {
		t.Fatal("mismatched prebuilt view must fail")
	}
}

// oracleTile is TopKTile spelled out: each query of rows [qlo, qhi) has
// its candidates listed by ix.AppendHashed from keys, and offered to an
// Acc of k one by one — the rows dead marks skipped — at the store's dot,
// absolute when unsigned.
func oracleTile(t *testing.T, ix *lsh.Index, keys *lsh.QueryKeys, P, Q *flat.Store, qlo, qhi, k int, dead *flat.Tombstones, unsigned bool) [][]flat.Hit {
	t.Helper()
	out := make([][]flat.Hit, 0, qhi-qlo)
	for qi := qlo; qi < qhi; qi++ {
		cands, err := ix.AppendHashed(nil, keys, qi)
		if err != nil {
			t.Fatal(err)
		}
		acc := flat.NewAcc(k)
		for _, pi := range cands {
			if dead.Dead(pi) {
				continue
			}
			v := P.Dot(pi, Q.Row(qi))
			if unsigned {
				v = math.Abs(v)
			}
			acc.Offer(pi, v)
		}
		out = append(out, slices.Clone(acc.Hits()))
	}
	return out
}

// topKTile runs TopKTile over rows [qlo, qhi) into fresh accumulators of
// k and returns their hits.
func topKTile(e LSH, P, Q *flat.Store, qlo, qhi, k int, dead *flat.Tombstones, unsigned bool, st *flat.ScanStats) ([][]flat.Hit, error) {
	accs := make([]flat.Acc, qhi-qlo)
	hits := make([][]flat.Hit, len(accs))
	for i := range accs {
		accs[i].Reset(k)
	}
	err := e.TopKTile(context.Background(), P, Q, qlo, qhi, accs, dead, unsigned, st)
	for i := range accs {
		hits[i] = accs[i].Hits()
	}
	return hits, err
}

// sameHits asserts two tiles' hits are identical: indices, order and
// score bits.
func sameHits(t *testing.T, label string, want, got [][]flat.Hit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d queries, want %d", label, len(got), len(want))
	}
	for j := range want {
		if len(want[j]) != len(got[j]) {
			t.Fatalf("%s: query %d holds %d hits, want %d", label, j, len(got[j]), len(want[j]))
		}
		for i, w := range want[j] {
			if g := got[j][i]; g.Index != w.Index || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Fatalf("%s: query %d hit %d = %+v, want %+v", label, j, i, g, w)
			}
		}
	}
}

// TestPrebuiltCandidateStructures: TopKTile over a banding index the
// caller built over every row of P — sampled as the LSH engine samples
// its own — reports, tile for tile and cut at cs, the pairs LSH.Join
// reports, and verifies as many candidates as the join counts compared.
func TestPrebuiltCandidateStructures(t *testing.T) {
	rng := xrand.New(37)
	P, Q := gridWorkload(rng, 300, 70, 8)
	fp, _ := flat.FromVectors(P)
	fq, _ := flat.FromVectors(Q)
	fam, _ := lsh.NewHyperplane(8)
	build := LSH{NewFamily: func(int) (lsh.Family, error) { return fam, nil }, K: 4, L: 8, Seed: 2}
	ix, _ := lsh.NewIndex(fam, 4, 8, 2)
	ix.InsertAll(fp.Rows())
	const cs = 0.4
	for _, opts := range []Opts{{}, {Unsigned: true, TopK: 3}} {
		want := mustJoin(t, build, fp, fq, 0.5, cs, opts)
		var got []Match
		var st flat.ScanStats
		for qlo := 0; qlo < fq.Len(); qlo += tileQRows {
			qhi := min(qlo+tileQRows, fq.Len())
			hits, err := topKTile(LSH{Index: ix}, fp, fq, qlo, qhi, max(opts.TopK, 1), nil, opts.Unsigned, &st)
			if err != nil {
				t.Fatal(err)
			}
			for j, hs := range hits {
				for _, h := range hs {
					if h.Score < cs {
						break
					}
					got = append(got, Match{QIdx: qlo + j, PIdx: h.Index, Value: h.Score})
				}
			}
		}
		sameMatches(t, "prebuilt index", want.Matches, got)
		if int64(st.Candidates) != want.Compared || len(want.Matches) == 0 {
			t.Fatalf("TopKTile verified %d candidates, the join compared %d pairs (%d matches)", st.Candidates, want.Compared, len(want.Matches))
		}
	}
}

// TestTopKTileIsTheJoinsLoop: the tile entry a served alsh batch search
// uses gives, query for query, the hits of the oracle that offers each
// candidate the index lists to an accumulator, the rows of the dead set
// skipped — a set that changes the answer, so a tile that offered a dead
// row would fail. And the loop TopKTile and the joins share, cancelled
// between two queries of a tile — by the candidate source of the fourth
// — returns the context's error with the later queries' accumulators
// untouched, and refuses an expired context before asking the source for
// anything.
func TestTopKTileIsTheJoinsLoop(t *testing.T) {
	rng := xrand.New(41)
	P, Q := gridWorkload(rng, 500, 40, 8)
	fp, _ := flat.FromVectors(P)
	fq, _ := flat.FromVectors(Q)
	fam, _ := lsh.NewHyperplane(8)
	ix, _ := lsh.NewIndex(fam, 4, 8, 2)
	ix.InsertAll(fp.Rows())
	e := LSH{Index: ix}
	dead := flat.NewTombstones(len(P)) // a quarter of the rows
	for i := range P {
		if rng.Bernoulli(0.25) {
			dead.Kill(i)
		}
	}
	const k, qlo, qhi = 3, 5, 37
	for _, unsigned := range []bool{false, true} {
		var keys lsh.QueryKeys
		ix.HashQueries(&keys, fq, qlo, qhi, lsh.Probe{Neg: unsigned})
		want := oracleTile(t, ix, &keys, fp, fq, qlo, qhi, k, dead, unsigned)
		var st flat.ScanStats
		got, err := topKTile(e, fp, fq, qlo, qhi, k, dead, unsigned, &st)
		if err != nil {
			t.Fatal(err)
		}
		sameHits(t, fmt.Sprintf("TopKTile unsigned=%v", unsigned), want, got)
		held := 0
		for _, hs := range got {
			held += len(hs)
		}
		if st.Candidates < held {
			t.Fatalf("TopKTile counts %d candidates verified for %d hits", st.Candidates, held)
		}
		if held < qhi-qlo {
			t.Fatalf("only %d hits over %d queries; the test compares next to nothing", held, qhi-qlo)
		}
		if alive := oracleTile(t, ix, &keys, fp, fq, qlo, qhi, k, nil, unsigned); slices.EqualFunc(alive, want, slices.Equal) {
			t.Fatal("the dead set changes no answer; a tile offering dead rows would pass")
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	asked := 0
	source := func(*probeScratch, int, int) func([]int, int) ([]int, error) {
		return func(dst []int, qi int) ([]int, error) {
			if asked++; qi == qlo+3 {
				cancel()
			}
			return append(dst, qi), nil
		}
	}
	accs := make([]flat.Acc, qhi-qlo)
	for i := range accs {
		accs[i].Reset(k)
	}
	var st flat.ScanStats
	err := verifyTile(ctx, fp, fq, qlo, qhi, accs, nil, false, 0, source, &st)
	if !errors.Is(err, context.Canceled) || asked != 4 || st.Candidates != 4 {
		t.Fatalf("cancelled at the fourth query: err %v after %d queries, %d rows verified", err, asked, st.Candidates)
	}
	for i := range accs {
		if held := len(accs[i].Hits()) == 1; held != (i < 4) || len(accs[i].Hits()) > 1 {
			t.Fatalf("query %d of the cancelled tile holds %d hits", i, len(accs[i].Hits()))
		}
	}
	if err := verifyTile(ctx, fp, fq, qlo, qhi, accs, nil, false, 0, source, &st); !errors.Is(err, context.Canceled) || asked != 4 {
		t.Fatalf("expired tile: err %v, source asked %d times in all", err, asked)
	}
}

// TestLSHJoinTakesHashedKeys: TopKTile handed the Q operand's keys,
// hashed once under the hash functions its index shares with a sibling
// over other rows, answers exactly as the oracle over those keys and as
// a TopKTile that hashes each tile itself — on either index, over more
// than one tile, tiles run in parallel — and keys of a twin index,
// sampled alike, fail the tile.
func TestLSHJoinTakesHashedKeys(t *testing.T) {
	rng := xrand.New(43)
	P, Q := gridWorkload(rng, 500, tileQRows+9, 8)
	fq, _ := flat.FromVectors(Q)
	fam, _ := lsh.NewHyperplane(8)
	base, _ := lsh.NewIndex(fam, 4, 8, 2)
	var stores []*flat.Store
	var parts []*lsh.Index
	for _, rows := range [][]vec.Vector{P[:300], P[300:]} {
		fs, _ := flat.FromVectors(rows)
		stores, parts = append(stores, fs), append(parts, base.Extend(rows))
	}
	const k = 3
	tiles := (fq.Len() + tileQRows - 1) / tileQRows
	for _, unsigned := range []bool{false, true} {
		var keys lsh.QueryKeys
		parts[1].HashQueries(&keys, fq, 0, fq.Len(), lsh.Probe{Neg: unsigned})
		for i, ix := range parts {
			want := oracleTile(t, ix, &keys, stores[i], fq, 0, fq.Len(), k, nil, unsigned)
			for _, e := range []LSH{{Index: ix}, {Index: ix, Keys: &keys}} {
				got := make([][]flat.Hit, fq.Len())
				errs := make([]error, tiles)
				newChanRunner(2).ForEach(tiles, func(tl int) {
					qlo, qhi := tl*tileQRows, min((tl+1)*tileQRows, fq.Len())
					var hits [][]flat.Hit
					hits, errs[tl] = topKTile(e, stores[i], fq, qlo, qhi, k, nil, unsigned, &flat.ScanStats{})
					copy(got[qlo:], hits)
				})
				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
				sameHits(t, fmt.Sprintf("part %d unsigned=%v keys=%v", i, unsigned, e.Keys != nil), want, got)
			}
			if slices.EqualFunc(want, make([][]flat.Hit, len(want)), slices.Equal) {
				t.Fatalf("part %d: no hits; the test compares nothing", i)
			}
		}
		twin, _ := lsh.NewIndex(fam, 4, 8, 2)
		twin = twin.Extend(P[:300])
		if _, err := topKTile(LSH{Index: twin, Keys: &keys}, stores[0], fq, 0, tileQRows, k, nil, unsigned, &flat.ScanStats{}); err == nil {
			t.Fatal("a tile probed a twin index with keys hashed by another's functions")
		}
	}
}

// TestEngineValidation covers the shared operand checks.
func TestEngineValidation(t *testing.T) {
	fp, _ := flat.FromVectors([]vec.Vector{{1, 0}})
	fq, _ := flat.FromVectors([]vec.Vector{{1, 0, 0}})
	if _, err := (Tiled{}).Join(fp, fq, 0.5, 0.5, Opts{}); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
	if _, err := (Tiled{}).Join(nil, fp, 0.5, 0.5, Opts{}); err == nil {
		t.Fatal("nil store must fail")
	}
	if _, err := (Tiled{}).Join(fp, fp, 0.5, 0.5, Opts{TopK: -1}); err == nil {
		t.Fatal("negative topk must fail")
	}
	if _, err := (Tiled{}).Join(fp, fp, -1, 0.5, Opts{}); err == nil {
		t.Fatal("negative s must fail")
	}
	if _, err := (Tiled{}).Join(fp, fp, 0.5, 0.9, Opts{}); err == nil {
		t.Fatal("cs > s must fail")
	}
	if _, err := (LSH{}).Join(fp, fp, 0.5, 0.5, Opts{}); err == nil {
		t.Fatal("an LSH engine without NewFamily must fail")
	}
	empty, _ := flat.New(2)
	if res, err := (Tiled{}).Join(empty, fp, 0.5, 0.5, Opts{}); err != nil || len(res.Matches) != 0 {
		t.Fatalf("empty P: res=%+v err=%v", res, err)
	}
}

// TestResultOrderingContract is the regression test pinning Result's
// documented ordering: pairs are (p, q) with PIdx the data side;
// matches are emitted by ascending QIdx (strictly, in threshold mode),
// and within one query top-k pairs descend by value with ties toward
// the smaller PIdx.
func TestResultOrderingContract(t *testing.T) {
	rng := xrand.New(17)
	P, Q := gridWorkload(rng, 120, 40, 8)
	fp, _ := flat.FromVectors(P)
	fq, _ := flat.FromVectors(Q)

	thr := mustJoin(t, Tiled{}, fp, fq, 0.2, 0.2, Opts{})
	for i := 1; i < len(thr.Matches); i++ {
		if thr.Matches[i].QIdx <= thr.Matches[i-1].QIdx {
			t.Fatalf("threshold mode QIdx not strictly increasing at %d: %+v", i, thr.Matches)
		}
	}
	// The reported pair is (p, q): PIdx must index P, QIdx must index Q
	// (P≠Q sizes make mixing the two up a range violation).
	for _, m := range thr.Matches {
		if m.PIdx < 0 || m.PIdx >= len(P) || m.QIdx < 0 || m.QIdx >= len(Q) {
			t.Fatalf("match %+v out of (p-index, q-index) range |P|=%d |Q|=%d", m, len(P), len(Q))
		}
	}

	topk := mustJoin(t, Tiled{}, fp, fq, 0.2, 0.2, Opts{TopK: 4})
	for i := 1; i < len(topk.Matches); i++ {
		a, b := topk.Matches[i-1], topk.Matches[i]
		switch {
		case b.QIdx < a.QIdx:
			t.Fatalf("topk QIdx decreased at %d", i)
		case b.QIdx == a.QIdx && b.Value > a.Value:
			t.Fatalf("topk value increased within query at %d", i)
		case b.QIdx == a.QIdx && b.Value == a.Value && b.PIdx < a.PIdx:
			t.Fatalf("topk tie not broken toward smaller PIdx at %d", i)
		}
	}

	got := thr.MatchedQueries()
	if len(got) != len(thr.Matches) {
		t.Fatalf("MatchedQueries size %d, want %d", len(got), len(thr.Matches))
	}
	for _, m := range thr.Matches {
		if !got[m.QIdx] {
			t.Fatalf("MatchedQueries missing query %d", m.QIdx)
		}
	}
}

// TestRecallPrecisionDefinedOnEmpty pins the defined-value contract:
// an empty exact result (or one certifying no query) yields recall 1.0,
// never the 0/0 NaN.
func TestRecallPrecisionDefinedOnEmpty(t *testing.T) {
	approx := Result{Matches: []Match{{QIdx: 0, PIdx: 1, Value: 0.7}}}
	if r := Recall(Result{}, approx, 0.9); r != 1 || math.IsNaN(r) {
		t.Fatalf("Recall(empty exact) = %v, want 1.0", r)
	}
	// Exact matches exist but none certify the promise threshold.
	weak := Result{Matches: []Match{{QIdx: 0, PIdx: 2, Value: 0.5}}}
	if r := Recall(weak, approx, 0.9); r != 1 || math.IsNaN(r) {
		t.Fatalf("Recall(no promised queries) = %v, want 1.0", r)
	}
}
