package flat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// The scan grid: every way of calling View.Scan and View.ScanMulti —
// kernel × row order × tombstone shape × workers × signed/unsigned ×
// context × store size — checked against references that share nothing
// with the drivers: the tier's own DotRange scores ranked by a full
// sort (topKFromScores), and for f64 the scalar-kernel accumulator scan
// (naiveTopKMasked) and the over-fetch-then-filter strawman
// (scoreThenFilter). The tests below each run one slice of it.

// gridNs are the store sizes: the edges of a row block (256), a storage
// chunk (1024) and the per-worker minimum (4096), and one size that
// actually splits across workers.
var gridNs = []int{1, 255, 256, 257, 1023, 1024, 1025, 4097, 9000}

// gridDims cycles over the row counts: the dimensions with their own
// kernels (16, 8), one below every SIMD chunk (7, all Go), and two the
// any-dimension quantized kernels serve — whole chunks (32) and a
// padded int8 tail (40).
var gridDims = []int{16, 7, 8, 32, 40}

var gridDead = []string{"nil", "empty", "random25", "block", "all"}

type gridCtx int

const (
	ctxBackground gridCtx = iota // can never be cancelled: no poll at all
	ctxLive                      // cancellable, never cancelled
	ctxCancelled                 // cancelled before the scan starts
	ctxMidScan                   // cancelled once the first block is scored
)

var allCtx = []gridCtx{ctxBackground, ctxLive, ctxCancelled, ctxMidScan}

// gridView names one kernel × order combination and builds it over an
// f64 store, together with the tier's store-order scores — the
// reference's input, straight from the exported kernel entry point.
type gridView struct {
	name  string
	build func(fs *Store) (View, func(q vec.Vector, out []float64) error)
}

var gridViews = []gridView{
	{"f64/row", func(fs *Store) (View, func(vec.Vector, []float64) error) {
		return fs.View(), fs.DotBatch
	}},
	{"f64/sorted", func(fs *Store) (View, func(vec.Vector, []float64) error) {
		return NewNormSorted(fs).View, fs.DotBatch
	}},
	{"f32/row", func(fs *Store) (View, func(vec.Vector, []float64) error) {
		s := NewStore32(fs)
		return s.View(), func(q vec.Vector, out []float64) error { return s.DotRange(q, 0, s.Len(), out) }
	}},
	{"f32/sorted", func(fs *Store) (View, func(vec.Vector, []float64) error) {
		s := NewStore32(fs)
		return s.NormSorted(), func(q vec.Vector, out []float64) error { return s.DotRange(q, 0, s.Len(), out) }
	}},
	{"int8/row", func(fs *Store) (View, func(vec.Vector, []float64) error) {
		s := NewStoreI8(fs)
		return s.View(), func(q vec.Vector, out []float64) error { return s.DotRange(q, 0, s.Len(), out) }
	}},
}

// viewsOf selects grid views by name prefix ("f64", "f32/row", ...).
func viewsOf(prefixes ...string) []gridView {
	var out []gridView
	for _, gv := range gridViews {
		for _, p := range prefixes {
			if len(gv.name) >= len(p) && gv.name[:len(p)] == p {
				out = append(out, gv)
			}
		}
	}
	return out
}

// gridRows builds n rows of dimension d with steeply falling norms (so
// the norm-sorted views prune) and, when there is room, the adversarial
// rows: exact duplicates, zero rows and a sign-flipped copy, forcing
// ties that only the canonical (score, index) ordering resolves.
func gridRows(rng *xrand.RNG, n, d int) []vec.Vector {
	vs := randomVecs(rng, n, d)
	for i, v := range vs {
		vec.Scale(v, 1/float64(1+i%97))
	}
	if n >= 8 {
		dup := vs[rng.Intn(n)]
		vs[n-1], vs[n/2] = dup.Clone(), dup.Clone()
		vs[n-2], vs[1] = vec.New(d), vec.New(d)
		vs[n/3] = vec.Neg(dup)
	}
	return vs
}

// gridQueries are the queries of one cell: random ones, a copy of a data
// row (maximal ties), the zero query (every score ties at 0) and a NaN
// query (every score NaN: the accumulator must reject everything).
func gridQueries(rng *xrand.RNG, vs []vec.Vector, nq, d int) []vec.Vector {
	qs := randomVecs(rng, nq-3, d)
	nan := vec.New(d)
	nan[rng.Intn(d)] = math.NaN()
	return append(qs, vs[rng.Intn(len(vs))].Clone(), vec.New(d), nan)
}

// gridTombstones builds one tombstone shape over the n physical rows of
// a view, and the same set in store order (what the references read).
func gridTombstones(shape string, n int, perm []int, rng *xrand.RNG) (phys, orig *Tombstones) {
	if shape == "nil" {
		return nil, nil
	}
	phys = NewTombstones(n)
	switch shape {
	case "random25":
		phys, _ = killRandom(rng, n, 0.25)
	case "block": // the block before the last: whole, and past the first worker's rows
		lo := max(0, (n-1)/blockRows-1) * blockRows
		for i := lo; i < min(lo+blockRows, n); i++ {
			phys.Kill(i)
		}
	case "all":
		for i := 0; i < n; i++ {
			phys.Kill(i)
		}
	}
	if perm == nil {
		return phys, phys
	}
	orig = NewTombstones(n)
	for i, p := range perm {
		if phys.Dead(i) {
			orig.Kill(p)
		}
	}
	return phys, orig
}

// refTopK ranks the live, non-NaN store-order scores by a full sort.
func refTopK(scores []float64, dead *Tombstones, k int, unsigned bool) []Hit {
	live := make([]float64, 0, len(scores))
	idx := make([]int, 0, len(scores))
	for i, v := range scores {
		if !dead.Dead(i) && !math.IsNaN(v) {
			live = append(live, v)
			idx = append(idx, i)
		}
	}
	hits := topKFromScores(live, k, unsigned)
	for i := range hits {
		hits[i].Index = idx[hits[i].Index]
	}
	return hits
}

// refRowStats is what a store-order scan must count: blocks are scored
// unless every row in them is dead, and nothing is pruned.
func refRowStats(n int, dead *Tombstones) ScanStats {
	var st ScanStats
	for lo := 0; lo < n; lo += blockRows {
		hi := min(lo+blockRows, n)
		alive := false
		for i := lo; i < hi; i++ {
			alive = alive || !dead.Dead(i)
		}
		if alive {
			st.ScannedRows += hi - lo
		} else {
			st.SkippedBlocks++
		}
	}
	return st
}

func blocksOf(rows int) int { return (rows + blockRows - 1) / blockRows }

// cancelProbe is the mid-scan cancellation probe: the tier wrappers
// below score like the tier they wrap, count the blocks scored, and
// cancel the scan's context as soon as the first block has been — so a
// driver that polls once per block must stop right there. The lock makes
// that exact under parallel scans: no block starts while the cancel is
// in progress, so past the first block each worker scores at most the
// one block it had already polled for.
type cancelProbe struct {
	mu     sync.Mutex
	scored int // blocks scored so far
	last   int // first row of the block scored last
	cancel context.CancelFunc
}

// begin waits out a cancel in progress (the lock is only a barrier).
func (p *cancelProbe) begin() {
	p.mu.Lock()
	p.mu.Unlock()
}

// tick counts a kernel call on the block starting at row lo — once per
// block, however many tile calls the block takes.
func (p *cancelProbe) tick(lo int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if lo != p.last {
		p.last = lo
		if p.scored++; p.scored == 1 {
			p.cancel()
		}
	}
}

type cancelTier struct {
	tier
	p *cancelProbe
}

func (c cancelTier) scoreBlock(bq *query, lo, hi int, out []float64) {
	c.p.begin()
	c.tier.scoreBlock(bq, lo, hi, out)
	c.p.tick(lo)
}

func (c cancelTier) bound(bq *query) float64 { return c.tier.(normBounded).bound(bq) }

// cancelTileTier is cancelTier over a tier with a tile kernel.
type cancelTileTier struct{ cancelTier }

func (c cancelTileTier) scoreTile(qs *Store, qlo, qhi, lo, hi int, out []float64) {
	c.p.begin()
	c.tier.(tiler).scoreTile(qs, qlo, qhi, lo, hi, out)
	c.p.tick(lo)
}

// withCtx returns the view and context one grid context calls for, plus
// the probe counting the blocks scored (mid-scan only; read it once the
// scan has returned).
func withCtx(v View, gc gridCtx) (View, context.Context, context.CancelFunc, *cancelProbe) {
	switch gc {
	case ctxBackground:
		return v, context.Background(), func() {}, nil
	case ctxLive:
		ctx, cancel := context.WithCancel(context.Background())
		return v, ctx, cancel, nil
	case ctxCancelled:
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return v, ctx, cancel, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	ct := cancelTier{tier: v.t, p: &cancelProbe{last: -1, cancel: cancel}}
	if _, ok := v.t.(tiler); ok {
		v.t = cancelTileTier{ct}
	} else {
		v.t = ct
	}
	return v, ctx, cancel, ct.p
}

// runScanGrid checks every Scan cell of the selected views and contexts.
func runScanGrid(t *testing.T, views []gridView, ctxs []gridCtx) {
	for ni, n := range gridNs {
		d := gridDims[ni%len(gridDims)]
		rng := xrand.New(uint64(1000 + n))
		vs := gridRows(rng, n, d)
		fs, err := FromVectors(vs)
		if err != nil {
			t.Fatal(err)
		}
		queries := gridQueries(rng, vs, 5, d)
		for _, gv := range views {
			v, scoresOf := gv.build(fs)
			f64 := strings.HasPrefix(gv.name, "f64")
			for _, shape := range gridDead {
				phys, orig := gridTombstones(shape, n, v.Perm(), rng.Split(7))
				rowStats := refRowStats(n, phys)
				for qi, q := range queries {
					scores := make([]float64, n)
					if err := scoresOf(q, scores); err != nil {
						t.Fatal(err)
					}
					k := []int{10, 1, 300}[qi%3]
					for _, unsigned := range []bool{false, true} {
						cell := fmt.Sprintf("%s n=%d d=%d dead=%s q=%d k=%d unsigned=%v", gv.name, n, d, shape, qi, k, unsigned)
						want := refTopK(scores, orig, k, unsigned)
						if f64 {
							if naive := naiveTopKMasked(fs, q, k, unsigned, orig); !hitsEqual(naive, want) {
								t.Fatalf("%s: references disagree: %v vs %v", cell, naive, want)
							}
							if !unsigned && qi < 2 && orig.Count() < n {
								if stf := scoreThenFilter(fs, q, k, orig); !hitsEqual(stf, want) {
									t.Fatalf("%s: score-then-filter %v, want %v", cell, stf, want)
								}
							}
						}
						for _, workers := range []int{1, 4} {
							for _, gc := range ctxs {
								checkScanCell(t, fmt.Sprintf("%s workers=%d ctx=%d", cell, workers, gc),
									v, q, ScanOpts{K: k, Unsigned: unsigned, Workers: workers, Dead: phys}, gc, want, rowStats)
							}
						}
					}
				}
			}
		}
	}
}

// checkScanCell runs one Scan and checks hits, error and stats.
func checkScanCell(t *testing.T, cell string, v View, q vec.Vector, o ScanOpts, gc gridCtx, want []Hit, rowStats ScanStats) {
	t.Helper()
	n := v.Len()
	var st ScanStats
	o.Stats = &st
	cv, ctx, cancel, probe := withCtx(v, gc)
	defer cancel()
	got, err := cv.Scan(ctx, q, o)

	// How many blocks an uncancelled run scores: the cancellation cells
	// need it to know whether the scan had to notice.
	full := rowStats
	if v.Perm() != nil && gc >= ctxCancelled {
		o.Stats = &full
		if _, err := v.Scan(context.Background(), q, o); err != nil {
			t.Fatalf("%s: uncancelled twin: %v", cell, err)
		}
	}
	inflight := max(1, min(o.Workers, v.MaxScanWorkers()))
	switch {
	case gc == ctxCancelled && n > 0:
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("%s: cancelled scan returned hits=%v err=%v", cell, got, err)
		}
		return
	case gc == ctxMidScan && err != nil:
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("%s: mid-scan cancel returned hits=%v err=%v", cell, got, err)
		}
		// Every worker stops at its next block boundary.
		if probe.scored > inflight {
			t.Fatalf("%s: %d blocks scored, cancelled after the first (%d workers)", cell, probe.scored, inflight)
		}
		return
	case gc == ctxMidScan && blocksOf(full.ScannedRows) > inflight:
		t.Fatalf("%s: scan of %d blocks ran to completion, cancelled after the first", cell, blocksOf(full.ScannedRows))
	}
	if err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	if !hitsEqual(got, want) {
		t.Fatalf("%s: hits %v, want %v", cell, got, want)
	}
	if v.Perm() == nil {
		if st != rowStats {
			t.Fatalf("%s: stats %+v, want %+v", cell, st, rowStats)
		}
		return
	}
	// Norm-sorted: every block is scored, pruned or skipped, and the
	// bound only ever removes work.
	if b := blocksOf(st.ScannedRows) + st.PrunedBlocks + st.SkippedBlocks; b != blocksOf(n) {
		t.Fatalf("%s: stats %+v cover %d blocks of %d", cell, st, b, blocksOf(n))
	}
	if st.ScannedRows > rowStats.ScannedRows {
		t.Fatalf("%s: norm-sorted scan scored %d rows, store-order scan %d", cell, st.ScannedRows, rowStats.ScannedRows)
	}
}

// runScanMultiGrid checks ScanMulti against Scan per query: hits,
// per-query scanned counts and the summed stats.
func runScanMultiGrid(t *testing.T, views []gridView, ctxs []gridCtx) {
	for ni, n := range gridNs {
		d := gridDims[ni%len(gridDims)]
		rng := xrand.New(uint64(2000 + n))
		vs := gridRows(rng, n, d)
		fs, err := FromVectors(vs)
		if err != nil {
			t.Fatal(err)
		}
		queries := gridQueries(rng, vs, 11, d) // a full tile and a ragged one
		qs, err := FromVectors(queries)
		if err != nil {
			t.Fatal(err)
		}
		for _, gv := range views {
			v, _ := gv.build(fs)
			for _, shape := range gridDead {
				phys, _ := gridTombstones(shape, n, v.Perm(), rng.Split(7))
				for _, unsigned := range []bool{false, true} {
					k := 1 + (n+len(shape))%12
					o := ScanOpts{K: k, Unsigned: unsigned, Dead: phys}
					want := make([][]Hit, len(queries))
					wantScanned := make([]int, len(queries))
					var wantStats ScanStats
					for j, q := range queries {
						var st ScanStats
						o.Stats = &st
						if want[j], err = v.Scan(context.Background(), q, o); err != nil {
							t.Fatal(err)
						}
						wantScanned[j] = st.ScannedRows
						wantStats.Add(st)
					}
					for _, gc := range ctxs {
						cell := fmt.Sprintf("%s n=%d d=%d dead=%s k=%d unsigned=%v ctx=%d", gv.name, n, d, shape, k, unsigned, gc)
						cv, ctx, cancel, probe := withCtx(v, gc)
						sc := GetTileScratch()
						accs := sc.Accs(len(queries), k)
						var st ScanStats
						o.Stats = &st
						err := cv.ScanMulti(ctx, qs, 0, len(queries), accs, sc, o)
						cancel()
						switch {
						case gc == ctxCancelled && n > 0:
							if !errors.Is(err, context.Canceled) {
								t.Fatalf("%s: cancelled sweep returned %v", cell, err)
							}
						case gc == ctxMidScan && err != nil:
							if !errors.Is(err, context.Canceled) || probe.scored != 1 {
								t.Fatalf("%s: mid-sweep cancel: err=%v after %d blocks", cell, err, probe.scored)
							}
						case gc == ctxMidScan && probe.scored > 1:
							t.Fatalf("%s: sweep scored %d blocks, cancelled after the first", cell, probe.scored)
						case err != nil:
							t.Fatalf("%s: %v", cell, err)
						default:
							for j := range queries {
								if !hitsEqual(accs[j].Hits(), want[j]) {
									t.Fatalf("%s query %d: multi %v, single %v", cell, j, accs[j].Hits(), want[j])
								}
								if sc.Scanned()[j] != wantScanned[j] {
									t.Fatalf("%s query %d: multi scanned %d rows, single %d", cell, j, sc.Scanned()[j], wantScanned[j])
								}
							}
							if st != wantStats {
								t.Fatalf("%s: multi stats %+v, summed single stats %+v", cell, st, wantStats)
							}
						}
						PutTileScratch(sc)
					}
				}
			}
		}
	}
}

// TestTopKMaskedMatchesReference is the f64 slice of the grid on the
// never-cancellable context: store order and norm-sorted, every
// tombstone shape, serial and parallel, against all three references.
func TestTopKMaskedMatchesReference(t *testing.T) {
	runScanGrid(t, viewsOf("f64"), []gridCtx{ctxBackground})
}

// TestStore32TopKMatchesReference is the f32 store-order slice, under
// both settings of the asm dispatch gate.
func TestStore32TopKMatchesReference(t *testing.T) {
	withQuantAsm(t, func(t *testing.T, _ bool) {
		runScanGrid(t, viewsOf("f32/row"), []gridCtx{ctxBackground})
	})
}

// TestNormSorted32MatchesFlat is the f32 norm-sorted slice: the inflated
// Cauchy–Schwarz bound never prunes a row the f32 scores rank in.
func TestNormSorted32MatchesFlat(t *testing.T) {
	runScanGrid(t, viewsOf("f32/sorted"), []gridCtx{ctxBackground})
}

// TestStoreI8TopKMatchesReference is the int8 slice, asm gate both ways.
func TestStoreI8TopKMatchesReference(t *testing.T) {
	withQuantAsm(t, func(t *testing.T, _ bool) {
		runScanGrid(t, viewsOf("int8"), []gridCtx{ctxBackground})
	})
}

// TestTopKCtxIdentical: a cancellable context that never fires turns
// the per-block poll on and must change nothing.
func TestTopKCtxIdentical(t *testing.T) {
	runScanGrid(t, viewsOf("f64"), []gridCtx{ctxLive})
}

// TestTopKCtxCancelled: an already cancelled context yields its error
// and no hits — partial accumulations are never returned.
func TestTopKCtxCancelled(t *testing.T) {
	runScanGrid(t, viewsOf("f64"), []gridCtx{ctxCancelled})
}

// TestTopKCtxMidScan: a context cancelled while a block is being scored
// stops the scan at the next block boundary.
func TestTopKCtxMidScan(t *testing.T) {
	runScanGrid(t, viewsOf("f64"), []gridCtx{ctxMidScan})
}

// TestQuantTopKCtx is the three cancellation slices for the quantized
// tiers.
func TestQuantTopKCtx(t *testing.T) {
	runScanGrid(t, viewsOf("f32", "int8"), []gridCtx{ctxLive, ctxCancelled, ctxMidScan})
}

// TestTopKMultiMaskedMatchesSingle is the ScanMulti grid: all views,
// all contexts, under both tile-kernel dispatches.
func TestTopKMultiMaskedMatchesSingle(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		runScanMultiGrid(t, gridViews, allCtx)
	})
}

// TestTopKMaskedZeroDeadDelegates pins the validation the grid cannot:
// a tombstone set of the wrong length is an error, on either driver.
func TestTopKMaskedZeroDeadDelegates(t *testing.T) {
	rng := xrand.New(5)
	s, _ := FromVectors(randomVecs(rng, 400, 8))
	q := vec.Vector(rng.NormalVec(8))
	if _, err := s.TopKMasked(q, 5, false, 1, NewTombstones(3)); err == nil {
		t.Fatal("Scan accepted a mismatched tombstone length")
	}
	sc := GetTileScratch()
	defer PutTileScratch(sc)
	err := s.View().ScanMulti(context.Background(), s, 0, 2, sc.Accs(2, 5), sc, ScanOpts{Dead: NewTombstones(3)})
	if err == nil {
		t.Fatal("ScanMulti accepted a mismatched tombstone length")
	}
}

// TestNormSortedStatsMatchScan checks, on rows whose norms fall off
// steeply, that the bound really prunes and that TopK's scanned count is
// the driver's.
func TestNormSortedStatsMatchScan(t *testing.T) {
	const n, d, k = 4096, 16, 8
	rng := xrand.New(7)
	fs, err := FromVectors(gridRows(rng, n, d))
	if err != nil {
		t.Fatal(err)
	}
	q := vec.Vector(rng.NormalVec(d))
	for _, v := range []View{NewNormSorted(fs).View, NewStore32(fs).NormSorted()} {
		var st ScanStats
		if _, err := v.Scan(context.Background(), q, ScanOpts{K: k, Stats: &st}); err != nil {
			t.Fatal(err)
		}
		if st.PrunedBlocks == 0 || st.ScannedRows >= n {
			t.Fatalf("norm spread should prune: %+v", st)
		}
	}
	_, scanned, err := NewNormSorted(fs).TopK(q, k, false)
	var st ScanStats
	if _, err2 := NewNormSorted(fs).Scan(context.Background(), q, ScanOpts{K: k, Stats: &st}); err != nil || err2 != nil || scanned != st.ScannedRows {
		t.Fatalf("TopK scanned %d, Scan %d (%v, %v)", scanned, st.ScannedRows, err, err2)
	}
}

// TestNormSortedMaskedStats: a fully-dead physical block ahead of the
// prune point is skipped, not scored, and still every block is counted
// once.
func TestNormSortedMaskedStats(t *testing.T) {
	const n, d, k = 4096, 16, 8
	rng := xrand.New(13)
	fs, err := FromVectors(gridRows(rng, n, d))
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNormSorted(fs)
	q := vec.Vector(rng.NormalVec(d))
	dead := NewTombstones(n)
	for i := 0; i < blockRows; i++ { // the largest-norm block: always reached
		dead.Kill(i)
	}
	for i := blockRows + 10; i < blockRows+20; i++ {
		dead.Kill(i)
	}
	var st ScanStats
	if _, err := ns.Scan(context.Background(), q, ScanOpts{K: k, Dead: dead, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.SkippedBlocks != 1 || st.PrunedBlocks == 0 {
		t.Fatalf("stats %+v: want the dead leading block skipped and the tail pruned", st)
	}
	if b := blocksOf(st.ScannedRows) + st.PrunedBlocks + st.SkippedBlocks; b != blocksOf(n) {
		t.Fatalf("stats %+v cover %d blocks of %d", st, b, blocksOf(n))
	}
}

// TestScanAllocs holds the single-query f64 scan to the allocations of
// its accumulator: the block buffer and the bound query come from the
// scratch pool, so the shared driver costs the f64 path nothing over the
// hand-written loop it replaced.
func TestScanAllocs(t *testing.T) {
	rng := xrand.New(22)
	const n, d, k = 1500, 16, 10
	s, err := FromVectors(randomVecs(rng, n, d))
	if err != nil {
		t.Fatal(err)
	}
	q := vec.Vector(rng.NormalVec(d))
	accOnly := testing.AllocsPerRun(20, func() {
		a := NewAcc(k)
		for i := 0; i < k; i++ {
			a.Offer(i, float64(i))
		}
	})
	for name, v := range map[string]View{"row": s.View(), "sorted": NewNormSorted(s).View} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := v.Scan(context.Background(), q, ScanOpts{K: k}); err != nil {
				t.Fatal(err)
			}
		})
		if got > accOnly {
			t.Fatalf("%s: Scan allocates %v per run, its accumulator alone %v", name, got, accOnly)
		}
	}
}
