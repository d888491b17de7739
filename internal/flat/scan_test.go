package flat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// The scan grid: every way of calling View.Scan and View.ScanMulti —
// kernel × row order × tombstone shape × signed/unsigned × context ×
// store size — checked against references that share nothing
// with the driver: store-order scores ranked by a full sort
// (topKFromScores) — vec.DotKernel's for f64, the tier's own DotRange
// otherwise — and for f64 the scalar-kernel accumulator scan
// (naiveTopKMasked) and the over-fetch-then-filter strawman
// (scoreThenFilter). Hits are compared down to their score bits
// (hitBitsEqual). The tests below each run one slice of it.

// gridNs are the store sizes: the edges of a row block (256) and a
// storage chunk (1024), and two sizes of several chunks.
var gridNs = []int{1, 255, 256, 257, 1023, 1024, 1025, 4097, 9000}

// gridDims cycles over the row counts: the one dimension with its own
// f64 kernels (16), one below every SIMD chunk (7, all Go), one f32
// chunk (8), and two the any-dimension quantized kernels serve — whole
// chunks (32) and a padded int8 tail (40).
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
// reference's input: vec.DotKernel on each row for f64, the exported
// kernel entry point for the quantized tiers.
type gridView struct {
	name  string
	build func(fs *Store) (View, func(q vec.Vector, out []float64) error)
}

// dotKernelScores scores every row of fs with vec.DotKernel, the chain
// every f64 kernel must reproduce bit for bit.
func dotKernelScores(fs *Store) func(vec.Vector, []float64) error {
	return func(q vec.Vector, out []float64) error {
		for i := range out {
			out[i] = vec.DotKernel(fs.Row(i), q)
		}
		return nil
	}
}

var gridViews = []gridView{
	{"f64/row", func(fs *Store) (View, func(vec.Vector, []float64) error) {
		return fs.View(), dotKernelScores(fs)
	}},
	{"f64/sorted", func(fs *Store) (View, func(vec.Vector, []float64) error) {
		return NewNormSorted(fs).View, dotKernelScores(fs)
	}},
	{"f32/row", func(fs *Store) (View, func(vec.Vector, []float64) error) {
		s := NewStore32(fs)
		return s.View(), func(q vec.Vector, out []float64) error { return s.DotRange(q, 0, s.Len(), out) }
	}},
	// The norm-sorted views as writes leave them: a base run and two runs
	// stacked behind it (the last third of the rows, a chunk at most).
	{"f64/sorted+tail", func(fs *Store) (View, func(vec.Vector, []float64) error) {
		return withTail(fs, func(p *Store) View { return NewNormSorted(p).View }), dotKernelScores(fs)
	}},
	{"int8/row", func(fs *Store) (View, func(vec.Vector, []float64) error) {
		s := NewStoreI8(fs)
		return s.View(), func(q vec.Vector, out []float64) error { return s.DotRange(q, 0, s.Len(), out) }
	}},
}

// prefixOf returns a store of fs's first n rows.
func prefixOf(fs *Store, n int) *Store {
	p := newStore(fs.dim)
	if err := p.AppendAll(fs.Rows()[:n]); err != nil {
		panic(err)
	}
	return p
}

// extendTo stacks the rows of fs up to each of the given lengths onto
// the norm-sorted view v, one after the other, each batch a run of its
// own — sorted afresh (sortRows), its blocks merged into the sweep order
// as Extend merges a run's — whatever the runs' sizes: the stacks Extend
// builds, and the ones its rule never leaves, for the scans to answer
// alike. An empty batch adds no run.
func extendTo(v View, fs *Store, lens ...int) View {
	for _, n := range lens {
		if n == v.Len() {
			continue
		}
		r := sortRows(v.Dim(), v.Len(), fs.Rows()[v.Len():n])
		ext := View{run: v.run, tails: append(slices.Clip(v.tails), r)}
		ext.order = v.mergeOrder(v.Runs(), r)
		v = ext
	}
	return v
}

// withTail sorts a prefix of fs and stacks the rest onto the view in two
// runs, the last third of the rows — a chunk at most — in all.
func withTail(fs *Store, sorted func(*Store) View) View {
	n := fs.Len()
	tail := min(n/3, chunkRows-1)
	return extendTo(sorted(prefixOf(fs, n-tail)), fs, n-tail/2, n)
}

// runsOf returns a view's runs as physical row ranges.
func runsOf(v View) [][2]int {
	out := [][2]int{{0, v.t.Len()}}
	for _, r := range v.tails {
		out = append(out, [2]int{r.off, r.off + r.len()})
	}
	return out
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

// physPerm returns a norm-sorted view's physical→store-order map, every
// run end to end; nil for a store-order view.
func physPerm(v View) []int {
	if !v.Sorted() {
		return nil
	}
	var perm []int
	for _, r := range v.runs() {
		for _, i := range r.ids {
			perm = append(perm, int(i))
		}
	}
	return perm
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
	case "block": // the block before the last, whole
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

// refRowStats is what a scan that never prunes must count over v's
// blocks: they are scored unless every row in them is dead.
func refRowStats(v View, dead *Tombstones) ScanStats {
	var st ScanStats
	for _, r := range runsOf(v) {
		for lo := r[0]; lo < r[1]; lo += blockRows {
			hi := min(lo+blockRows, r[1])
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
	}
	return st
}

func blocksOf(rows int) int { return (rows + blockRows - 1) / blockRows }

// checkSortedStats holds a norm-sorted scan's counts to the contract:
// every block of every run is scored, pruned or skipped; a scored block
// counts the rows up to its cut, at least one and at most all of them;
// and the bound only ever removes work from the never-pruning scan's.
func checkSortedStats(t testing.TB, cell string, v View, st, unpruned ScanStats, queries int) {
	t.Helper()
	blocks := 0
	for _, r := range runsOf(v) {
		blocks += blocksOf(r[1] - r[0])
	}
	scored := queries*blocks - st.PrunedBlocks - st.SkippedBlocks
	if scored < 0 || st.ScannedRows < scored || st.ScannedRows > scored*blockRows {
		t.Fatalf("%s: stats %+v leave %d of %d blocks scored", cell, st, scored, queries*blocks)
	}
	if st.ScannedRows > queries*unpruned.ScannedRows {
		t.Fatalf("%s: norm-sorted scan scored %d rows, a scan without the bound %d", cell, st.ScannedRows, queries*unpruned.ScannedRows)
	}
}

// cancelProbe is the mid-scan cancellation probe: the tier wrapper
// below scores like the tier it wraps, counts the blocks scored, and
// cancels the scan's context as soon as the first block has been — so a
// driver that polls once per block must stop right there.
type cancelProbe struct {
	scored int // blocks scored so far
	last   int // first row of the block scored last
	cancel context.CancelFunc
}

// tick counts a kernel call on the block starting at row lo — once per
// block, however many tile calls the block takes.
func (p *cancelProbe) tick(lo int) {
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

func (c cancelTier) offerTile(b block, qs *Store, qlo int, accs []Acc, ends []int, sc *TileScratch) {
	b.t = c.tier
	c.tier.offerTile(b, qs, qlo, accs, ends, sc)
	c.p.tick(b.start)
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
	v.t = ct
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
				phys, orig := gridTombstones(shape, n, physPerm(v), rng.Split(7))
				rowStats := refRowStats(v, phys)
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
							if naive := naiveTopKMasked(fs, q, k, unsigned, orig); !hitBitsEqual(naive, want) {
								t.Fatalf("%s: references disagree: %v vs %v", cell, naive, want)
							}
							if !unsigned && qi < 2 && orig.Count() < n {
								if stf := scoreThenFilter(fs, q, k, orig); !hitBitsEqual(stf, want) {
									t.Fatalf("%s: score-then-filter %v, want %v", cell, stf, want)
								}
							}
						}
						for _, gc := range ctxs {
							checkScanCell(t, fmt.Sprintf("%s ctx=%d", cell, gc),
								v, q, ScanOpts{K: k, Unsigned: unsigned, Dead: phys}, gc, want, rowStats)
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
	if v.Sorted() && gc >= ctxCancelled {
		o.Stats = &full
		if _, err := v.Scan(context.Background(), q, o); err != nil {
			t.Fatalf("%s: uncancelled twin: %v", cell, err)
		}
	}
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
		// The scan stops at its next block boundary.
		if probe.scored > 1 {
			t.Fatalf("%s: %d blocks scored, cancelled after the first", cell, probe.scored)
		}
		return
	case gc == ctxMidScan && blocksOf(full.ScannedRows) > 1:
		t.Fatalf("%s: scan of %d blocks ran to completion, cancelled after the first", cell, blocksOf(full.ScannedRows))
	}
	if err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	if !hitBitsEqual(got, want) {
		t.Fatalf("%s: hits %v, want %v", cell, got, want)
	}
	if !v.Sorted() {
		if st != rowStats {
			t.Fatalf("%s: stats %+v, want %+v", cell, st, rowStats)
		}
		return
	}
	checkSortedStats(t, cell, v, st, rowStats, 1)
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
				phys, _ := gridTombstones(shape, n, physPerm(v), rng.Split(7))
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
								if !hitBitsEqual(accs[j].Hits(), want[j]) {
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
// tombstone shape, against all three references.
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
	for _, v := range []View{NewNormSorted(fs).View} {
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
	checkSortedStats(t, "dead leading block", ns.View, st, refRowStats(ns.View, dead), 1)
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

// TestScanIsTileOfOne: View.Scan is ScanMulti over a tile of one, and
// both answer as the one-query block loop (refSweep) does. For f64, f32
// and int8 rows in store order, a norm-sorted view of one run and a
// tiered stack after bulk Extends, every grid store size and dead shape,
// signed and unsigned, k ∈ {1, 10, 300}: Scan's hits (by Float64bits)
// and ScanStats equal refSweep's, and ScanMulti's over the same query as
// a tile of one at an offset into the query store; as a member of a
// full tile its hits and scanned rows are the same too, and on int8 its
// certified candidates are the tile of one's.
func TestScanIsTileOfOne(t *testing.T) {
	ctx := context.Background()
	views := []gridView{
		viewsOf("f64/row")[0], viewsOf("f32/row")[0], viewsOf("int8/row")[0], viewsOf("f64/sorted")[0],
		{"f64/tiered", func(fs *Store) (View, func(vec.Vector, []float64) error) {
			n := fs.Len()
			v := SortRows(fs.Rows()[:max(1, 5*n/8)])
			for _, end := range []int{3 * n / 4, 7 * n / 8, n} {
				if end > v.Len() {
					v, _, _ = v.Extend(fs.Rows()[v.Len():end])
				}
			}
			return v, nil
		}},
	}
	for ni, n := range gridNs {
		d := gridDims[ni%len(gridDims)]
		rng := xrand.New(uint64(3000 + n))
		vs := gridRows(rng, n, d)
		fs, err := FromVectors(vs)
		if err != nil {
			t.Fatal(err)
		}
		queries := gridQueries(rng, vs, 5, d)
		qs, err := FromVectors(queries)
		if err != nil {
			t.Fatal(err)
		}
		for _, gv := range views {
			v, _ := gv.build(fs)
			if gv.name == "f64/tiered" && n >= 1024 && v.Runs() != 4 {
				t.Fatalf("n=%d: the bulk Extends left %d runs", n, v.Runs())
			}
			for _, shape := range gridDead {
				phys, _ := gridTombstones(shape, n, physPerm(v), rng.Split(7))
				for _, unsigned := range []bool{false, true} {
					for _, k := range []int{1, 10, 300} {
						cell := fmt.Sprintf("%s n=%d d=%d dead=%s k=%d unsigned=%v", gv.name, n, d, shape, k, unsigned)
						o := ScanOpts{K: k, Unsigned: unsigned, Dead: phys}
						tile := GetTileScratch()
						all := tile.Accs(qs.Len(), k)
						var tileStats, sum ScanStats
						o.Stats = &tileStats
						if err := v.ScanMulti(ctx, qs, 0, qs.Len(), all, tile, o); err != nil {
							t.Fatal(err)
						}
						for j, q := range queries {
							var st, one ScanStats
							o.Stats = &st
							got, err := v.Scan(ctx, q, o)
							if err != nil {
								t.Fatal(err)
							}
							sum.Add(st)
							if want, wst := refSweep(v, q, o); !hitBitsEqual(got, want) || st != wst {
								t.Fatalf("%s q=%d: Scan %v %+v, the block loop %v %+v", cell, j, got, st, want, wst)
							}
							sc := GetTileScratch()
							accs := sc.Accs(1, k)
							o.Stats = &one
							if err := v.ScanMulti(ctx, qs, j, j+1, accs, sc, o); err != nil {
								t.Fatal(err)
							}
							if !hitBitsEqual(got, accs[0].Hits()) || st != one || sc.Scanned()[0] != st.ScannedRows {
								t.Fatalf("%s q=%d: Scan %v %+v, a tile of one %v %+v", cell, j, got, st, accs[0].Hits(), one)
							}
							if !hitBitsEqual(got, all[j].Hits()) || tile.Scanned()[j] != st.ScannedRows {
								t.Fatalf("%s q=%d: Scan %v scanned %d, in a full tile %v scanned %d", cell, j, got, st.ScannedRows, all[j].Hits(), tile.Scanned()[j])
							}
							if strings.HasPrefix(gv.name, "int8") {
								if a, b := sc.Candidates(0, &accs[0]), tile.Candidates(j, &all[j]); !slices.Equal(a, b) {
									t.Fatalf("%s q=%d: candidates %v as a tile of one, %v in a full tile", cell, j, a, b)
								}
							}
							PutTileScratch(sc)
						}
						if sum != tileStats {
							t.Fatalf("%s: stats %+v summed over Scans, %+v for the tile", cell, sum, tileStats)
						}
						PutTileScratch(tile)
					}
				}
			}
		}
	}
}

// refSweep is the one-query block loop, rebuilt from the tiers' exported
// kernels: v's blocks in sweep order, each cut at the first row whose
// norm bound is below the bar (a norm-sorted view's sweep ends at a
// block cut to nothing), skipped when the rows left are all dead, scored
// by the tier's DotRange and offered row by row.
func refSweep(v View, q vec.Vector, o ScanOpts) ([]Hit, ScanStats) {
	a := NewAcc(o.K)
	var st ScanStats
	bound, slack := NormBound(q)
	scores := make([]float64, blockRows)
	for i, nb := 0, v.blocks(); i < nb; i++ {
		_, r, start, end := v.blockAt(i)
		if r.norms != nil {
			cut := start
			for cut < end && !(r.norms.at(cut)*bound < a.Threshold()-slack) {
				cut++
			}
			if cut == start {
				st.PrunedBlocks += nb - i
				break
			}
			end = cut
		}
		if o.Dead.DeadIn(r.off+start, r.off+end) == end-start {
			st.SkippedBlocks++
			continue
		}
		out := scores[:end-start]
		var err error
		switch t := r.t.(type) {
		case *Store:
			err = t.DotRange(q, start, end, out)
		case *Store32:
			err = t.DotRange(q, start, end, out)
		case *StoreI8:
			err = t.DotRange(q, start, end, out)
		}
		if err != nil {
			panic(err)
		}
		st.ScannedRows += len(out)
		for p, sc := range out {
			if o.Dead.Dead(r.off + start + p) {
				continue
			}
			if o.Unsigned {
				sc = math.Abs(sc)
			}
			if r.ids != nil {
				a.Offer(int(r.ids[start+p]), sc)
			} else {
				a.Offer(start+p, sc)
			}
		}
	}
	return a.Hits(), st
}

// sortedTier names one tier with a norm-sorted view: how to sort a store
// through it, and its store-order view of the same rows — the reference
// a norm-sorted scan must match hit for hit.
type sortedTier struct {
	name     string
	sorted   func(fs *Store) View
	rowOrder func(fs *Store) View
}

var sortedTiers = []sortedTier{
	{"f64", func(fs *Store) View { return NewNormSorted(fs).View }, func(fs *Store) View { return fs.View() }},
}

// hitsAbove is the prefix of hs scoring at least floor. Of a scan's top k
// it is the top k among the rows scoring at least floor — what a scan
// through an accumulator floored there (Acc.SetFloor) owes its caller:
// were a row at or above the floor missing from the prefix, the k rows
// ahead of it would all be too.
func hitsAbove(hs []Hit, floor float64) []Hit {
	for i, h := range hs {
		if h.Score < floor {
			return hs[:i]
		}
	}
	return hs
}

// hitBitsEqual is hitsEqual with the scores compared by Float64bits.
func hitBitsEqual(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// checkRuns holds Scan and ScanMulti over the view v to the store-order
// scan of the same rows, ref, on the first nq rows of qs: hits
// bit-identical to ref's, ScanMulti bit-identical to Scan with equal
// per-query scanned counts and summed stats, and the stats inside
// checkSortedStats' contract. With floors (one a query; nil: none) ScanMulti runs again,
// query j's accumulator floored at floors[j]: its hits must be ref's top
// k among the rows scoring at least that (hitsAbove), bit for bit, and no
// query may score more rows than it did without the floor. dead is in
// store order.
func checkRuns(t testing.TB, cell string, v, ref View, qs *Store, nq int, o ScanOpts, dead *Tombstones, floors []float64) {
	t.Helper()
	ctx := context.Background()
	o.Dead = v.GatherDead(dead)
	unpruned := refRowStats(v, o.Dead)
	wants := make([][]Hit, nq)
	scanned := make([]int, nq)
	var sum ScanStats
	for j := 0; j < nq; j++ {
		q := qs.Row(j)
		want, err := ref.Scan(ctx, q, ScanOpts{K: o.K, Unsigned: o.Unsigned, Dead: dead})
		if err != nil {
			t.Fatalf("%s query %d: store-order scan: %v", cell, j, err)
		}
		var st ScanStats
		o.Stats = &st
		got, err := v.Scan(ctx, q, o)
		if err != nil {
			t.Fatalf("%s query %d: %v", cell, j, err)
		}
		if !hitBitsEqual(got, want) {
			t.Fatalf("%s query %d: hits %v, store-order scan %v", cell, j, got, want)
		}
		checkSortedStats(t, fmt.Sprintf("%s query %d", cell, j), v, st, unpruned, 1)
		wants[j], scanned[j] = want, st.ScannedRows
		sum.Add(st)
	}
	sc := GetTileScratch()
	defer PutTileScratch(sc)
	accs := sc.Accs(nq, o.K)
	var multi ScanStats
	o.Stats = &multi
	if err := v.ScanMulti(ctx, qs, 0, nq, accs, sc, o); err != nil {
		t.Fatalf("%s: ScanMulti: %v", cell, err)
	}
	for j := range accs {
		if !hitBitsEqual(accs[j].Hits(), wants[j]) || sc.Scanned()[j] != scanned[j] {
			t.Fatalf("%s query %d of %d: tile %v (%d rows scored), single %v (%d)", cell, j, nq, accs[j].Hits(), sc.Scanned()[j], wants[j], scanned[j])
		}
	}
	if multi != sum {
		t.Fatalf("%s: tile stats %+v, summed single stats %+v", cell, multi, sum)
	}
	if floors == nil {
		return
	}
	accs = sc.Accs(nq, o.K)
	for j := range accs {
		accs[j].SetFloor(floors[j])
	}
	var floored ScanStats
	o.Stats = &floored
	if err := v.ScanMulti(ctx, qs, 0, nq, accs, sc, o); err != nil {
		t.Fatalf("%s: floored ScanMulti: %v", cell, err)
	}
	rows := 0
	for j := range accs {
		if want := hitsAbove(wants[j], floors[j]); !hitBitsEqual(accs[j].Hits(), want) {
			t.Fatalf("%s query %d: floored at %v, hits %v, the store-order top k at or above it %v", cell, j, floors[j], accs[j].Hits(), want)
		}
		if n := sc.Scanned()[j]; n > scanned[j] {
			t.Fatalf("%s query %d: floored at %v, scored %d rows, %d without the floor", cell, j, floors[j], n, scanned[j])
		}
		rows += sc.Scanned()[j]
	}
	if floored.ScannedRows != rows {
		t.Fatalf("%s: floored tile stats %+v, per-query scanned counts sum to %d", cell, floored, rows)
	}
	checkSortedStats(t, cell+" floored", v, floored, unpruned, nq)
}

// sameFloor is n copies of floor, a floor for each of n queries.
func sameFloor(n int, floor float64) []float64 {
	fl := make([]float64, n)
	for j := range fl {
		fl[j] = floor
	}
	return fl
}

// cutRows returns, in store order, the rows around where q's sweep of
// each run of v is cut once the bar stands at bar: the first row whose
// norm bound is below it, the two before and the one after.
func cutRows(v View, q vec.Vector, bar float64) *Tombstones {
	bound := f64Bound(vec.Norm(q), v.Dim())
	dead := NewTombstones(v.Len())
	for _, r := range v.runs() {
		cut := 0
		for cut < r.t.Len() && !(r.norms.at(cut)*bound < bar) {
			cut++
		}
		for i := max(0, cut-2); i < min(cut+2, r.t.Len()); i++ {
			dead.Kill(int(r.ids[i]))
		}
	}
	return dead
}

// TestNormRunsMatchStoreOrder is the grid for run stacks, their sweep
// order and the cut: views sorted over a prefix with one to three runs
// stacked behind it to the whole store — every tail length around a
// block and up to a chunk, behind bases that end on a row, mid-block,
// mid-chunk and on a chunk edge — × tier × tombstone shape ×
// signed/unsigned × floor × k, tiles of one to nine queries.
func TestNormRunsMatchStoreOrder(t *testing.T) {
	const d = 16
	cells := 0
	for _, base := range []int{1, 300, chunkRows + 300, 2 * chunkRows} {
		for _, tailLen := range []int{0, 1, 255, 256, 257, chunkRows - 1} {
			n := base + tailLen
			rng := xrand.New(uint64(31*base + tailLen))
			rows := gridRows(rng, n, d)
			fs, err := FromVectors(rows)
			if err != nil {
				t.Fatal(err)
			}
			queries := gridQueries(rng, rows, 9, d)
			qs, err := FromVectors(queries)
			if err != nil {
				t.Fatal(err)
			}
			for ti, tier := range sortedTiers {
				var steps []int // one to three extensions
				for i, ext := 1, (base+tailLen+ti)%3+1; i <= ext; i++ {
					steps = append(steps, base+i*tailLen/ext)
				}
				v, ref := extendTo(tier.sorted(prefixOf(fs, base)), fs, steps...), tier.rowOrder(fs)
				if v.t.Len() != base || v.Len() != n {
					t.Fatalf("%s base=%d tail=%d: view has runs of %d and %d rows", tier.name, base, tailLen, v.t.Len(), v.Len()-v.t.Len())
				}
				runs := v.runs()
				last := runs[len(runs)-1]
				floors := []float64{0, last.norms.at(last.t.Len()/2) * qs.Norm(0), 1e9}
				for _, shape := range []string{"none", "tail", "base block", "every fourth", "cuts"} {
					for _, unsigned := range []bool{false, true} {
						for _, floor := range floors {
							for _, k := range []int{1, 10, n + 5} {
								dead := NewTombstones(n)
								switch shape {
								case "none":
									dead = nil
								case "tail":
									for _, r := range v.tails {
										for _, id := range r.ids {
											dead.Kill(int(id))
										}
									}
								case "base block":
									for _, id := range v.ids[:min(blockRows, base)] {
										dead.Kill(int(id))
									}
								case "every fourth":
									for i := 0; i < n; i += 4 {
										dead.Kill(i)
									}
								case "cuts":
									hits, err := ref.Scan(context.Background(), queries[0], ScanOpts{K: k, Unsigned: unsigned})
									if err != nil {
										t.Fatal(err)
									}
									bar := floor
									if len(hits) == k {
										bar = max(bar, hits[k-1].Score)
									}
									dead = cutRows(v, queries[0], bar)
								}
								cells++
								cell := fmt.Sprintf("%s base=%d tail=%d steps=%v dead=%s unsigned=%v floor=%g k=%d", tier.name, base, tailLen, steps, shape, unsigned, floor, k)
								nq := 1 + cells%len(queries)
								checkRuns(t, cell, v, ref, qs, nq, ScanOpts{K: k, Unsigned: unsigned}, dead, sameFloor(nq, floor))
							}
						}
					}
				}
			}
		}
	}
}

// TestNormRunsSpecialValues: the cut's binary search leans on a run's
// norm column being monotone with NaN norms leading, and on strict
// compares at the bar. Rows with NaN, ±Inf and zero norms, a stretch of
// equal norms, and copies of c·e₀ on both sides of the run boundary —
// their score against e₀ equals their norm bound exactly, so a floor or
// a k-th best of c ties the bar on both sides of a cut — must come back
// as the store-order scan returns them.
func TestNormRunsSpecialValues(t *testing.T) {
	const d, base, tailLen = 8, 400, 300
	rng := xrand.New(99)
	rows := randomVecs(rng, base+tailLen, d)
	axis := func(c float64) vec.Vector { v := vec.New(d); v[0] = c; return v }
	for i := range rows {
		switch {
		case i%50 == 7:
			rows[i] = axis(0.5) // ties, in both runs
		case i%50 == 8:
			rows[i] = axis(-0.5)
		case i%100 == 20:
			rows[i][i%d] = math.NaN()
		case i%100 == 21:
			rows[i][i%d] = math.Inf(1 - i/100%2*2)
		case i%25 == 3:
			rows[i] = vec.New(d)
		case i%3 == 0: // one norm for a third of the rows
			vec.Scale(rows[i], 1/vec.Norm(rows[i]))
		default:
			vec.Scale(rows[i], 1/float64(1+i%13))
		}
	}
	fs, err := FromVectors(rows)
	if err != nil {
		t.Fatal(err)
	}
	inf := vec.New(d)
	inf[1] = math.Inf(1)
	nan := vec.New(d)
	nan[2] = math.NaN()
	queries := append(randomVecs(rng, 4, d), axis(1), axis(-2), vec.New(d), inf, nan)
	qs, err := FromVectors(queries)
	if err != nil {
		t.Fatal(err)
	}
	forEachKernelPath(t, func(t *testing.T) {
		for _, tier := range sortedTiers {
			ref := tier.rowOrder(fs)
			for name, v := range map[string]View{
				"one run":    tier.sorted(fs),
				"three runs": extendTo(tier.sorted(prefixOf(fs, base)), fs, base+tailLen/2, base+tailLen),
			} {
				for _, r := range v.runs() {
					for i := 1; i < r.t.Len(); i++ {
						if a, b := r.norms.at(i-1), r.norms.at(i); a < b || (math.IsNaN(b) && !math.IsNaN(a)) {
							t.Fatalf("%s %s: norms %v, %v at rows %d, %d of a run: not NaNs first, then falling", tier.name, name, a, b, i-1, i)
						}
					}
				}
				for _, unsigned := range []bool{false, true} {
					for _, floor := range []float64{0, 0.5, 1} {
						for _, k := range []int{1, 3, 10, 40} {
							cell := fmt.Sprintf("%s %s unsigned=%v floor=%g k=%d", tier.name, name, unsigned, floor, k)
							checkRuns(t, cell, v, ref, qs, len(queries), ScanOpts{K: k, Unsigned: unsigned}, nil, sameFloor(len(queries), floor))
						}
					}
				}
			}
		}
	})
}

// TestNormBoundUnderflow: a norm whose square underflows still bounds
// its row. Row form: 300 rows (1e-180, 1), then (1e-170, 0), against
// (1, 0) — Σx² of the last row underflowed to 0, and a zero norm cut it
// from the sweep, so k = 1 answered row 0. Query form: (1e-170, 0)
// against 300 rows (1, 100), then (2, 0) — a zero query norm bounded
// every row by 0, and the first block's best closed the sweep. Both
// forms answer row 300 on one run and on two, as the store-order scan
// does, and the norms are the true ones.
func TestNormBoundUnderflow(t *testing.T) {
	repeat := func(v vec.Vector, n int) []vec.Vector {
		out := make([]vec.Vector, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	for _, c := range []struct {
		name string
		rows []vec.Vector
		q    vec.Vector
	}{
		{"row", append(repeat(vec.Vector{1e-180, 1}, 300), vec.Vector{1e-170, 0}), vec.Vector{1, 0}},
		{"query", append(repeat(vec.Vector{1, 100}, 300), vec.Vector{2, 0}), vec.Vector{1e-170, 0}},
	} {
		fs, err := FromVectors(c.rows)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := FromVectors([]vec.Vector{c.q})
		if err != nil {
			t.Fatal(err)
		}
		if got := min(fs.Norm(300), qs.Norm(0)); got != 1e-170 {
			t.Fatalf("%s: the underflowing norm is %g, want 1e-170", c.name, got)
		}
		for _, unsigned := range []bool{false, true} {
			want, err := fs.TopK(c.q, 1, unsigned, 1)
			if err != nil || len(want) != 1 || want[0].Index != 300 {
				t.Fatalf("%s: store-order scan answered %v (%v), want row 300", c.name, want, err)
			}
			got, _, err := NewNormSorted(fs).TopK(c.q, 1, unsigned)
			if err != nil || !hitBitsEqual(got, want) {
				t.Fatalf("%s unsigned=%v: norm-sorted scan answered %v (%v), want %v", c.name, unsigned, got, err, want)
			}
			for name, v := range map[string]View{"one run": NewNormSorted(fs).View, "three runs": withTail(fs, func(p *Store) View { return NewNormSorted(p).View })} {
				for _, k := range []int{1, 2, 301} {
					cell := fmt.Sprintf("%s %s unsigned=%v k=%d", c.name, name, unsigned, k)
					checkRuns(t, cell, v, fs.View(), qs, 1, ScanOpts{K: k, Unsigned: unsigned}, nil, nil)
				}
			}
		}
	}
}

// TestRowNormKeepsNormalBits: RowNorm is vec.Norm wherever no square
// underflows, and a bound at least the true norm where one does.
func TestRowNormKeepsNormalBits(t *testing.T) {
	rng := xrand.New(5)
	for i := 0; i < 2000; i++ {
		v := vec.Vector(rng.NormalVec(1 + i%40))
		vec.Scale(v, math.Ldexp(1, i%1200-600)) // 2⁻⁶⁰⁰ … 2⁵⁹⁹
		got, want := RowNorm(v), vec.Norm(v)
		if vec.Norm(v) >= 0x1p-500 && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v: RowNorm %v, vec.Norm %v", v, got, want)
		}
		// The same vector scaled into range, its norm scaled back.
		e := 600 - i%1200
		exact := math.Ldexp(vec.Norm(vec.Scale(slices.Clone(v), math.Ldexp(1, e))), -e)
		if got < exact*(1-float64(len(v)+2)*0x1p-53) {
			t.Fatalf("%v: RowNorm %v, under the norm %v", v, got, exact)
		}
	}
	for _, c := range []struct {
		v    vec.Vector
		want float64
	}{
		{vec.Vector{1e-170, 0}, 1e-170},
		{vec.Vector{0, 0, 0}, 0},
		{vec.Vector{5e-324}, 5e-324},
		{vec.Vector{math.Inf(-1), 1e-200}, math.Inf(1)},
	} {
		if got := RowNorm(c.v); got != c.want {
			t.Fatalf("RowNorm(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	// ‖(3, 4)·2⁻¹⁰⁷⁴‖ is 5·2⁻¹⁰⁷⁴ exactly; ‖(1, 1)·2⁻¹⁰⁷⁴‖ = √2·2⁻¹⁰⁷⁴
	// rounds up to 2·2⁻¹⁰⁷⁴, not down to 2⁻¹⁰⁷⁴.
	tiny := math.SmallestNonzeroFloat64
	if got := RowNorm(vec.Vector{3 * tiny, 4 * tiny}); got != 5*tiny {
		t.Fatalf("RowNorm((3, 4)·2⁻¹⁰⁷⁴) = %v, want %v", got, 5*tiny)
	}
	if got := RowNorm(vec.Vector{tiny, tiny}); got != 2*tiny {
		t.Fatalf("RowNorm((1, 1)·2⁻¹⁰⁷⁴) = %v, want %v", got, 2*tiny)
	}
}

// TestNormSortedExtendKeepsSnapshots: extending a norm-sorted view
// shares every run it does not merge, and builds the merged run afresh,
// so a reader holding a superseded view — here across writes that push
// their batch as a run of its own, that merge it with the newest runs,
// and the fold the last write asks for — keeps getting the answers it
// got. A write under a 64th of the rows merges with the newest runs
// while the run below holds under 4× the merged rows; a larger one is
// tiered by size class, ⌊log₄ rows⌋: it merges with newest runs of a
// smaller class, or as the fourth run of its class, and a merge that
// reaches the base run's class folds into it.
func TestNormSortedExtendKeepsSnapshots(t *testing.T) {
	const d, base = 16, 1500
	rng := xrand.New(41)
	rows := gridRows(rng, base+2*chunkRows, d)
	fs, err := FromVectors(rows)
	if err != nil {
		t.Fatal(err)
	}
	queries := gridQueries(rng, rows, 6, d)
	for _, tier := range sortedTiers {
		held, _, _ := tier.sorted(prefixOf(fs, base)).Extend(fs.Rows()[base : base+100])
		scan := func() (out [][]Hit) {
			for _, q := range queries {
				hits, err := held.Scan(context.Background(), q, ScanOpts{K: 10})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, hits)
			}
			return out
		}
		before, permBefore := scan(), physPerm(held)
		v := held
		for _, step := range []struct {
			n, copied int
			runs      []int
		}{
			{base + 110, 10, []int{base, 100, 10}},        // 10 rows: 100 ≥ 4·10, pushed
			{base + 130, 130, []int{base, 130}},           // 20 rows: 10 < 4·30, 100 < 4·30, merged with both
			{base + 190, 60, []int{base, 130, 60}},        // 60 rows, a bulk batch of class 2: pushed
			{base + 260, 130, []int{base, 130, 130}},      // 70 rows, class 3: merged with the class-2 run
			{base + 360, 100, []int{base, 130, 130, 100}}, // the third run of class 3: pushed
			{base + 480, 480, []int{base, 480}},           // the fourth: merged with the three, class 4
			{fs.Len(), fs.Len(), []int{fs.Len()}},         // 1 568 rows: merged with 480 into class 5, the base's: folded
		} {
			ext, copied, folded := v.Extend(fs.Rows()[v.Len():step.n])
			var runs []int
			for _, r := range ext.runs() {
				runs = append(runs, r.len())
			}
			if copied != step.copied || folded != (len(step.runs) == 1) || !slices.Equal(runs, step.runs) {
				t.Fatalf("%s: extending to %d rows: folded=%v copied=%d runs %v, want copied=%d runs %v", tier.name, step.n, folded, copied, runs, step.copied, step.runs)
			}
			if !folded && (ext.t != held.t || &ext.ids[0] != &held.ids[0]) {
				t.Fatalf("%s: the view extended to %d rows does not share the base run", tier.name, step.n)
			}
			v = ext
		}
		after := scan()
		for j := range before {
			if !hitBitsEqual(before[j], after[j]) {
				t.Fatalf("%s query %d: the held view answered %v, and %v once its successors were built", tier.name, j, before[j], after[j])
			}
		}
		if !slices.Equal(permBefore, physPerm(held)) {
			t.Fatalf("%s: the held view's row order changed", tier.name)
		}
	}
}

// normWrites returns a normscan shard's index work as a sequence of
// writes onto a norm-sorted view of n rows of dimension 16, one write a
// call: an Extend by batch rows and, masked, the dead set of the extended
// view grown and gathered from the one before — a row in 50 dead at the
// start — after batch more deaths. Every writes calls the sequence starts
// again from the n rows, so a run of calls prices the amortized write:
// the merges of every run of the stack, folds into the base run included.
func normWrites(tb testing.TB, n, batch, writes int, masked bool) func() {
	fs, err := FromVectors(randomVecs(xrand.New(uint64(n)), n+writes*batch, 16))
	if err != nil {
		tb.Fatal(err)
	}
	v0 := NewNormSorted(prefixOf(fs, n)).View
	was0 := NewTombstones(n)
	for i := 0; i < n; i += 50 {
		was0.Kill(i)
	}
	gathered0 := v0.GatherDead(was0)
	rows := fs.Rows()
	v, was, gathered, w := v0, was0, gathered0, 0
	return func() {
		if w == writes {
			v, was, gathered, w = v0, was0, gathered0, 0
		}
		ext, _, _ := v.Extend(rows[v.Len() : v.Len()+batch])
		if masked {
			dead := was.Grow(ext.Len())
			for i := range batch {
				dead.Kill(1 + (w+i*v.Len())/batch)
			}
			was, gathered = dead, ext.GatherDeadSince(dead, v, was, gathered)
		}
		v = ext
		w++
	}
}

// writeCost returns the time and bytes one write of a sequence costs,
// amortized over writes calls: the least time of several rounds, so a
// noisy neighbour cannot make it look slow.
func writeCost(write func(), writes int) (ns, bytes float64) {
	const rounds = 3
	ns = math.Inf(1)
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < writes; i++ {
			write()
		}
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		ns = min(ns, float64(took.Nanoseconds())/float64(writes))
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(writes)
	}
	return ns, bytes
}

// TestNormSortedExtendCostIsBatchSized gates what
// BenchmarkFlatNormSortedExtend measures without a benchmark run: over a
// sequence of 16-row writes, folds into the base run included, a write
// allocates at most n/4 bytes — the n/64 words of each of the two dead
// sets it grows and gathers — plus 4 copies of a row's bytes per row of
// the batch per run level, log₄(n/batch) of them. Copying the tail run
// at every write, as a single second run did, costs ≈ 528 rows a write
// there, over the bound at both sizes.
func TestNormSortedExtendCostIsBatchSized(t *testing.T) {
	const batch, writes = 16, 1024
	const rowBytes = 16*8 + 8 + 8 + 4 // the row, its norm, its id and its inverse-permutation slot
	for _, n := range []int{5000, 40000} {
		for _, masked := range []bool{false, true} {
			ns, bytes := writeCost(normWrites(t, n, batch, writes, masked), writes)
			bound := float64(n)/4 + 4*rowBytes*batch*math.Log(float64(n)/batch)/math.Log(4)
			t.Logf("n=%d masked=%v: %.0f ns, %.0f B a write; bound %.0f B", n, masked, ns, bytes, bound)
			if bytes > bound {
				t.Fatalf("n=%d masked=%v: a 16-row write allocates %.0f B amortized, over the O(n/64 + batch·log n) bound of %.0f", n, masked, bytes, bound)
			}
		}
	}
}
