package flat

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// normPalette is what the norm-sorted tests draw elements from: ties,
// zeros, NaN, ±Inf, subnormals and values whose squares underflow.
var normPalette = []float64{1, 1, -1, 0.5, 0, 2, 3, -3, 1e-170, -1e-180, 2e-160, 1e-310, -5e-324,
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}

// paletteRows returns n rows of dimension d drawn from normPalette, every
// fifth row a copy of an earlier one: norms tied within and across runs.
func paletteRows(rng *xrand.RNG, n, d int, earlier []vec.Vector) []vec.Vector {
	vs := make([]vec.Vector, n)
	for i := range vs {
		if i%5 == 4 && len(earlier)+i > 0 {
			if j := rng.Intn(len(earlier) + i); j < len(earlier) {
				vs[i] = earlier[j].Clone()
			} else {
				vs[i] = vs[j-len(earlier)].Clone()
			}
			continue
		}
		vs[i] = vec.New(d)
		for j := range vs[i] {
			vs[i][j] = normPalette[rng.Intn(len(normPalette))]
		}
	}
	return vs
}

// sortedRun returns rows, store rows off, off+1, …, as the norm-sorted
// run at physical offset off that a comparison sort of their keys gives:
// the reference mergeRuns is held to, built without it.
func sortedRun(off int, rows []vec.Vector) run {
	keys := make([]normKey, len(rows))
	for i, r := range rows {
		keys[i] = keyOf(RowNorm(r), off+i)
	}
	slices.SortFunc(keys, func(a, b normKey) int {
		if a.less(b) {
			return -1
		}
		return 1
	})
	sorted := make([]vec.Vector, len(rows))
	ids, pos := make([]int32, len(rows)), make([]int32, len(rows))
	for p, k := range keys {
		sorted[p], ids[p], pos[k.idx-off] = rows[k.idx-off], int32(k.idx), int32(p)
	}
	s, err := FromVectors(sorted)
	if err != nil {
		panic(err)
	}
	return run{t: s, ids: ids, norms: &s.norms, pos: pos, off: off}
}

// checkSortedRuns holds the norm-sorted view v over rows (store order) to
// the view sorting afresh gives — each run's rows sorted by their keys
// (sortedRun), and every block of every run in a stable sort by leading
// norm — bit for bit: each run's ids, inverse
// permutation, norms and rows, the sweep order, and View.Row(i) to
// rows[i]; and its ScanMulti over qs under o, dead gathered in each
// view's order, to the sorted view's: hits, scanned rows per query and
// stats.
func checkSortedRuns(t testing.TB, cell string, v View, rows []vec.Vector, qs *Store, o ScanOpts, dead *Tombstones) {
	t.Helper()
	if !v.Sorted() || v.Len() != len(rows) {
		t.Fatalf("%s: a view of %d rows (sorted %v) over %d", cell, v.Len(), v.Sorted(), len(rows))
	}
	want := View{run: sortedRun(0, rows[:v.len()])}
	for _, r := range v.tails {
		if r.len() == 0 || r.off != want.Len() {
			t.Fatalf("%s: a run of %d rows from %d behind %d rows", cell, r.len(), r.off, want.Len())
		}
		want.tails = append(want.tails, sortedRun(r.off, rows[r.off:r.off+r.len()]))
	}
	if len(want.tails) > 0 {
		want.order = stableOrder(want)
	}
	for ri, got := range v.runs() {
		ref := want.runs()[ri]
		if p := slices.Compare(got.ids, ref.ids); p != 0 {
			for p = 0; got.ids[p] == ref.ids[p]; p++ {
			}
			t.Fatalf("%s: run %d physical row %d holds row %d, sorting afresh row %d", cell, ri, p, got.ids[p], ref.ids[p])
		}
		if !slices.Equal(got.pos, ref.pos) {
			t.Fatalf("%s: run %d's inverse permutation differs from sorting afresh", cell, ri)
		}
		gs, rs := got.t.(*Store), ref.t.(*Store)
		for p := range ref.ids {
			if math.Float64bits(gs.Norm(p)) != math.Float64bits(rs.Norm(p)) {
				t.Fatalf("%s: run %d row %d has norm %v, sorting afresh %v", cell, ri, p, gs.Norm(p), rs.Norm(p))
			}
			if !slices.Equal(bitsOf(gs.Row(p)), bitsOf(rs.Row(p))) {
				t.Fatalf("%s: run %d row %d is %v, sorting afresh %v", cell, ri, p, gs.Row(p), rs.Row(p))
			}
		}
	}
	if got := sweepOrder(t, cell, v); !slices.Equal(got, stableOrder(v)) {
		t.Fatalf("%s: sweep order %v, by leading norm %v", cell, got, stableOrder(v))
	}
	for i, r := range rows {
		if !slices.Equal(bitsOf(v.Row(i)), bitsOf(r)) {
			t.Fatalf("%s: Row(%d) is %v, the row %v", cell, i, v.Row(i), r)
		}
	}
	type answer struct {
		hits    [][]Hit
		scanned []int
		st      ScanStats
	}
	scan := func(w View) (a answer) {
		accs := make([]Acc, qs.Len())
		for j := range accs {
			accs[j].Reset(o.K)
		}
		sc := GetTileScratch()
		defer PutTileScratch(sc)
		so := o
		so.Dead, so.Stats = w.GatherDead(dead), &a.st
		if err := w.ScanMulti(context.Background(), qs, 0, qs.Len(), accs, sc, so); err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		for j := range accs {
			a.hits = append(a.hits, slices.Clone(accs[j].Hits()))
		}
		a.scanned = slices.Clone(sc.Scanned())
		return a
	}
	got, ref := scan(v), scan(want)
	if !slices.EqualFunc(got.hits, ref.hits, hitBitsEqual) || !slices.Equal(got.scanned, ref.scanned) || got.st != ref.st {
		t.Fatalf("%s: ScanMulti %v (scanned %v, %+v), sorting afresh %v (scanned %v, %+v)", cell, got.hits, got.scanned, got.st, ref.hits, ref.scanned, ref.st)
	}
}

// sweepOrder returns the blocks v sweeps, in order: its order, or a
// single run's blocks in physical order — what a nil order means, and
// only on a view of one run.
func sweepOrder(t testing.TB, cell string, v View) []blockRef {
	t.Helper()
	if v.order != nil {
		return v.order
	}
	if len(v.tails) > 0 {
		t.Fatalf("%s: a view of %d runs with no sweep order", cell, v.Runs())
	}
	return runBlocks(0, v.len())
}

// runBlocks returns the blocks of run ri, n rows, in physical order.
func runBlocks(ri int32, n int) []blockRef {
	var out []blockRef
	for start := 0; start < n; start += blockRows {
		out = append(out, blockRef{ri, int32(start)})
	}
	return out
}

// stableOrder returns every block of every run of v, in run, then row,
// order, stable-sorted by leading norm, descending, NaN first: the sweep
// order a norm-sorted view must keep.
func stableOrder(v View) []blockRef {
	var out []blockRef
	for ri, r := range v.runs() {
		out = append(out, runBlocks(int32(ri), r.len())...)
	}
	runs := v.runs()
	lead := func(b blockRef) normKey { return keyOf(runs[b.run].norms.at(int(b.start)), 0) }
	sort.SliceStable(out, func(i, j int) bool { return lead(out[i]).less(lead(out[j])) })
	return out
}

// checkStack holds ext, what prev.Extend returned with copied and
// folded, to the run stack's rules: the runs behind the base descend by
// size class, at most three of each and all below the base run's, so
// there are at most 3·⌊log₄ n⌋ + 1; a fold leaves one run of every row
// and copied all of them, otherwise ext keeps the base run and prev's
// runs but the ones merged, untouched, and copied is the newest run's
// rows; the tails slice holds nothing past its length; and prev's runs
// are as they were (prevTails, cloned before the Extend).
func checkStack(t testing.TB, cell string, prev, ext View, prevTails []run, copied int, folded bool) {
	t.Helper()
	runs := ext.runs()
	for i := 1; i < len(runs); i++ {
		c := sizeClass(runs[i].len())
		if above := sizeClass(runs[i-1].len()); c >= above && (i == 1 || c > above) {
			t.Fatalf("%s: run %d holds %d rows, the run before it %d", cell, i, runs[i].len(), runs[i-1].len())
		}
		if i > 3 && sizeClass(runs[i-3].len()) == c { // the classes descend: runs i-3 to i are all c
			t.Fatalf("%s: runs %d to %d are four of size class %d", cell, i-3, i, c)
		}
	}
	if most := 3*sizeClass(ext.Len()) + 1; len(runs) > most {
		t.Fatalf("%s: %d runs over %d rows", cell, len(runs), ext.Len())
	}
	for _, r := range ext.tails[len(ext.tails):cap(ext.tails)] {
		if r.t != nil || r.ids != nil || r.norms != nil || r.pos != nil {
			t.Fatalf("%s: the tails slice keeps a run of %d rows past its length", cell, r.len())
		}
	}
	if len(prev.tails) != len(prevTails) {
		t.Fatalf("%s: the extended view's runs changed", cell)
	}
	for i, r := range prev.tails {
		if r.t != prevTails[i].t || r.off != prevTails[i].off {
			t.Fatalf("%s: the extended view's run %d changed", cell, i+1)
		}
	}
	newest := runs[len(runs)-1]
	switch {
	case folded:
		if len(runs) != 1 || copied != ext.Len() {
			t.Fatalf("%s: a fold left %d runs and copied %d of %d rows", cell, len(runs), copied, ext.Len())
		}
	case copied == 0:
		if ext.Len() != prev.Len() {
			t.Fatalf("%s: %d rows added, none copied", cell, ext.Len()-prev.Len())
		}
	default:
		kept := len(ext.tails) - 1
		if ext.t != prev.t || kept > len(prev.tails) || copied != newest.len() || newest.off+newest.len() != ext.Len() {
			t.Fatalf("%s: Extend copied %d rows into a newest run of %d", cell, copied, newest.len())
		}
		for i := range kept {
			if ext.tails[i].t != prev.tails[i].t {
				t.Fatalf("%s: run %d of %d kept was rebuilt", cell, i+1, kept)
			}
		}
	}
}

// bitsOf returns v's elements' bits, so NaN rows compare equal.
func bitsOf(v vec.Vector) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// liveRows returns rows less those dead marks, in store order: the rows
// a compaction keeps, renumbered.
func liveRows(rows []vec.Vector, dead *Tombstones) []vec.Vector {
	var live []vec.Vector
	for i, r := range rows {
		if !dead.Dead(i) {
			live = append(live, r)
		}
	}
	return live
}

// TestNormSortedMergeEqualsSort drives a norm-sorted view through random
// sequences of Extend by small and large batches — runs pushed, merged
// and folded into the base run (checkStack) — and Compact under random
// dead sets, on rows of ties, NaN, ±Inf, subnormals and underflowing
// squares. After every step the view must be, bit for bit, what sorting
// its runs' rows afresh gives, its sweep order a stable sort of their
// blocks by leading norm (checkSortedRuns), and a view held from an
// earlier step must keep its rows and answers.
func TestNormSortedMergeEqualsSort(t *testing.T) {
	for _, d := range []int{1, 3, 16} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := xrand.New(seed*31 + uint64(d))
			rows := paletteRows(rng, 1+rng.Intn(900), d, nil)
			qs, err := FromVectors(append(paletteRows(rng, 2, d, nil), randomVecs(rng, 2, d)...))
			if err != nil {
				t.Fatal(err)
			}
			v := SortRows(rows)
			heldAt, held, heldRows := 0, v, rows
			folds, compactions := 0, 0
			for step := 0; step < 40; step++ {
				cell := fmt.Sprintf("d=%d seed=%d step %d", d, seed, step)
				switch op := rng.Intn(6); {
				case op < 3: // a write's batch
					batch := paletteRows(rng, 1+rng.Intn(64), d, rows)
					tails := slices.Clone(v.tails)
					ext, copied, folded := v.Extend(batch)
					checkStack(t, cell, v, ext, tails, copied, folded)
					if folded {
						folds++
					}
					v, rows = ext, append(slices.Clip(rows), batch...)
				case op < 5: // a bulk load: hundreds of rows, often a fold
					batch := paletteRows(rng, 65+rng.Intn(600), d, rows)
					tails := slices.Clone(v.tails)
					ext, copied, folded := v.Extend(batch)
					checkStack(t, cell, v, ext, tails, copied, folded)
					if folded {
						folds++
					}
					v, rows = ext, append(slices.Clip(rows), batch...)
				default:
					dead, _ := killRandom(rng, len(rows), 0.3*rng.Float64())
					v, rows = v.Compact(dead), liveRows(rows, dead)
					compactions++
					if len(rows) == 0 {
						rows = paletteRows(rng, 1+rng.Intn(100), d, nil)
						v = SortRows(rows)
					}
				}
				dead, _ := killRandom(rng, len(rows), 0.2)
				for _, unsigned := range []bool{false, true} {
					checkSortedRuns(t, cell, v, rows, qs, ScanOpts{K: 1 + rng.Intn(12), Unsigned: unsigned}, dead)
				}
				if step%10 == 9 {
					checkSortedRuns(t, fmt.Sprintf("%s: the view held at step %d", cell, heldAt), held, heldRows, qs, ScanOpts{K: 5}, nil)
					heldAt, held, heldRows = step, v, rows
				}
			}
			if folds == 0 || compactions == 0 {
				t.Logf("d=%d seed=%d: %d folds, %d compactions", d, seed, folds, compactions)
			}
		}
	}
}

// TestNormBulkLoadCopies replays a bulk load through View.Extend as a
// normscan shard takes one — small-hot's, 20 batches of 250 rows onto an
// empty shard, and scan-heavy's, 40 of them — and pins the rows copied
// per row loaded, the first batch's sort included: 1.75 and 2.5. The 4×
// stack alone copied 4.2 and 4.8 in its merges, plus one sort copy of
// every batch.
func TestNormBulkLoadCopies(t *testing.T) {
	const batch = 250
	for _, c := range []struct {
		batches int
		perRow  float64
	}{{20, 1.75}, {40, 2.5}} {
		rows := randomVecs(xrand.New(uint64(c.batches)), c.batches*batch, 4)
		v, copied := SortRows(rows[:batch]), batch
		for lo := batch; lo < len(rows); lo += batch {
			ext, n, _ := v.Extend(rows[lo : lo+batch])
			v, copied = ext, copied+n
		}
		if got := float64(copied) / float64(len(rows)); got != c.perRow {
			t.Errorf("%d batches of %d rows: %.3f rows copied per row loaded (%d runs), want %.3f", c.batches, batch, got, v.Runs(), c.perRow)
		}
	}
}

// TestNormStackInvariants drives a norm-sorted view through 600 writes of
// 1 to 40 rows onto 3 000, stacks several runs deep, every eighth a bulk
// batch — a 64th of the view and up to 300 rows more, which is tiered —
// a few rows dying at every write. After each Extend the stack keeps its
// rules (checkStack:
// the runs behind the base descending by size class, at most three of
// each and below the base's, so at most 3·⌊log₄ n⌋ + 1 runs, nothing
// past the tails slice's length, the runs kept untouched), its sweep
// order is the
// stable sort of every block by leading norm, and the dead set patched
// from the last write's (GatherDeadSince: the shared runs' words copied,
// their new deaths placed through the runs' inverse permutations) is
// GatherDead's; every 50 writes the view answers as sorting its runs
// afresh does (checkSortedRuns).
func TestNormStackInvariants(t *testing.T) {
	const d, base, writes = 4, 3000, 600
	rng := xrand.New(51)
	rows := paletteRows(rng, base, d, nil)
	qs, err := FromVectors(randomVecs(rng, 3, d))
	if err != nil {
		t.Fatal(err)
	}
	v := SortRows(rows)
	dead := NewTombstones(base)
	gathered := v.GatherDead(dead)
	deepest, bulk := 0, 0
	for w := range writes {
		cell := fmt.Sprintf("write %d", w)
		n := 1 + rng.Intn(40)
		if w%8 == 7 {
			n = (v.Len()+bulkShare-1)/bulkShare + rng.Intn(300)
		}
		if n*bulkShare >= v.Len() {
			bulk++
		}
		batch := paletteRows(rng, n, d, rows)
		tails := slices.Clone(v.tails)
		ext, copied, folded := v.Extend(batch)
		checkStack(t, cell, v, ext, tails, copied, folded)
		if got := sweepOrder(t, cell, ext); !slices.Equal(got, stableOrder(ext)) {
			t.Fatalf("%s: sweep order %v, by leading norm %v", cell, got, stableOrder(ext))
		}
		rows = append(rows, batch...)
		now := dead.Grow(len(rows))
		for range 3 {
			now.Kill(rng.Intn(len(rows)))
		}
		patched, want := ext.GatherDeadSince(now, v, dead, gathered), ext.GatherDead(now)
		if patched.Count() != want.Count() || !slices.Equal(patched.bits.W, want.bits.W) {
			t.Fatalf("%s: patched dead set (%d dead) is not GatherDead's (%d)", cell, patched.Count(), want.Count())
		}
		v, dead, gathered = ext, now, patched
		deepest = max(deepest, v.Runs())
		if w%50 == 49 {
			checkSortedRuns(t, cell, v, rows, qs, ScanOpts{K: 7}, dead)
		}
	}
	if deepest < 5 || bulk < writes/8 {
		t.Fatalf("the stack never grew past %d runs, or only %d writes were bulk batches", deepest, bulk)
	}
}
