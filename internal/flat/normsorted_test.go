package flat

import (
	"context"
	"fmt"
	"math"
	"slices"
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

// checkSortedRuns holds the norm-sorted view v over rows (store order) to
// the view sorting afresh gives — rows[:base] sorted into the base run
// and the rest into the tail run, by sortRows, which NewNormSorted and
// SortRows run — bit for bit: ids, inverse permutation, norms and rows,
// and View.Row(i) to rows[i]; and its ScanMulti over qs under o, dead
// gathered in each view's order, to the sorted view's: hits, scanned rows
// per query and stats.
func checkSortedRuns(t testing.TB, cell string, v View, rows []vec.Vector, qs *Store, o ScanOpts, dead *Tombstones) {
	t.Helper()
	if !v.Sorted() || v.Len() != len(rows) {
		t.Fatalf("%s: a view of %d rows (sorted %v) over %d", cell, v.Len(), v.Sorted(), len(rows))
	}
	d, base := v.Dim(), v.t.Len()
	want := View{run: sortRows(d, 0, rows[:base])}
	if base < len(rows) {
		want.tail = sortRows(d, base, rows[base:])
	}
	for ri, pair := range [2][2]run{{v.run, want.run}, {v.tail, want.tail}} {
		got, ref := pair[0], pair[1]
		if got.len() != ref.len() || got.len() > 0 && got.off != ref.off {
			t.Fatalf("%s: run %d holds %d rows from %d, sorting afresh %d from %d", cell, ri, got.len(), got.off, ref.len(), ref.off)
		}
		if got.len() == 0 {
			continue
		}
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
// sequences of Extend by small and large batches — tails merged, and
// folded into the base run once they would reach a chunk — and Compact
// under random dead sets, on rows of ties, NaN, ±Inf, subnormals and
// underflowing squares. After every step the view must be, bit for bit,
// what sorting its rows afresh gives (checkSortedRuns), and a view held
// from an earlier step must keep its rows and answers.
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
					ext, copied, folded := v.Extend(batch)
					tail := len(rows) + len(batch) - v.t.Len()
					if folded != (tail >= chunkRows) || folded && copied != len(rows)+len(batch) || !folded && (copied != tail || ext.t != v.t) {
						t.Fatalf("%s: Extend by %d onto a tail of %d: folded=%v copied=%d", cell, len(batch), v.tail.len(), folded, copied)
					}
					if folded {
						folds++
					}
					v, rows = ext, append(slices.Clip(rows), batch...)
				case op < 5: // a bulk load: hundreds of rows, often a fold
					batch := paletteRows(rng, 65+rng.Intn(600), d, rows)
					ext, _, folded := v.Extend(batch)
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
