// The norm-sorted view: rows physically reordered by descending norm, so
// a top-k scan can stop at the first row whose norm cannot beat the k-th
// best hit (see sweep.tiles). Keeping the norm-ordered rows contiguous is
// what lets that scan stream at kernel speed (≈ 3× a permutation-chasing
// scan on the serving batch path), so the view owns its rows in that
// order — the sorted runs are the only copy it keeps — and reads a row by
// its store index through each run's inverse permutation (View.Row), four
// bytes a row. Every run is built by one merge (mergeRuns) of runs already
// in key order and a batch read in its sorted keys' order, which gives
// the rows sorting them afresh does. Writes stack runs as an LSM-tree
// does (O'Neil et al. 1996): a bulk batch by lazy leveling, a small
// write by the logarithmic method (see keepRuns).
package flat

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/vec"
)

// normKey is a row's place in a norm-sorted run: its norm's bits,
// complemented — norms are ≥ 0, so their bits order as they do, and the
// complement descends (NaN norms lead) — then its store index.
type normKey struct {
	bits uint64
	idx  int
}

func keyOf(norm float64, idx int) normKey { return normKey{^math.Float64bits(norm), idx} }

func (a normKey) less(b normKey) bool { return a.bits < b.bits || a.bits == b.bits && a.idx < b.idx }

// normOrder returns the keys of rows from, from+1, … with the given
// norms in (norm descending, index ascending) order. Keys are distinct,
// so every sort orders them alike: a write's batch of up to 64 rows is
// insertion-sorted, and more rows — a shard's few thousand — go through
// a stable byte-wise radix sort on the keys' bits, taken in index order,
// several times faster there than a comparison sort calling back into a
// comparator.
func normOrder(norms []float64, from int) []normKey {
	n := len(norms)
	keys := make([]normKey, n)
	for i, nm := range norms {
		keys[i] = keyOf(nm, from+i)
	}
	if n <= 64 {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && keys[j].less(keys[j-1]); j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		return keys
	}
	spare := make([]normKey, n)
	for shift := 0; shift < 64; shift += 8 {
		var start [256]int
		for _, k := range keys {
			start[k.bits>>shift&255]++
		}
		if start[keys[0].bits>>shift&255] == n {
			continue // every key has the same byte here
		}
		at := 0
		for b, c := range start {
			start[b], at = at, at+c
		}
		for _, k := range keys {
			b := k.bits >> shift & 255
			spare[start[b]] = k
			start[b]++
		}
		keys, spare = spare, keys
	}
	return keys
}

// sortRows returns rows, store rows off, off+1, …, as a norm-sorted run
// at physical offset off: a copy in (norm descending, index ascending)
// order, each norm RowNorm's. Every row must have dimension d.
func sortRows(d, off int, rows []vec.Vector) run { return mergeRuns(d, off, nil, rows) }

// len returns the rows of a norm-sorted run; the zero run has none.
func (r run) len() int { return len(r.ids) }

// mergeRuns merges the norm-sorted runs rs — the zero run among them
// holding nothing — and batch, the store rows behind theirs, into one
// run at physical offset off, each row copied once, and returns it. The
// batch is merged from its keys' order (normOrder), its rows read in
// place, so a write's rows are copied once whether they merge or make a
// run of their own. Each of rs is in key order and all keys are
// distinct, so the result is in key order: row for row what sorting the
// same rows gives. A nil renumber keeps every store index; otherwise it
// covers every row of rs, which are then all the rows merged, row i
// becoming store row renumber[i], or dropped where that is negative — a
// renumbering that keeps the kept rows' relative order, and so the key
// order. Every batch row must have dimension d.
func mergeRuns(d, off int, renumber []int32, batch []vec.Vector, rs ...run) run {
	from := off // the batch's first store row
	for _, r := range rs {
		from += r.len()
	}
	n := from - off + len(batch)
	if renumber != nil {
		n = 0
		for _, i := range renumber {
			if i >= 0 {
				n++
			}
		}
	}
	var keys []normKey // the batch's, in key order
	if len(batch) > 0 {
		norms := make([]float64, len(batch))
		for i, v := range batch {
			if len(v) != d {
				panic(fmt.Sprintf("flat: row %d has dimension %d, the view %d", from+i, len(v), d))
			}
			norms[i] = RowNorm(v)
		}
		keys = normOrder(norms, from)
	}
	// The sources are rs, then the batch (source len(rs)), in store
	// order: of two rows with equal norms the earlier source's has the
	// smaller index, so the merge compares keys' norm bits alone, a tie
	// to the earlier source. heads holds, for each source with rows
	// left and in that order, its next row and that row's key bits.
	type head struct {
		src, at int
		bits    uint64
	}
	heads := make([]head, 0, len(rs)+1)
	// next moves h to its source's first row at or after at that
	// renumber keeps, and reports whether there is one.
	next := func(h *head, at int) bool {
		if h.src == len(rs) {
			if at == len(keys) {
				return false
			}
			h.at, h.bits = at, keys[at].bits
			return true
		}
		r := &rs[h.src]
		for renumber != nil && at < r.len() && renumber[r.ids[at]] < 0 {
			at++
		}
		if at == r.len() {
			return false
		}
		h.at, h.bits = at, ^math.Float64bits(r.norms.at(at))
		return true
	}
	for j := range len(rs) + 1 {
		if h := (head{src: j}); next(&h, 0) {
			heads = append(heads, h)
		}
	}
	re := newStore(d)
	ids := make([]int32, n)
	pos := make([]int32, n)
	for phys := 0; phys < n; {
		data, col := re.grow(n - phys)
		for i := range col {
			s := 0 // the source whose next row has the least key
			for u := 1; u < len(heads); u++ {
				if heads[u].bits < heads[s].bits {
					s = u
				}
			}
			h := &heads[s]
			var idx int32
			var row []float64
			if h.src == len(rs) {
				idx, row = int32(keys[h.at].idx), batch[keys[h.at].idx-from]
			} else {
				idx, row = rs[h.src].ids[h.at], rs[h.src].t.(*Store).data.row(h.at)
				if renumber != nil {
					idx = renumber[idx]
				}
			}
			copy(data[i*d:(i+1)*d], row)
			col[i], ids[phys+i], pos[int(idx)-off] = math.Float64frombits(^h.bits), idx, int32(phys+i)
			if !next(h, h.at+1) {
				heads = slices.Delete(heads, s, s+1)
			}
		}
		phys += len(col)
	}
	return run{t: re, ids: ids, norms: &re.norms, pos: pos, off: off}
}

// SortRows returns the norm-sorted view of vs, store row i being vs[i],
// in one run, as NewNormSorted sorts a store's rows. vs must be
// non-empty and share one dimension; SortRows panics otherwise.
func SortRows(vs []vec.Vector) View {
	if len(vs) == 0 {
		panic("flat: SortRows of no rows")
	}
	return View{run: sortRows(len(vs[0]), 0, vs)}
}

// sizeClass returns n's size class, ⌊log₄ n⌋ (0 for n = 0): runs of
// one class hold within 4× of each other's rows, and four of them merge
// into a run of the next class.
func sizeClass(n int) int { return max(bits.Len(uint(n))-1, 0) / 2 }

// bulkShare: a batch of at least 1/bulkShare of a view's rows is a bulk
// load's, which keepRuns tiers; smaller writes level.
const bulkShare = 64

// keepRuns returns how many of runs, the base run first and n rows in
// all, a write of b rows leaves as they are; the rest merge with its
// batch, and 0 is a fold. A bulk batch (b ≥ n/bulkShare) merges by lazy
// leveling (Dayan and Idreos, SIGMOD 2018): the runs behind the base are
// tiered — the batch merges with the newest runs only while they are of
// a smaller size class than the merge, or when it would be the fourth
// run of its class — and the base is leveled: a merge that reaches its
// class folds into it. A smaller write merges with the newest runs while
// the run below holds fewer than 4× the merged rows, the base run too
// (the logarithmic method, Bentley and Saxe 1980): every run costs each
// query a block visit, and small writes are many, so they keep the
// stack shallow and fold a bulk load's tiers in. Either way the runs
// behind the base descend by class, at most three of each and all below
// the base's — at most 3·⌊log₄ n⌋ + 1 runs — and a bulk load copies each
// row once per class it climbs, plus the base's folds.
func keepRuns(runs []run, b, n int) int {
	keep, rows := len(runs), b // runs[:keep] stay; rows: the merged run's
	if b*bulkShare < n {
		for keep > 0 && runs[keep-1].len() < 4*rows {
			keep--
			rows += runs[keep].len()
		}
		return keep
	}
	for keep > 1 {
		take, c := 0, sizeClass(rows)
		switch {
		case sizeClass(runs[keep-1].len()) < c:
			take = 1
		case keep > 3 && sizeClass(runs[keep-3].len()) == c:
			take = 3
		}
		if take == 0 {
			break
		}
		for range take {
			keep--
			rows += runs[keep].len()
		}
	}
	if keep == 1 && sizeClass(rows) >= sizeClass(runs[0].len()) {
		return 0
	}
	return keep
}

// Extend returns the norm-sorted view of v's rows and vs behind them in
// the store order — store rows v.Len() on — for v a norm-sorted view,
// which keeps serving; vs must have v's dimension (Extend panics
// otherwise, as Dot does). One pass (mergeRuns) merges the batch, read
// in its sorted keys' order, with the newest runs keepRuns names, or
// makes it a run of its own; the runs below are shared. copied is the
// merged run's rows — each copied once, O(log n) times per row written
// amortized — and folded reports that the base run joined the merge.
// Each run is row for row what sorting its rows afresh gives (sortRows).
func (v View) Extend(vs []vec.Vector) (ext View, copied int, folded bool) {
	if !v.Sorted() {
		panic("flat: Extend of a store-order view")
	}
	if len(vs) == 0 {
		return v, 0, false
	}
	runs := v.runs()
	keep, off := keepRuns(runs, len(vs), v.Len()), v.Len()
	if keep < len(runs) {
		off = runs[keep].off
	}
	merged := mergeRuns(v.Dim(), off, nil, vs, runs[keep:]...)
	if keep == 0 {
		return View{run: merged}, merged.len(), true
	}
	// Capped, so the append copies and the runs merged stay unreachable.
	ext = View{run: v.run, tails: append(runs[1:keep:keep], merged)}
	ext.order = v.mergeOrder(keep, merged)
	return ext, merged.len(), false
}

// runs returns v's runs, the base run first.
func (v View) runs() []run { return append([]run{v.run}, v.tails...) }

// mergeOrder returns the sweep order of v's runs [0, keep) and merged as
// run keep: v's order less the runs merged away, merged's blocks merged
// in by leading norm, ties to the earlier run — a stable sort.
func (v View) mergeOrder(keep int, merged run) []blockRef {
	order := make([]blockRef, 0, v.blocks()+merged.len()/blockRows+1)
	at := 0 // merged's next block
	for i := range v.blocks() {
		b, r, start, _ := v.blockAt(i)
		if int(b.run) >= keep {
			continue // merged away
		}
		lead := keyOf(r.norms.at(start), 0)
		for ; at < merged.len() && keyOf(merged.norms.at(at), 0).less(lead); at += blockRows {
			order = append(order, blockRef{int32(keep), int32(at)})
		}
		order = append(order, b)
	}
	for ; at < merged.len(); at += blockRows {
		order = append(order, blockRef{int32(keep), int32(at)})
	}
	return order
}

// Runs returns how many runs v sweeps: 1 on a store-order view.
func (v View) Runs() int { return 1 + len(v.tails) }

// Compact returns the norm-sorted view of v's rows that dead, a set over
// store-order rows, does not mark, renumbered 0, 1, … in store order, in
// one run: row for row what NewNormSorted makes of the live rows packed
// in store order. Renumbering keeps the live rows' relative order and
// their norms, so one merge of v's runs drops the dead rows and nothing
// is sorted.
func (v View) Compact(dead *Tombstones) View {
	if !v.Sorted() {
		panic("flat: Compact of a store-order view")
	}
	renumber := make([]int32, v.Len())
	var live int32
	for i := range renumber {
		if dead.Dead(i) {
			renumber[i] = -1
			continue
		}
		renumber[i] = live
		live++
	}
	return View{run: mergeRuns(v.Dim(), 0, renumber, nil, v.runs()...)}
}

// runOf returns the run holding store row i.
func (v *View) runOf(i int) *run {
	for j := len(v.tails) - 1; j >= 0; j-- {
		if i >= v.tails[j].off {
			return &v.tails[j]
		}
	}
	return &v.run
}

// Row returns store row i of an f64 view as a vector view aliasing its
// storage — on a norm-sorted view the physical row its run's inverse
// permutation names. Callers must not mutate it.
func (v View) Row(i int) vec.Vector {
	r := v.runOf(i)
	if r.pos != nil {
		i = int(r.pos[i-r.off])
	}
	return r.t.(*Store).Row(i)
}

// Unpruned returns v swept whole: the same rows in the same physical
// order, but with no norm bound to end a sweep early — the Θ(nd) sweep
// an exact join asks of a norm-sorted view. It is for scanning only.
func (v View) Unpruned() View {
	v.norms, v.tails = nil, slices.Clone(v.tails) // v's slice is published
	for i := range v.tails {
		v.tails[i].norms = nil
	}
	return v
}

// GatherDead returns dead, a set over store-order rows, as v's scans
// want it (ScanOpts.Dead): in physical order — every row looked up
// through its run's map — on a norm-sorted view, as it is otherwise.
// A write that has the previous snapshot's gathered set calls
// GatherDeadSince instead.
func (v View) GatherDead(dead *Tombstones) *Tombstones {
	if !v.Sorted() {
		return dead
	}
	var perm [][]int32
	for _, r := range v.runs() {
		perm = append(perm, r.ids)
	}
	return dead.Gather(perm...)
}

// GatherDeadSince returns v.GatherDead(dead) from the set gathered for
// an earlier view: gathered is prev.GatherDead(was), prev being v or a
// view v was extended from. When dead keeps every row was marks, the
// words of the leading runs both views hold are copied from gathered,
// each of their rows dead newly marks is placed by its run's inverse
// permutation, and only the runs behind them are gathered: n/64 words,
// the new deaths and the newest runs. Any other case (a folded base, no
// earlier set, a revived row) gathers in full.
func (v View) GatherDeadSince(dead *Tombstones, prev View, was, gathered *Tombstones) *Tombstones {
	if !v.Sorted() || dead == nil || was == nil || gathered == nil || v.t != prev.t {
		return v.GatherDead(dead)
	}
	same, shared := 0, v.len() // tails[:same] are prev's too; shared: their rows and the base run's
	for same < len(v.tails) && same < len(prev.tails) && v.tails[same].t == prev.tails[same].t {
		shared += v.tails[same].len()
		same++
	}
	out := NewTombstones(v.Len())
	words := (shared + 63) >> 6
	copy(out.bits.W[:words], gathered.bits.W[:words])
	out.count = gathered.count - gathered.DeadIn(shared, prev.Len())
	for w := range words {
		mask := ^uint64(0)
		if w == words-1 && shared&63 != 0 {
			mask = 1<<(shared&63) - 1
		}
		then, now := was.bits.W[w]&mask, dead.bits.W[w]&mask
		if then&^now != 0 {
			return v.GatherDead(dead)
		}
		out.bits.W[w] &= mask
		for killed := now &^ then; killed != 0; killed &= killed - 1 {
			i := w<<6 + bits.TrailingZeros64(killed)
			r := v.runOf(i)
			out.Kill(r.off + int(r.pos[i-r.off]))
		}
	}
	for _, r := range v.tails[same:] {
		for p, i := range r.ids {
			if dead.Dead(int(i)) {
				out.Kill(r.off + p)
			}
		}
	}
	return out
}

// NormSorted is the descending-norm view of a Store for
// early-terminating top-k scans (the LEMP-style traversal): rows are
// physically reordered by (norm descending, original index ascending)
// into a private store, so the traversal is both contiguous and
// monotone in the Cauchy–Schwarz bound. Returned hits carry original
// row indexes.
type NormSorted struct {
	View
}

// NewNormSorted builds the reordered view in O(n·d): every row of s in
// one run (View.Extend adds more). Each row's norm is recomputed
// by RowNorm, which is how s cached it.
func NewNormSorted(s *Store) *NormSorted {
	return &NormSorted{View{run: sortRows(s.dim, 0, s.Rows())}}
}

// TopK is Scan with positional arguments and no deadline, plus the
// number of rows whose inner product was evaluated before the norm
// bound ended the scan.
func (ns *NormSorted) TopK(q vec.Vector, k int, unsigned bool) ([]Hit, int, error) {
	var st ScanStats
	hits, err := ns.Scan(context.Background(), q, ScanOpts{K: k, Unsigned: unsigned, Stats: &st})
	return hits, st.ScannedRows, err
}

// TopKMulti is ScanMulti for every row of qs, returning per-query hit
// lists and evaluated-row counts.
func (ns *NormSorted) TopKMulti(qs *Store, k int, unsigned bool) ([][]Hit, []int, error) {
	return ns.topKMulti(qs, k, unsigned)
}
