package lsh

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/flat"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func TestIndexFindsPlantedNeighbor(t *testing.T) {
	// Plant a vector very close to the query among random noise; a
	// hyperplane index with reasonable (K, L) must surface it.
	const d, n = 16, 400
	rng := xrand.New(20)
	f, _ := NewHyperplane(d)
	ix, err := NewIndex(f, 8, 16, 21)
	if err != nil {
		t.Fatal(err)
	}
	q := vec.Vector(rng.UnitVec(d))
	planted := q.Clone()
	planted[0] += 0.05
	vec.Normalize(planted)
	const plantedID = 0
	data := []vec.Vector{planted}
	for i := 1; i < n; i++ {
		data = append(data, vec.Vector(rng.UnitVec(d)))
	}
	ix.InsertAll(data)
	if ix.Len() != n {
		t.Fatalf("Len = %d", ix.Len())
	}
	best, score := ix.Query(q, func(id int) float64 { return vec.Dot(data[id], q) })
	if best != plantedID {
		t.Fatalf("Query returned %d (score %v), want planted %d", best, score, plantedID)
	}
	if math.Abs(score-vec.Dot(planted, q)) > 1e-12 {
		t.Fatalf("score %v mismatch", score)
	}
}

func TestIndexSubquadraticCandidates(t *testing.T) {
	// With random data the candidate set should be far below n.
	const d, n = 16, 1000
	rng := xrand.New(22)
	f, _ := NewHyperplane(d)
	ix, _ := NewIndex(f, 12, 4, 23)
	data := make([]vec.Vector, n)
	for i := range data {
		data[i] = vec.Vector(rng.UnitVec(d))
	}
	ix.InsertAll(data)
	total := 0
	const queries = 20
	for i := 0; i < queries; i++ {
		total += len(ix.Candidates(vec.Vector(rng.UnitVec(d))))
	}
	if avg := float64(total) / queries; avg > n/4 {
		t.Fatalf("average candidates %v too close to linear scan", avg)
	}
}

func TestIndexCandidatesDeduplicated(t *testing.T) {
	const d = 8
	f, _ := NewHyperplane(d)
	ix, _ := NewIndex(f, 2, 8, 24)
	p := vec.Vector{1, 0, 0, 0, 0, 0, 0, 0}
	ix.InsertAll([]vec.Vector{p})
	cands := ix.Candidates(p) // identical vector collides in every table
	if len(cands) != 1 || cands[0] != 0 {
		t.Fatalf("candidates = %v, want [0]", cands)
	}
}

func TestIndexEmptyQuery(t *testing.T) {
	f, _ := NewHyperplane(4)
	ix, _ := NewIndex(f, 2, 2, 25)
	id, score := ix.Query(vec.Vector{1, 0, 0, 0}, func(int) float64 { return 0 })
	if id != -1 || score != 0 {
		t.Fatalf("empty index Query = (%d, %v)", id, score)
	}
}

func TestIndexDeterministicAcrossBuilds(t *testing.T) {
	const d = 8
	rng := xrand.New(26)
	data := make([]vec.Vector, 50)
	for i := range data {
		data[i] = vec.Vector(rng.UnitVec(d))
	}
	q := vec.Vector(rng.UnitVec(d))
	f, _ := NewHyperplane(d)
	build := func() []int {
		ix, _ := NewIndex(f, 4, 6, 27)
		ix.InsertAll(data)
		c := ix.Candidates(q)
		sort.Ints(c)
		return c
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("candidate sets differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("candidate sets differ at %d: %v vs %v", i, a, b)
		}
	}
}

func TestIndexValidation(t *testing.T) {
	f, _ := NewHyperplane(4)
	if _, err := NewIndex(nil, 1, 1, 0); err == nil {
		t.Fatal("nil family must fail")
	}
	if _, err := NewIndex(f, 0, 1, 0); err == nil {
		t.Fatal("K=0 must fail")
	}
	if _, err := NewIndex(f, 1, 0, 0); err == nil {
		t.Fatal("L=0 must fail")
	}
}

func TestIndexWithAsymmetricFamily(t *testing.T) {
	// MH-ALSH index over binary sets: querying with a set should surface
	// the data set with largest intersection.
	const d, m = 30, 6
	f, _ := NewAsymMinHash(d, m)
	ix, _ := NewIndex(f, 1, 24, 28)
	a := setVec(d, 0, 1, 2, 3, 4, 5) // overlap 4 with query
	b := setVec(d, 0, 1, 10, 11)     // overlap 2
	c := setVec(d, 20, 21, 22)       // overlap 0
	data := []vec.Vector{a, b, c}
	ix.InsertAll(data)
	q := setVec(d, 0, 1, 2, 3, 7)
	id, _ := ix.Query(q, func(id int) float64 { return vec.Dot(data[id], q) })
	if id != 0 {
		t.Fatalf("Query = %d, want 0", id)
	}
}

// combine is the reference key fold: the K hash values of one table,
// computed one hasher at a time, folded into the table key.
func combine(hs []uint64) uint64 {
	key := uint64(1469598103934665603)
	for _, h := range hs {
		key ^= h
		key *= 1099511628211
		key ^= key >> 29
	}
	return key
}

// reference is the construction done the naive way, the oracle of every
// hashing path: K·L hashers sampled from the family itself (so an
// Asymmetric family runs its pre-map inside every one of them, and a
// Hyperplane hasher is one vec.Dot), combined per table — into the K-bit
// sign code under a Hyperplane family to K = 64, folded otherwise — into
// a bucket per code when the index's tables are dense.
type reference struct {
	k, l        int
	hs          []Hasher
	code, dense bool
}

func newReference(f Family, k, l int, seed uint64) reference {
	rng := xrand.New(seed)
	hs := make([]Hasher, k*l)
	for i := range hs {
		hs[i] = f.Sample(rng)
	}
	inner := f
	if a, ok := f.(*Asymmetric); ok {
		inner = a.Inner
	}
	_, hp := inner.(*Hyperplane)
	return reference{k, l, hs, hp && k <= 64, hp && k <= maxDenseK}
}

// keys returns x's L table keys.
func (r reference) keys(x vec.Vector, data bool) []uint64 {
	keys, vals := make([]uint64, r.l), make([]uint64, r.k)
	for i := range keys {
		for j, h := range r.hs[i*r.k : (i+1)*r.k] {
			if data {
				vals[j] = h.HashData(x)
			} else {
				vals[j] = h.HashQuery(x)
			}
		}
		if !r.code {
			keys[i] = combine(vals)
			continue
		}
		for j, v := range vals {
			keys[i] |= v << j
		}
	}
	return keys
}

// tables returns the bucket tables of data (row i under id i), in the
// index's form, ids ascending within a bucket: a bucket per code when
// dense, scrambled keys ascending otherwise.
func (r reference) tables(data []vec.Vector) []table {
	rows := make([][]uint64, len(data))
	for i, x := range data {
		rows[i] = r.keys(x, true)
	}
	tabs := make([]table, r.l)
	for t := range tabs {
		buckets := map[uint64][]int32{}
		for id, keys := range rows {
			key := keys[t]
			if !r.dense {
				key = scramble(key)
			}
			buckets[key] = append(buckets[key], int32(id))
		}
		tb := &tabs[t]
		keys := slices.Sorted(maps.Keys(buckets))
		if r.dense {
			keys = nil
			for c := range uint64(1) << r.k {
				keys = append(keys, c)
			}
		}
		for _, key := range keys {
			if !r.dense {
				tb.keys = append(tb.keys, key)
			}
			tb.offs = append(tb.offs, int32(len(tb.ids)))
			tb.ids = append(tb.ids, buckets[key]...)
		}
		tb.offs = append(tb.offs, int32(len(tb.ids)))
	}
	return tabs
}

// candidates returns the ids of tabs colliding with the probes, in
// first-collision order.
func (r reference) candidates(tabs []table, probes []vec.Vector) []int {
	keys := make([][]uint64, len(probes))
	for p, x := range probes {
		keys[p] = r.keys(x, false)
	}
	var out []int
	seen := map[int32]bool{}
	for t := range tabs {
		for p := range probes {
			for _, id := range tabs[t].bucket(keys[p][t], r.dense) {
				if !seen[id] {
					seen[id] = true
					out = append(out, int(id))
				}
			}
		}
	}
	return out
}

func sameTables(a, b []table) bool {
	return slices.EqualFunc(a, b, func(x, y table) bool {
		return slices.Equal(x.keys, y.keys) && slices.Equal(x.offs, y.offs) && slices.Equal(x.ids, y.ids)
	})
}

// hashOne returns x's keys as ix hashes a vector alone.
func hashOne(ix *Index, x vec.Vector, data bool) []uint64 {
	out := make([]uint64, ix.L)
	ix.tileKeys(new(tileHash), out, 1, func(int) vec.Vector { return x }, data)
	return out
}

// ballVecs returns n vectors inside the unit ball of R^d.
func ballVecs(rng *xrand.RNG, n, d int) []vec.Vector {
	out := make([]vec.Vector, n)
	for i := range out {
		out[i] = vec.Scaled(rng.UnitVec(d), rng.Float64())
	}
	return out
}

// equivFamilies are the families the hash-once paths are checked on:
// the packed-planes path bare and behind a pre-map, and the generic
// per-hasher path on a non-linear family.
func equivFamilies(t testing.TB, d int) map[string]Family {
	hp, err := NewHyperplane(d)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewCrossPolytope(d)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Family{"hyperplane": hp, "simple-alsh": mustSimpleALSHFamily(t, d), "cross-polytope": cp}
}

func TestIndexKeysMatchReference(t *testing.T) {
	const d, k, l, seed = 12, 5, 7, 41
	for name, f := range equivFamilies(t, d) {
		ix, err := NewIndex(f, k, l, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref := newReference(f, k, l, seed)
		for _, x := range ballVecs(xrand.New(42), 50, d) {
			for _, data := range []bool{true, false} {
				got := hashOne(ix, x, data)
				if want := ref.keys(x, data); !slices.Equal(got, want) {
					t.Fatalf("%s (data=%v): keys %v, reference %v", name, data, got, want)
				}
			}
		}
	}
}

// cloneTables deep-copies tables.
func cloneTables(ts []table) []table {
	out := make([]table, len(ts))
	for i, tb := range ts {
		out[i] = table{keys: slices.Clone(tb.keys), offs: slices.Clone(tb.offs), ids: slices.Clone(tb.ids)}
	}
	return out
}

// TestIndexExtendMatchesBuild: an index grown in random-sized steps has
// the tables of one built at once — sign-code tables dense at K = 3 and
// sparse past maxDenseK, the other family's sparse at both — and no step
// touches the tables it grew from, not even the keys a sparse table
// shares when its batch brings no fresh key.
func TestIndexExtendMatchesBuild(t *testing.T) {
	const d, n, l, seed = 12, 300, 6, 43
	rng := xrand.New(44)
	data := ballVecs(rng, n, d)
	for name, f := range equivFamilies(t, d) {
		for _, k := range []int{3, maxDenseK + 2} {
			whole, _ := NewIndex(f, k, l, seed)
			whole.InsertAll(data)
			grown, _ := NewIndex(f, k, l, seed)
			extend := func(ps []vec.Vector) {
				t.Helper()
				prev, before, size := grown, cloneTables(grown.tables), grown.Len()
				grown = grown.Extend(ps)
				if !reflect.DeepEqual(prev.tables, before) || prev.Len() != size {
					t.Fatalf("%s K=%d: Extend of %d rows onto %d changed the index it extended", name, k, len(ps), prev.Len())
				}
			}
			for lo := 0; lo < n; {
				hi := min(n, lo+rng.Intn(40)) // random-sized steps, empty ones included
				extend(data[lo:hi])
				lo = hi
			}
			if grown.Len() != n || !reflect.DeepEqual(grown.tables, whole.tables) {
				t.Fatalf("%s K=%d: tables of the grown index differ from a from-scratch build", name, k)
			}
			// A row already indexed brings no fresh key to any table.
			prev := grown
			extend(data[7:8])
			again, _ := NewIndex(f, k, l, seed)
			again.InsertAll(append(data[:n:n], data[7]))
			if !reflect.DeepEqual(grown.tables, again.tables) {
				t.Fatalf("%s K=%d: tables after re-adding row 7 differ from a from-scratch build", name, k)
			}
			for ti, tb := range grown.tables {
				if !grown.dense() && &tb.keys[0] != &prev.tables[ti].keys[0] {
					t.Fatalf("%s K=%d: table %d copied keys the batch brought nothing new to", name, k, ti)
				}
			}
			grown = prev
			for ti, tb := range grown.tables {
				if !slices.IsSorted(tb.keys) || len(tb.ids) != n || tb.offs[len(tb.offs)-1] != n {
					t.Fatalf("%s K=%d: table %d is not a sorted partition of the ids", name, k, ti)
				}
				for j := range len(tb.offs) - 1 {
					b := tb.ids[tb.offs[j]:tb.offs[j+1]]
					if len(b) == 0 && !grown.dense() || !slices.IsSorted(b) {
						t.Fatalf("%s K=%d: table %d sparse bucket %d empty, or unsorted: %v", name, k, ti, j, b)
					}
				}
			}
		}
	}
}

// TestDenseTablesMatchSparse: under a hyperplane family, bare and behind
// SIMPLE, at K = 1 and maxDenseK (the largest dense table), an index
// built in one slice or extended in several holds, code by code, the
// buckets of a sparse table a comparison sort builds from the same codes
// (scrambled, the order of sparse tables); at K = maxDenseK+1, 16 and 24
// it holds that very sparse table.
func TestDenseTablesMatchSparse(t *testing.T) {
	const d, n, l = 12, 700, 3
	data := ballVecs(xrand.New(61), n, d)
	hp, _ := NewHyperplane(d)
	for name, f := range map[string]Family{"hyperplane": hp, "simple-alsh": mustSimpleALSHFamily(t, d)} {
		for _, k := range []int{1, maxDenseK, maxDenseK + 1, 16, 24} {
			ix, _ := NewIndex(f, k, l, 62)
			type pair struct {
				code uint64
				id   int32
			}
			pairs := make([][]pair, l)
			for id, x := range data {
				for ti, code := range hashOne(ix, x, true) {
					if code >= 1<<k {
						t.Fatalf("%s K=%d: row %d table %d hashed to code %#x", name, k, id, ti, code)
					}
					pairs[ti] = append(pairs[ti], pair{scramble(code), int32(id)})
				}
			}
			sparse := make([]table, l)
			for ti, ps := range pairs {
				slices.SortFunc(ps, func(a, b pair) int {
					return cmp.Or(cmp.Compare(a.code, b.code), cmp.Compare(a.id, b.id))
				})
				tb := &sparse[ti]
				for i, p := range ps {
					if i == 0 || p.code != ps[i-1].code {
						tb.keys = append(tb.keys, p.code)
						tb.offs = append(tb.offs, int32(i))
					}
					tb.ids = append(tb.ids, p.id)
				}
				tb.offs = append(tb.offs, int32(len(ps)))
			}
			for _, cut := range [][]int{nil, evenCuts(n, 2), {1, 2, 3, 350, 699}} {
				grown := ix
				from := 0
				for _, to := range append(cut[:len(cut):len(cut)], n) {
					grown = grown.Extend(data[from:to])
					from = to
				}
				for ti, tb := range grown.tables {
					if !grown.dense() {
						if !sameTables([]table{tb}, sparse[ti:ti+1]) {
							t.Fatalf("%s K=%d cut %v: table %d differs from the sorted one", name, k, cut, ti)
						}
						continue
					}
					if tb.keys != nil || len(tb.offs) != 1<<k+1 || tb.offs[1<<k] != n || len(tb.ids) != n {
						t.Fatalf("%s K=%d cut %v: table %d is not dense over %d ids: %d keys, %d offsets",
							name, k, cut, ti, n, len(tb.keys), len(tb.offs))
					}
					for c := range uint64(1) << k {
						if got, want := tb.bucket(c, true), sparse[ti].bucket(c, false); !slices.Equal(got, want) {
							t.Fatalf("%s K=%d cut %v: table %d code %#x holds %v, sorted %v", name, k, cut, ti, c, got, want)
						}
					}
				}
			}
		}
	}
}

func TestCandidatesJointProbes(t *testing.T) {
	// Candidates(q, −q) names, once each, what Candidates(q) and
	// Candidates(−q) name.
	const d, n = 10, 400
	rng := xrand.New(45)
	ix, _ := NewIndex(mustSimpleALSHFamily(t, d), 4, 8, 46)
	ix.InsertAll(ballVecs(rng, n, d))
	for _, q := range ballVecs(rng, 20, d) {
		want := ix.Candidates(q)
		for _, id := range ix.Candidates(vec.Neg(q)) {
			if !slices.Contains(want, id) {
				want = append(want, id)
			}
		}
		got := ix.Candidates(q, vec.Neg(q))
		if len(got) != len(want) {
			t.Fatalf("joint probe names %d ids, the two probes %d", len(got), len(want))
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("joint probe %v, want %v", got, want)
		}
	}
}

// probesOf is what a query is hashed as under p, the allocating way.
func probesOf(q vec.Vector, p Probe) []vec.Vector {
	if n := vec.Norm(q); p.Radius > 0 && n > p.Radius {
		q = vec.Scaled(q, (1-1e-12)*p.Radius/n)
	}
	if p.Neg {
		return []vec.Vector{q, vec.Neg(q)}
	}
	return []vec.Vector{q}
}

// TestAppendCandidatesMatchesCandidates: the append-into-buffer entry
// point returns exactly Candidates of the probes it stands for — order
// included, behind whatever the buffer already held — and, where the
// family's maps do not allocate, a warm call allocates nothing.
func TestAppendCandidatesMatchesCandidates(t *testing.T) {
	const d, n = 10, 600
	rng := xrand.New(51)
	data := ballVecs(rng, n, d)
	inBall := ballVecs(rng, 12, d)
	var long []vec.Vector
	for _, q := range ballVecs(rng, 12, d) {
		long = append(long, vec.Scaled(q, 1.01/vec.Norm(q)+rng.Float64()))
	}
	for name, f := range equivFamilies(t, d) {
		ix, _ := NewIndex(f, 4, 8, 52)
		ix.InsertAll(data)
		buf := []int{-7}
		found := 0
		for _, p := range []Probe{{}, {Neg: true}, {Radius: 1}, {Radius: 1, Neg: true}} {
			queries := inBall
			if p.Radius > 0 {
				queries = append(queries[:len(queries):len(queries)], long...)
			}
			for _, q := range queries {
				want := ix.Candidates(probesOf(q, p)...)
				buf = ix.AppendCandidates(buf[:1], q, p)
				if buf[0] != -7 || !slices.Equal(buf[1:], want) {
					t.Fatalf("%s %+v: appended %v, Candidates %v", name, p, buf, want)
				}
				found += len(want)
			}
		}
		if found == 0 {
			t.Fatalf("%s: no probe found a candidate; the test checks nothing", name)
		}
	}
	if raceEnabled {
		return // sync.Pool drops Puts under the race detector
	}
	hp, _ := NewHyperplane(d)
	ix, _ := NewIndex(hp, 4, 8, 52)
	ix.InsertAll(data)
	buf := ix.AppendCandidates(nil, long[0], Probe{Radius: 1, Neg: true})
	if a := testing.AllocsPerRun(100, func() { buf = ix.AppendCandidates(buf[:0], long[0], Probe{Radius: 1, Neg: true}) }); a != 0 || len(buf) == 0 {
		t.Errorf("warm AppendCandidates allocates %v times for %d candidates, want 0", a, len(buf))
	}
}

// TestHashQueriesMatchesKeys: a batch hashed as one tile product carries,
// probe for probe, bit for bit the keys K·L separate hashers compute —
// across plane dimensions on both sides of the SIMD kernels' chunk and
// tail cases, tile sizes through odd quads, a tile straddling a chunk
// edge of the query store, a plane store of more than one chunk, NaN
// and ±0 rows, and on the per-hasher path.
func TestHashQueriesMatchesKeys(t *testing.T) {
	type shape struct {
		d, k, l int
		asym    bool
	}
	var shapes []shape
	for _, d := range []int{1, 3, 4, 7, 8, 16, 17, 32, 33, 64} {
		for _, k := range []int{1, 8} {
			shapes = append(shapes, shape{d, k, 3, false}, shape{d, k, 3, true})
		}
	}
	shapes = append(shapes, shape{5, 8, 130, true}) // 1 040 planes: two chunks
	rng := xrand.New(53)
	check := func(name string, ix *Index, ref reference, qs *flat.Store, lo, hi int, p Probe) {
		t.Helper()
		var qk QueryKeys
		ix.HashQueries(&qk, qs, lo, hi, p)
		at := 0
		for i := lo; i < hi; i++ {
			for _, x := range probesOf(qs.Row(i), p) {
				want := ref.keys(x, false)
				if got := qk.keys[at : at+ix.L]; !slices.Equal(got, want) {
					t.Fatalf("%s: rows [%d, %d) %+v: row %d hashed to %v in the batch, %v alone", name, lo, hi, p, i, got, want)
				}
				at += ix.L
			}
		}
		if at != len(qk.keys) {
			t.Fatalf("%s: batch holds %d keys, want %d", name, len(qk.keys), at)
		}
	}
	for _, sh := range shapes {
		var f Family
		if f, _ = NewHyperplane(sh.d); sh.asym {
			f = mustSimpleALSHFamily(t, sh.d)
		}
		ix, err := NewIndex(f, sh.k, sh.l, 54)
		if err != nil {
			t.Fatal(err)
		}
		ref := newReference(f, sh.k, sh.l, 54)
		rows := ballVecs(rng, 1100, sh.d)
		for i := range rows[:8] {
			vec.Scale(rows[40+i], 3) // outside the ball: scaled before hashing
		}
		nan, zero, negZero := make(vec.Vector, sh.d), make(vec.Vector, sh.d), make(vec.Vector, sh.d)
		nan[0] = math.NaN()
		for i := range negZero {
			negZero[i] = math.Copysign(0, -1)
		}
		rows[3], rows[4], rows[5] = nan, zero, negZero
		qs, _ := flat.FromVectors(rows)
		name := fmt.Sprintf("d=%d K=%d L=%d asym=%v", sh.d, sh.k, sh.l, sh.asym)
		for size := 1; size <= 65; size++ {
			lo := size % 7
			p := Probe{Radius: 1, Neg: size%2 == 0}
			if !sh.asym && size%3 == 0 {
				p.Radius = 0
			}
			check(name, ix, ref, qs, lo, lo+size, p)
			if sh.l > 100 {
				break // one pass over the big plane store is enough
			}
		}
		check(name, ix, ref, qs, 1000, 1060, Probe{Radius: 1, Neg: true})
	}
	cp, _ := NewCrossPolytope(12)
	ix, _ := NewIndex(cp, 3, 4, 54)
	qs, _ := flat.FromVectors(ballVecs(rng, 30, 12))
	check("cross-polytope", ix, newReference(cp, 3, 4, 54), qs, 2, 29, Probe{Radius: 0.5, Neg: true})
}

// TestAppendHashedMatchesAppendCandidates: looking a batch-hashed query
// up gives the candidates probing it alone does.
func TestAppendHashedMatchesAppendCandidates(t *testing.T) {
	const d = 10
	rng := xrand.New(55)
	ix, _ := NewIndex(mustSimpleALSHFamily(t, d), 4, 8, 56)
	ix.InsertAll(ballVecs(rng, 600, d))
	qs, _ := flat.FromVectors(ballVecs(rng, 40, d))
	for _, p := range []Probe{{Radius: 1}, {Radius: 1, Neg: true}} {
		var qk QueryKeys
		ix.HashQueries(&qk, qs, 5, 38, p)
		found := 0
		for i := 5; i < 38; i++ {
			want := ix.AppendCandidates(nil, qs.Row(i), p)
			if got, err := ix.AppendHashed(nil, &qk, i); err != nil || !slices.Equal(got, want) {
				t.Fatalf("%+v row %d: batch candidates %v (%v), alone %v", p, i, got, err, want)
			}
			found += len(want)
		}
		if found == 0 {
			t.Fatalf("%+v: no query found a candidate; the test checks nothing", p)
		}
	}
}

// TestWalkStepsMatchAppendHashed: a query's walk, table step 0 to L−1,
// names exactly AppendHashed's candidates in its first-collision order —
// each step only ids no earlier step named — on dense and sparse tables,
// signed and unsigned; one Walk, Reset between queries and indexes,
// serves them all. Keys from other hash functions, or a row they do not
// hold, fail a step and leave the walk as it was.
func TestWalkStepsMatchAppendHashed(t *testing.T) {
	const d = 10
	rng := xrand.New(57)
	data := ballVecs(rng, 600, d)
	qs, _ := flat.FromVectors(ballVecs(rng, 30, d))
	var w Walk
	for name, f := range equivFamilies(t, d) {
		for _, k := range []int{4, 9} { // hyperplane tables: dense, then sparse
			ix, _ := NewIndex(f, k, 8, 58)
			ix.InsertAll(data)
			for _, p := range []Probe{{}, {Neg: true}, {Radius: 1, Neg: true}} {
				var qk QueryKeys
				ix.HashQueries(&qk, qs, 2, 27, p)
				found := 0
				for i := 2; i < 27; i++ {
					want, err := ix.AppendHashed(nil, &qk, i)
					if err != nil {
						t.Fatal(err)
					}
					w.Reset()
					for step := range ix.L {
						if err := ix.Step(&w, &qk, i, step); err != nil {
							t.Fatalf("%s K=%d %+v row %d step %d: %v", name, k, p, i, step, err)
						}
					}
					if !slices.Equal(w.IDs, want) {
						t.Fatalf("%s K=%d %+v row %d: the walk names %v, AppendHashed %v", name, k, p, i, w.IDs, want)
					}
					found += len(want)
				}
				if found == 0 {
					t.Fatalf("%s K=%d %+v: no query found a candidate; the test checks nothing", name, k, p)
				}
			}
		}
	}
	ix, _ := NewIndex(mustSimpleALSHFamily(t, d), 4, 8, 58)
	ix.InsertAll(data)
	twin, _ := NewIndex(mustSimpleALSHFamily(t, d), 4, 8, 58)
	twin.InsertAll(data)
	var qk QueryKeys
	ix.HashQueries(&qk, qs, 2, 27, Probe{Radius: 1})
	w.Reset()
	if err := ix.Step(&w, &qk, 3, 0); err != nil || len(w.IDs) == 0 {
		t.Fatalf("row 3 step 0: %v ids, %v; the test checks nothing", len(w.IDs), err)
	}
	held := slices.Clone(w.IDs)
	for _, c := range []struct {
		name string
		ix   *Index
		row  int
	}{{"a twin index", twin, 3}, {"row 1", ix, 1}, {"row 27", ix, 27}} {
		if err := c.ix.Step(&w, &qk, c.row, 1); err == nil || !slices.Equal(w.IDs, held) {
			t.Fatalf("%s: Step gave %v with the walk at %v; want an error and %v", c.name, err, w.IDs, held)
		}
	}
}

// TestHashedKeysProbeSharedIndexes: indexes Extend derives from one
// NewIndex share its hash functions, so a query hashed once probes each of
// them — and the parts of a row split together name exactly the
// candidates one index over all the rows does. Keys from any other
// functions, even ones sampled from the same family and seed, are refused,
// as is a row the keys do not hold.
func TestHashedKeysProbeSharedIndexes(t *testing.T) {
	const d, split = 10, 250
	rng := xrand.New(61)
	fam := mustSimpleALSHFamily(t, d)
	rows := ballVecs(rng, 600, d)
	base, _ := NewIndex(fam, 4, 8, 62)
	parts := []*Index{base.Extend(rows[:split]), base.Extend(rows[split:])}
	whole := parts[0].Extend(rows[split:])
	qs, _ := flat.FromVectors(ballVecs(rng, 20, d))
	p := Probe{Radius: 1, Neg: true}
	var qk QueryKeys
	parts[1].HashQueries(&qk, qs, 3, 17, p)
	found := 0
	for i := 3; i < 17; i++ {
		var union []int
		for pi, part := range parts {
			got, err := part.AppendHashed(nil, &qk, i)
			if err != nil {
				t.Fatalf("part %d row %d: %v", pi, i, err)
			}
			if want := part.AppendCandidates(nil, qs.Row(i), p); !slices.Equal(got, want) {
				t.Fatalf("part %d row %d: shared keys name %v, the part's own hash %v", pi, i, got, want)
			}
			for _, id := range got {
				union = append(union, id+pi*split)
			}
		}
		want, err := whole.AppendHashed(nil, &qk, i)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(union)
		slices.Sort(want)
		if !slices.Equal(union, want) {
			t.Fatalf("row %d: the parts name %v together, one index over all rows %v", i, union, want)
		}
		found += len(want)
	}
	if found == 0 {
		t.Fatal("no query found a candidate; the test checks nothing")
	}
	twin, _ := NewIndex(fam, 4, 8, 62)
	twin = twin.Extend(rows)
	dst := []int{7}
	for _, c := range []struct {
		name string
		ix   *Index
		row  int
	}{{"a twin index", twin, 5}, {"row 2", whole, 2}, {"row 17", whole, 17}} {
		got, err := c.ix.AppendHashed(dst, &qk, c.row)
		if err == nil || !slices.Equal(got, dst) {
			t.Fatalf("%s: AppendHashed gave %v, %v; want an error and dst untouched", c.name, got, err)
		}
	}
}

// checkHashing is one cell of the hashing grid: the tables of an index
// grown over data in the slices each of cuts names (ascending row
// boundaries, the end implied) equal the reference's, and on it every
// probing entry point — Candidates over the probes, AppendCandidates,
// and AppendHashed behind a HashQueries of rows [lo, lo+len(queries)) of
// a store holding the queries there — returns the reference's ids in the
// reference's order, under each of probes.
func checkHashing(t testing.TB, name string, f Family, k, l int, seed uint64, data []vec.Vector, cuts [][]int, queries []vec.Vector, lo int, probes []Probe) {
	t.Helper()
	ref := newReference(f, k, l, seed)
	tabs := ref.tables(data)
	var ix *Index
	for _, cut := range cuts {
		ix, _ = NewIndex(f, k, l, seed)
		from := 0
		for _, to := range append(cut[:len(cut):len(cut)], len(data)) {
			ix = ix.Extend(data[from:to])
			from = to
		}
		if ix.Len() != len(data) || len(data) > 0 && !sameTables(ix.tables, tabs) {
			t.Fatalf("%s: tables of %d rows extended at %v differ from the reference's", name, len(data), cut)
		}
	}
	filler := make([]vec.Vector, lo, lo+len(queries))
	for i := range filler {
		filler[i] = queries[i%len(queries)]
	}
	qs, err := flat.FromVectors(append(filler, queries...))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		var qk QueryKeys
		ix.HashQueries(&qk, qs, lo, lo+len(queries), p)
		for i, q := range queries {
			pr := probesOf(q, p)
			want := ref.candidates(tabs, pr)
			hashed, err := ix.AppendHashed(nil, &qk, lo+i)
			if err != nil {
				t.Fatalf("%s: query %d: %v", name, i, err)
			}
			for path, got := range map[string][]int{
				"Candidates":       ix.Candidates(pr...),
				"AppendCandidates": ix.AppendCandidates(nil, q, p),
				"AppendHashed":     hashed,
			} {
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %d rows, query %d under %+v: %s %v, reference %v", name, len(data), i, p, path, got, want)
				}
			}
		}
	}
}

// evenCuts cuts n rows into parts near-equal slices.
func evenCuts(n, parts int) []int {
	cut := make([]int, 0, parts-1)
	for i := 1; i < parts; i++ {
		cut = append(cut, i*n/parts)
	}
	return cut
}

// signedZeros returns the vector of zeros whose signs are those of a
// (flip: the opposite ones), so every product with a is +0 (−0).
func signedZeros(a vec.Vector, flip bool) vec.Vector {
	z := make(vec.Vector, len(a))
	for i, v := range a {
		z[i] = math.Copysign(0, v)
		if flip {
			z[i] = -z[i]
		}
	}
	return z
}

// TestIndexHashGrid: the one hashing function against K·L separate
// hashers, for Hyperplane bare and behind SIMPLE — plane dimensions below
// one 4-double chunk (the Go kernels), on a chunk edge and with an
// element tail; K·L leaving a quad, a pair and a single plane over when
// the planes are the kernel's queries; K past maxDenseK (sparse tables)
// and past 64 (no sign code: the hashers); batches through the kernel's
// leftovers and hashStep's edges, built in 1, 2 and 7 slices; queries
// inside and outside the radius, with and without −q, in a tile that
// straddles a chunk edge of the query store; and zero vectors and ±0
// coordinates on both sides.
func TestIndexHashGrid(t *testing.T) {
	rng := xrand.New(57)
	for _, d := range []int{1, 2, 3, 4, 5, 16, 32, 33, 64} {
		queries := ballVecs(rng, 9, d)
		vec.Scale(queries[1], 1.5/vec.Norm(queries[1]))
		vec.Scale(queries[2], 40/vec.Norm(queries[2]))
		queries[3] = make(vec.Vector, d)
		queries[4] = signedZeros(queries[0], true)
		for _, kl := range [][2]int{{1, 1}, {3, 1}, {2, 2}, {2, 3}, {8, 16}, {maxDenseK + 2, 2}, {65, 1}} {
			for _, batch := range []int{1, 2, 3, 4, 5, 255, 256, 257, 1500} {
				if batch == 1500 && raceEnabled && d != 32 {
					continue // the big build at one dimension is enough at the detector's speed
				}
				data := ballVecs(rng, batch, d)
				data[batch/2] = make(vec.Vector, d)
				data[batch/3] = signedZeros(data[0], batch%2 == 0)
				cuts := [][]int{nil, evenCuts(batch, 2), evenCuts(batch, 7)}
				hp, _ := NewHyperplane(d)
				name := fmt.Sprintf("d=%d K=%d L=%d", d, kl[0], kl[1])
				checkHashing(t, "hyperplane "+name, hp, kl[0], kl[1], 58, data, cuts, queries, 1020,
					[]Probe{{}, {Neg: true}, {Radius: 1}, {Radius: 1, Neg: true}})
				checkHashing(t, "simple-alsh "+name, mustSimpleALSHFamily(t, d), kl[0], kl[1], 58, data, cuts, queries, 1020,
					[]Probe{{Radius: 1}, {Radius: 1, Neg: true}})
			}
		}
	}
}

// TestIndexHashOnPlane: a vector exactly on a hyperplane — a projection
// of +0, whatever the signs of its zero products — hashes as +0 on every
// path, data side and query side, alone and in a batch, at d = 8 and 16
// as at any other d.
func TestIndexHashOnPlane(t *testing.T) {
	for _, d := range []int{2, 5, 8, 16, 33} {
		hp, _ := NewHyperplane(d)
		const k, l = 3, 4
		ix, _ := NewIndex(hp, k, l, 59)
		var on []vec.Vector
		for r := 0; r < k*l; r++ {
			a := ix.planes.Row(r)
			orth := make(vec.Vector, d)
			orth[0], orth[1] = a[1], -a[0] // a₀a₁ − a₁a₀ is +0 exactly
			on = append(on, orth, vec.Neg(orth), signedZeros(a, false), signedZeros(a, true))
		}
		for _, batch := range []int{1, 2, 3, 4, 5, len(on)} {
			name := fmt.Sprintf("on-plane d=%d batch=%d", d, batch)
			checkHashing(t, name, hp, k, l, 59, on[:batch], [][]int{nil, evenCuts(batch, 2)}, on, 3, []Probe{{}, {Neg: true}})
		}
		ref := newReference(hp, k, l, 59)
		zeros := 0
		for _, x := range on {
			for r := 0; r < k*l; r++ {
				if ix.planes.Dot(r, x) == 0 {
					zeros++
				}
			}
			if got, want := hashOne(ix, x, true), ref.keys(x, true); !slices.Equal(got, want) {
				t.Fatalf("d=%d: %v alone hashed to %v, reference %v", d, x, got, want)
			}
		}
		if zeros < len(on) {
			t.Fatalf("d=%d: %d zero projections among %d on-plane vectors; the test checks nothing", d, zeros, len(on))
		}
	}
}

// FuzzIndexHash drives checkHashing over random shapes: dimension, K (to
// maxDenseK on dense tables, past it on sparse ones, up to 18), L, row
// count, the two points the build is split at — so the last extend grows
// tables already extended once — and how the queries probe.
func FuzzIndexHash(f *testing.F) {
	f.Add(uint64(1), uint8(32), uint8(8), uint8(16), uint16(300), uint16(256), uint16(284), true, true)
	f.Add(uint64(2), uint8(3), uint8(1), uint8(3), uint16(5), uint16(1), uint16(1), false, false)
	f.Add(uint64(3), uint8(16), uint8(2), uint8(3), uint16(513), uint16(257), uint16(17), false, true)
	f.Fuzz(func(t *testing.T, seed uint64, d, k, l uint8, rows, split1, split2 uint16, asym, neg bool) {
		dim, K, L, n := int(d%70)+1, int(k%18)+1, int(l%17)+1, int(rows%700)+1
		rng := xrand.New(seed)
		var fam Family
		if fam, _ = NewHyperplane(dim); asym {
			fam = mustSimpleALSHFamily(t, dim)
		}
		data, queries := ballVecs(rng, n, dim), ballVecs(rng, 1+int(seed%6), dim)
		data[int(seed>>8)%n] = make(vec.Vector, dim)
		vec.Scale(queries[0], 3)
		a, b := int(split1)%(n+1), int(split2)%(n+1)
		checkHashing(t, fmt.Sprintf("seed=%d d=%d K=%d L=%d asym=%v", seed, dim, K, L, asym), fam, K, L, seed,
			data, [][]int{{min(a, b), max(a, b)}}, queries, int(seed>>16)%5, []Probe{{Radius: 1, Neg: neg}})
	})
}

func TestIndexProbesDuringExtend(t *testing.T) {
	// Readers keep probing an index while a writer extends it: Extend
	// must leave the extended index alone, and the pooled probe scratch
	// must not leak state between goroutines.
	const d, n, readers = 10, 300, 4
	rng := xrand.New(47)
	data, queries := ballVecs(rng, n, d), ballVecs(rng, 8, d)
	base, _ := NewIndex(mustSimpleALSHFamily(t, d), 4, 8, 48)
	base.InsertAll(data[:100])
	want := make([][]int, len(queries))
	for i, q := range queries {
		want[i] = base.Candidates(q, vec.Neg(q))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := i % len(queries)
				if got := base.Candidates(queries[qi], vec.Neg(queries[qi])); !slices.Equal(got, want[qi]) {
					t.Errorf("probe %d changed under a concurrent Extend: %v, want %v", qi, got, want[qi])
					return
				}
			}
		}()
	}
	grown := base
	for lo := 100; lo < n; lo += 20 {
		grown = grown.Extend(data[lo : lo+20])
		grown.Candidates(queries[0])
	}
	close(stop)
	wg.Wait()
	if grown.Len() != n || base.Len() != 100 {
		t.Fatalf("sizes after extending: grown %d, base %d", grown.Len(), base.Len())
	}
}

// benchIndex is the shape of one ALSH shard of the serving benchmark:
// 1 500 rows of dimension 32 under SIMPLE + hyperplane at K=8, L=16.
func benchIndex(t testing.TB) (ix *Index, data, extra, queries []vec.Vector) {
	const d = 32
	rng := xrand.New(29)
	ix, err := NewIndex(mustSimpleALSHFamily(t, d), 8, 16, 30)
	if err != nil {
		t.Fatal(err)
	}
	return ix, ballVecs(rng, 1500, d), ballVecs(rng, 64, d), ballVecs(rng, 64, d)
}

func TestCandidatesAllocs(t *testing.T) {
	// A warm probe allocates its result and nothing else: not per table,
	// per hasher, or per probe (SIMPLE maps into the hashing scratch).
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	ix, data, _, queries := benchIndex(t)
	ix.InsertAll(data)
	q, nq := queries[0], vec.Neg(queries[0])
	if len(ix.Candidates(q, nq)) == 0 {
		t.Fatal("probe found no candidates; the guard would measure nothing")
	}
	if a := testing.AllocsPerRun(100, func() { ix.Candidates(q) }); a > 1 {
		t.Errorf("Candidates(q) allocates %v times per call, want <= 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { ix.Candidates(q, nq) }); a > 1 {
		t.Errorf("Candidates(q, -q) allocates %v times per call, want <= 1", a)
	}
	hp, _ := NewHyperplane(len(q))
	bare, _ := NewIndex(hp, 8, 16, 30)
	bare.InsertAll(data)
	if a := testing.AllocsPerRun(100, func() { bare.Candidates(q) }); a > 1 {
		t.Errorf("bare hyperplane Candidates allocates %v times per call, want <= 1", a)
	}
}

var benchSink int

// BenchmarkIndexBuild builds one shard's index and reports how many of
// a table's 2^K codes its rows occupy, on average: a dense table costs
// 4·(2^K+1) bytes whatever its occupancy, 12 per occupied key sparse.
func BenchmarkIndexBuild(b *testing.B) {
	ix, data, _, _ := benchIndex(b)
	b.ReportAllocs()
	built := ix
	for b.Loop() {
		built = ix.Extend(data)
		benchSink += built.Len()
	}
	occupied := 0
	for _, tb := range built.tables {
		for j := range len(tb.offs) - 1 {
			if tb.offs[j+1] > tb.offs[j] {
				occupied++
			}
		}
	}
	b.ReportMetric(float64(occupied)/float64(built.L), "codes/table")
}

// BenchmarkIndexExtend shows the terms of an extend's cost for b rows
// onto n: hashing the batch, O(b·K·L·d); counting each band's codes,
// O(b); and rewriting each table — its 2^K+1 offsets, then the n old ids
// moved a run at a time into a freshly zeroed L·(n+b) ids array, O(n·L)
// whatever b.
func BenchmarkIndexExtend(b *testing.B) {
	for _, n := range []int{1500, 24000} {
		ix, _, _, _ := benchIndex(b)
		ix.InsertAll(ballVecs(xrand.New(31), n, 32))
		for _, rows := range []int{16, 1500} {
			extra := ballVecs(xrand.New(32), rows, 32)
			b.Run(fmt.Sprintf("n=%d/b=%d", n, rows), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					benchSink += ix.Extend(extra).Len()
				}
			})
		}
	}
}

// BenchmarkIndexHashQueries hashes one batch-search tile.
func BenchmarkIndexHashQueries(b *testing.B) {
	ix, _, _, queries := benchIndex(b)
	qs, _ := flat.FromVectors(queries)
	for _, neg := range []bool{false, true} {
		b.Run(fmt.Sprintf("tile=32/neg=%v", neg), func(b *testing.B) {
			var qk QueryKeys
			b.ReportAllocs()
			for b.Loop() {
				ix.HashQueries(&qk, qs, 0, 32, Probe{Radius: 1, Neg: neg})
				benchSink += len(qk.keys)
			}
		})
	}
}

func BenchmarkIndexCandidates(b *testing.B) {
	ix, data, _, queries := benchIndex(b)
	ix.InsertAll(data)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		benchSink += len(ix.Candidates(queries[i%len(queries)]))
		i++
	}
}
