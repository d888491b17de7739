package lsh

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// Index is a classic (K, L) banding LSH index: L tables, each keyed by
// the concatenation of K independently sampled hash functions. With a
// family of quality ρ and K ≈ log n, L ≈ n^ρ the index answers
// approximate queries in sublinear time — this is the data-structure
// side of the paper's upper bounds.
//
// A vector is hashed once: the family's pre-map (the maps of an
// Asymmetric family) runs once per vector in front of all K·L
// functions, and hyperplane normals sit in one contiguous matrix so the
// L table keys fall out of a single matrix–vector pass. The index keeps
// ids only — callers own the vectors and score candidates by id.
type Index struct {
	K, L int
	// maps is the pre-map of an Asymmetric family (nil funcs otherwise),
	// applied once per vector rather than once per hash function.
	maps MapPair
	// The K·L sampled functions, table-major: hashers, or for Hyperplane
	// planes — the same normals packed as a (K·L)×D matrix, which on the
	// planted-alsh benchmark builds 26% and joins 28% faster than K·L
	// Hasher calls (CHANGES.md, PR 14).
	hashers []Hasher
	planes  *vec.Matrix
	tables  []table
	n       int
}

// table is one band's buckets in CSR form: keys ascending, and bucket j
// is ids[offs[j]:offs[j+1]], ids ascending. Tables are never mutated
// once built; growth builds fresh ones (see Extend).
type table struct {
	keys []uint64
	offs []int32
	ids  []int32
}

// bucket returns the ids stored under key (nil when absent).
func (t *table) bucket(key uint64) []int32 {
	j, ok := slices.BinarySearch(t.keys, key)
	if !ok {
		return nil
	}
	return t.ids[t.offs[j]:t.offs[j+1]]
}

// NewIndex samples K·L hash functions from the family. Deterministic
// given the seed.
func NewIndex(f Family, k, l int, seed uint64) (*Index, error) {
	if f == nil {
		return nil, fmt.Errorf("lsh: nil family")
	}
	if k <= 0 || l <= 0 {
		return nil, fmt.Errorf("lsh: invalid index shape K=%d L=%d", k, l)
	}
	ix := &Index{K: k, L: l, tables: make([]table, l)}
	if a, ok := f.(*Asymmetric); ok {
		// Asymmetric.Sample only wraps Inner.Sample, so sampling the inner
		// family directly consumes the identical RNG stream.
		ix.maps, f = a.Maps, a.Inner
	}
	rng := xrand.New(seed)
	if hp, ok := f.(*Hyperplane); ok {
		// Hyperplane.Sample draws one normal per function; drawing them
		// straight into the matrix consumes the identical RNG stream.
		ix.planes = vec.NewMatrix(k*l, hp.D)
		for r := 0; r < k*l; r++ {
			ix.planes.SetRow(r, rng.NormalVec(hp.D))
		}
		return ix, nil
	}
	ix.hashers = make([]Hasher, k*l)
	for r := range ix.hashers {
		ix.hashers[r] = f.Sample(rng)
	}
	return ix, nil
}

// keySeed and foldKey fold K hash values into one table key
// (FNV-1a-style with an extra xor-shift).
const keySeed = uint64(1469598103934665603)

func foldKey(key, h uint64) uint64 {
	key ^= h
	key *= 1099511628211
	return key ^ key>>29
}

// keys writes x's L table keys into out: the data side of the family
// when data is true, the query side otherwise.
func (ix *Index) keys(x vec.Vector, data bool, out []uint64) {
	m := ix.maps.Query
	if data {
		m = ix.maps.Data
	}
	if m != nil {
		x = m(x)
	}
	if ix.planes != nil {
		d := ix.planes.Cols
		if len(x) != d {
			panic(fmt.Sprintf("lsh: vector dimension %d != %d", len(x), d))
		}
		r := 0
		for i := range out {
			key := keySeed
			for j := 0; j < ix.K; j, r = j+1, r+1 {
				var h uint64
				if vec.DotKernel(ix.planes.Data[r*d:(r+1)*d], x) >= 0 {
					h = 1
				}
				key = foldKey(key, h)
			}
			out[i] = key
		}
		return
	}
	for i := range out {
		key := keySeed
		for _, h := range ix.hashers[i*ix.K : (i+1)*ix.K] {
			if data {
				key = foldKey(key, h.HashData(x))
			} else {
				key = foldKey(key, h.HashQuery(x))
			}
		}
		out[i] = key
	}
}

// keyed is one new row's key in the table being merged.
type keyed struct {
	key uint64
	id  int32
}

// compareKeyed orders by (key, id), the order merge consumes.
func compareKeyed(a, b keyed) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// merge returns a fresh table holding t's buckets plus add, which must
// be sorted by (key, id) with every id above all of t's.
func (t *table) merge(add []keyed, ids []int32) table {
	fresh, i := 0, 0
	for j, a := range add {
		if j > 0 && a.key == add[j-1].key {
			continue
		}
		for i < len(t.keys) && t.keys[i] < a.key {
			i++
		}
		if i == len(t.keys) || t.keys[i] != a.key {
			fresh++
		}
	}
	nt := table{
		keys: make([]uint64, 0, len(t.keys)+fresh),
		offs: make([]int32, 0, len(t.keys)+fresh+1),
		ids:  ids[:0],
	}
	i, j := 0, 0
	for i < len(t.keys) || j < len(add) {
		var key uint64
		if j == len(add) || (i < len(t.keys) && t.keys[i] < add[j].key) {
			key = t.keys[i]
		} else {
			key = add[j].key
		}
		nt.keys = append(nt.keys, key)
		nt.offs = append(nt.offs, int32(len(nt.ids)))
		if i < len(t.keys) && t.keys[i] == key {
			nt.ids = append(nt.ids, t.ids[t.offs[i]:t.offs[i+1]]...)
			i++
		}
		for ; j < len(add) && add[j].key == key; j++ {
			nt.ids = append(nt.ids, add[j].id)
		}
	}
	nt.offs = append(nt.offs, int32(len(nt.ids)))
	return nt
}

// Extend returns a new index over ix's vectors followed by ps (ids
// continue from ix.Len()). Only ps is hashed; the old buckets are merged
// into fresh tables in O(n·L) id copies, so ix is untouched and stays
// valid for concurrent readers. The two share nothing but the immutable
// hash functions, and neither retains ps. The result's tables are
// identical to those of an index built over all the vectors at once.
func (ix *Index) Extend(ps []vec.Vector) *Index {
	if len(ps) == 0 {
		return ix
	}
	n := ix.n + len(ps)
	if int(int32(n)) != n {
		panic(fmt.Sprintf("lsh: index size %d overflows int32 ids", n))
	}
	keys := make([]uint64, len(ps)*ix.L) // row-major: vector r, table t
	for r, p := range ps {
		ix.keys(p, true, keys[r*ix.L:(r+1)*ix.L])
	}
	nx := *ix
	nx.n = n
	nx.tables = make([]table, ix.L)
	ids := make([]int32, ix.L*n) // every table's ids, one allocation
	add := make([]keyed, len(ps))
	for t := range nx.tables {
		for r := range add {
			add[r] = keyed{key: keys[r*ix.L+t], id: int32(ix.n + r)}
		}
		slices.SortFunc(add, compareKeyed)
		nx.tables[t] = ix.tables[t].merge(add, ids[t*n:(t+1)*n:(t+1)*n])
	}
	return &nx
}

// InsertAll adds a batch of data vectors in place. The receiver must
// not be shared with concurrent readers; use Extend for that.
func (ix *Index) InsertAll(ps []vec.Vector) { *ix = *ix.Extend(ps) }

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return ix.n }

// probeScratch is the per-call working set of Candidates, pooled so a
// warm call allocates nothing but its result.
type probeScratch struct {
	keys    []uint64
	buckets [][]int32
	seen    []uint64 // bitset over ids; all zero between calls
}

var probePool = sync.Pool{New: func() any { return new(probeScratch) }}

// Candidates returns the deduplicated ids colliding with any of qs in
// any table, in first-collision order (probes in argument order, tables
// in index order, ids ascending within a bucket); callers needing id
// order should sort. Passing q and −q together is the paper's unsigned
// reduction. The result length is also the probes' candidate cost.
func (ix *Index) Candidates(qs ...vec.Vector) []int {
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	sc.keys = slices.Grow(sc.keys[:0], ix.L)[:ix.L]
	sc.buckets = sc.buckets[:0]
	total := 0
	for _, q := range qs {
		ix.keys(q, false, sc.keys)
		for t, key := range sc.keys {
			if b := ix.tables[t].bucket(key); len(b) > 0 {
				sc.buckets = append(sc.buckets, b)
				total += len(b)
			}
		}
	}
	if total == 0 {
		return nil
	}
	if words := (ix.n + 63) / 64; len(sc.seen) < words {
		sc.seen = make([]uint64, words)
	}
	out := make([]int, 0, min(total, ix.n))
	for _, b := range sc.buckets {
		for _, id := range b {
			w, bit := id>>6, uint64(1)<<(id&63)
			if sc.seen[w]&bit == 0 {
				sc.seen[w] |= bit
				out = append(out, int(id))
			}
		}
	}
	for _, id := range out {
		sc.seen[id>>6] = 0
	}
	clear(sc.buckets) // drop the references into ix's tables
	return out
}

// Query returns the candidate id maximising score over the ids
// colliding with q, or (-1, 0) when no candidate collides. Typical
// scores: the inner product of the caller's vector id with the raw
// query (signed MIPS) or its absolute value (unsigned).
func (ix *Index) Query(q vec.Vector, score func(id int) float64) (int, float64) {
	best, bv := -1, 0.0
	for _, id := range ix.Candidates(q) {
		if v := score(id); best == -1 || v > bv {
			best, bv = id, v
		}
	}
	return best, bv
}
