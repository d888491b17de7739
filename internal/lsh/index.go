package lsh

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/flat"
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
	// planes — the same normals packed as a (K·L)×D store, which on the
	// planted-alsh benchmark builds 26% and joins 28% faster than K·L
	// Hasher calls (CHANGES.md, PR 14), and lets a batch of queries be
	// hashed as one tile product (HashQueries).
	hashers []Hasher
	planes  *flat.Store
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
		// here consumes the identical RNG stream.
		normals := make([]vec.Vector, k*l)
		for r := range normals {
			normals[r] = rng.NormalVec(hp.D)
		}
		var err error
		ix.planes, err = flat.FromVectors(normals)
		return ix, err
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

// signBit is the hyperplane hash of a projection. The comparison treats
// −0 as +0, so kernels that agree to the sign of a zero hash alike.
func signBit(dot float64) uint64 {
	if dot >= 0 {
		return 1
	}
	return 0
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
		if d := ix.planes.Dim(); len(x) != d {
			panic(fmt.Sprintf("lsh: vector dimension %d != %d", len(x), d))
		}
		r := 0
		for i := range out {
			key := keySeed
			for j := 0; j < ix.K; j, r = j+1, r+1 {
				key = foldKey(key, signBit(vec.DotKernel(ix.planes.Row(r), x)))
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

// Probe says how a query reaches the index beyond its own hash.
type Probe struct {
	// Radius, when positive, is the radius of the ball the family's query
	// map is defined on (SIMPLE's U): a longer query is hashed scaled to
	// just inside it — the hash reads direction only — so no query is
	// out of the map's domain.
	Radius float64
	// Neg probes −q too: the paper's reduction of unsigned search to
	// signed.
	Neg bool
}

// probeScratch is the per-call working set of a probe, pooled so a warm
// call allocates nothing but what the family's maps do.
type probeScratch struct {
	keys    []uint64
	buckets [][]int32
	seen    []uint64 // bitset over ids; all zero between calls
	probeBufs
}

var probePool = sync.Pool{New: func() any { return new(probeScratch) }}

// probeBufs holds the vectors a query is hashed as, reused from query
// to query.
type probeBufs struct{ scaled, neg vec.Vector }

// of returns what q is hashed as under p — q′: q itself, or q scaled to
// just inside p.Radius when it is longer — and, with p.Neg, −q′ (nil
// without): vec.Scaled's and vec.Neg's values, in b's storage.
func (b *probeBufs) of(q vec.Vector, p Probe) (pos, neg vec.Vector) {
	if p.Radius > 0 {
		if n := vec.Norm(q); n > p.Radius {
			b.scaled = vec.Scale(append(b.scaled[:0], q...), (1-1e-12)*p.Radius/n)
			q = b.scaled
		}
	}
	if !p.Neg {
		return q, nil
	}
	b.neg = vec.Scale(append(b.neg[:0], q...), -1)
	return q, b.neg
}

// Candidates returns the deduplicated ids colliding with any of qs in
// any table, in first-collision order (probes in argument order, tables
// in index order, ids ascending within a bucket); callers needing id
// order should sort. Passing q and −q together is the paper's unsigned
// reduction. The result length is also the probes' candidate cost.
func (ix *Index) Candidates(qs ...vec.Vector) []int {
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	sc.buckets = sc.buckets[:0]
	for _, q := range qs {
		ix.collide(sc, q)
	}
	return ix.distinct(sc, nil)
}

// AppendCandidates appends to dst — the caller's buffer, reused from
// query to query — exactly Candidates(q′) or, with p.Neg,
// Candidates(q′, −q′) (see probeBufs.of). The probes live in pooled
// scratch: the family's maps must not keep their argument.
func (ix *Index) AppendCandidates(dst []int, q vec.Vector, p Probe) []int {
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	sc.buckets = sc.buckets[:0]
	pos, neg := sc.of(q, p)
	ix.collide(sc, pos)
	if neg != nil {
		ix.collide(sc, neg)
	}
	return ix.distinct(sc, dst)
}

// QueryKeys holds the table keys of a batch of queries — a join's
// Q-tile — as HashQueries hashed them. The zero value is ready to use; a
// reused one keeps its buffers. Not to be copied once used.
type QueryKeys struct {
	keys   []uint64 // probe-major, L apiece; a query's probes adjacent
	per    int      // probes per query: q′, and −q′ with Probe.Neg
	probes flat.Store
	dots   []float64
	probeBufs
}

// HashQueries fills qk with the keys of query rows [lo, hi) of qs under
// p: for each, bit for bit the keys AppendCandidates hashes. Hyperplane
// normals being one store, the whole batch is hashed as a single tile
// product of the (mapped) probes against it — flat's multi-query kernel
// — instead of K·L inner products per probe; its scores equal keys' to
// the sign of a zero, which signBit does not read.
func (ix *Index) HashQueries(qk *QueryKeys, qs *flat.Store, lo, hi int, p Probe) {
	qk.per = 1
	if p.Neg {
		qk.per = 2
	}
	np := (hi - lo) * qk.per
	qk.keys = slices.Grow(qk.keys[:0], np*ix.L)[:np*ix.L]
	// hash takes the r-th probe: straight to its keys, or, mapped, into the
	// probe store the tile product below reads.
	hash := func(r int, x vec.Vector) { ix.keys(x, false, qk.keys[r*ix.L:(r+1)*ix.L]) }
	if ix.planes != nil {
		if err := qk.probes.ResetDim(ix.planes.Dim()); err != nil {
			panic("lsh: " + err.Error())
		}
		hash = func(_ int, x vec.Vector) {
			if m := ix.maps.Query; m != nil {
				x = m(x)
			}
			if err := qk.probes.Append(x); err != nil {
				panic("lsh: " + err.Error())
			}
		}
	}
	for i := lo; i < hi; i++ {
		pos, neg := qk.of(qs.Row(i), p)
		r := (i - lo) * qk.per
		hash(r, pos)
		if neg != nil {
			hash(r+1, neg)
		}
	}
	if ix.planes == nil {
		return
	}
	kl := ix.K * ix.L
	qk.dots = slices.Grow(qk.dots[:0], np*kl)[:np*kl]
	if err := ix.planes.DotTile(&qk.probes, 0, np, 0, kl, qk.dots); err != nil {
		panic("lsh: " + err.Error())
	}
	for i, dots := 0, qk.dots; i < len(qk.keys); i++ {
		key := keySeed
		for _, dot := range dots[:ix.K] {
			key = foldKey(key, signBit(dot))
		}
		qk.keys[i], dots = key, dots[ix.K:]
	}
}

// AppendHashed is AppendCandidates for the j-th query HashQueries
// hashed into qk.
func (ix *Index) AppendHashed(dst []int, qk *QueryKeys, j int) []int {
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	sc.buckets = sc.buckets[:0]
	ix.lookup(sc, qk.keys[j*qk.per*ix.L:(j+1)*qk.per*ix.L])
	return ix.distinct(sc, dst)
}

// collide adds q's non-empty bucket in every table to sc.buckets.
func (ix *Index) collide(sc *probeScratch, q vec.Vector) {
	sc.keys = slices.Grow(sc.keys[:0], ix.L)[:ix.L]
	ix.keys(q, false, sc.keys)
	ix.lookup(sc, sc.keys)
}

// lookup adds to sc.buckets the non-empty bucket of each key, keys
// being one or more probes' L table keys back to back.
func (ix *Index) lookup(sc *probeScratch, keys []uint64) {
	for i, key := range keys {
		if b := ix.tables[i%ix.L].bucket(key); len(b) > 0 {
			sc.buckets = append(sc.buckets, b)
		}
	}
}

// distinct appends each id of sc.buckets to dst once, in bucket order,
// and drops the buckets.
func (ix *Index) distinct(sc *probeScratch, dst []int) []int {
	total := 0
	for _, b := range sc.buckets {
		total += len(b)
	}
	if total == 0 {
		return dst
	}
	if words := (ix.n + 63) / 64; len(sc.seen) < words {
		sc.seen = make([]uint64, words)
	}
	base := len(dst)
	dst = slices.Grow(dst, min(total, ix.n))
	for _, b := range sc.buckets {
		for _, id := range b {
			w, bit := id>>6, uint64(1)<<(id&63)
			if sc.seen[w]&bit == 0 {
				sc.seen[w] |= bit
				dst = append(dst, int(id))
			}
		}
	}
	for _, id := range dst[base:] {
		sc.seen[id>>6] = 0
	}
	clear(sc.buckets) // drop the references into ix's tables
	return dst
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
