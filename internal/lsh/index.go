package lsh

import (
	"fmt"
	"math/bits"
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
// A vector is hashed once, and every vector the same way (tileKeys):
// the family's pre-map (the maps of an Asymmetric family) runs once per
// vector in front of all K·L functions, and hyperplane normals sit in
// one (K·L)-row store, so the keys of a batch of vectors — the rows of a
// build or an extend, a join's or a batch search's Q-tile, one query's
// q′ and −q′ — fall out of a single tile product against it. The index
// keeps ids only — callers own the vectors and score candidates by id.
type Index struct {
	K, L int
	// maps is the pre-map of an Asymmetric family (nil funcs otherwise),
	// applied once per vector rather than once per hash function.
	maps MapPair
	// The K·L sampled functions, table-major: hashers, or for Hyperplane
	// planes — the same normals packed as a (K·L)×D store for flat's
	// multi-query kernel.
	hashers []Hasher
	planes  *flat.Store
	tables  []table
	n       int
}

// table is one band's buckets in CSR form: keys ascending, and bucket j
// is ids[offs[j]:offs[j+1]], ids ascending; an empty table is the one
// offset 0. Tables are never mutated once built, so a table Extend
// writes may share its keys with the table it grew from.
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
	empty := []int32{0}
	for t := range ix.tables {
		ix.tables[t].offs = empty
	}
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

// signBit is the hyperplane hash of a projection: 1 for ≥ 0, so a
// zero projection hashes as 1 whatever its sign.
func signBit(dot float64) uint64 {
	if dot >= 0 {
		return 1
	}
	return 0
}

// keys writes into out the L table keys of x, already through the
// family's pre-map, under the sampled hashers — the families that are
// not Hyperplane, which the paper artifact's figures use.
func (ix *Index) keys(x vec.Vector, data bool, out []uint64) {
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

// hashStep is how many vectors one tile product hashes, so the dot
// buffer stays small (hashStep·K·L floats — 256 KiB at the served
// K·L = 128) however many rows a build hashes.
const hashStep = 256

// tileHash is tileKeys' working set. The zero value is ready to use and
// a reused one keeps its buffers.
type tileHash struct {
	probes flat.Store // one step's mapped vectors, a row each
	dots   []float64  // their inner products with the planes
}

// tileKeys is the index's one hashing function: it writes into out the L
// table keys of each of n vectors — at(i) the i-th, asked for once each,
// in order — on the data side of the family when data is true, the query
// side otherwise. Every vector goes through the family's pre-map once.
// Sampled hashers then hash it alone; under a Hyperplane family the
// mapped vectors become the rows of a probe store, hashStep at a time,
// and one tile product gives every probe·plane inner product, whose signs
// fold into the keys. The product has vec.Dot's bits in either
// orientation (a·b = b·a exactly, along the same 4-lane unfused chain
// from +0), so the orientation is the kernel's best: flat runs its SIMD
// micro-kernel on quads of query rows, so fewer than four probes (one
// search's q′ and −q′) are its data rows under the planes as queries,
// and a batch is the queries over the planes.
func (ix *Index) tileKeys(h *tileHash, out []uint64, n int, at func(int) vec.Vector, data bool) {
	m := ix.maps.Query
	if data {
		m = ix.maps.Data
	}
	mapped := func(i int) vec.Vector {
		if m != nil {
			return m(at(i))
		}
		return at(i)
	}
	if ix.planes == nil {
		for i := 0; i < n; i++ {
			ix.keys(mapped(i), data, out[i*ix.L:(i+1)*ix.L])
		}
		return
	}
	must := func(err error) {
		if err != nil {
			panic("lsh: " + err.Error()) // a vector of the wrong dimension
		}
	}
	kl := ix.K * ix.L
	for lo := 0; lo < n; lo += hashStep {
		np := min(n-lo, hashStep)
		must(h.probes.ResetDim(ix.planes.Dim()))
		for v := 0; v < np; v++ {
			must(h.probes.Append(mapped(lo + v)))
		}
		h.dots = slices.Grow(h.dots[:0], np*kl)[:np*kl]
		probe, plane := kl, 1 // dots[v*probe+r*plane] is probe v · plane r
		if np < 4 {
			probe, plane = 1, np
			must(h.probes.DotTile(ix.planes, 0, kl, 0, np, h.dots))
		} else {
			must(ix.planes.DotTile(&h.probes, 0, np, 0, kl, h.dots))
		}
		for v, keys := 0, out[lo*ix.L:]; v < np; v++ {
			d := v * probe
			for t := 0; t < ix.L; t++ {
				key := keySeed
				for j := 0; j < ix.K; j, d = j+1, d+plane {
					key = foldKey(key, signBit(h.dots[d]))
				}
				keys[v*ix.L+t] = key
			}
		}
	}
}

// grouper turns one band of a batch's keys into the batch's own table
// without comparing rows: an open-addressed table counts each distinct
// key, only the distinct keys are sorted (at most 2^K of them under a
// hyperplane family), and a counting pass places the ids — ascending
// within a bucket, since rows are placed in id order. merge then splices
// that table into an old one. The zero value is ready to use and a
// reused one keeps its buffers.
type grouper struct {
	slots []slot  // open-addressed on the key's low bits; empty between calls
	row   []int32 // each row's slot
	at    []int32 // each batch key's slot, then its insertion point in the old keys (^p when absent)
	tab   table   // the batch's table
}

// slot is one distinct key of the batch being grouped.
type slot struct {
	key  uint64
	n    int32 // rows under key, then where the next of them goes
	full bool
}

// slotOf returns the slot holding key, or the empty slot it belongs in.
// Table keys come out of foldKey's multiply and shift, so their low bits
// are already mixed.
func slotOf(slots []slot, key uint64) int {
	mask := uint64(len(slots) - 1)
	s := key & mask
	for slots[s].full && slots[s].key != key {
		s = (s + 1) & mask
	}
	return int(s)
}

// group fills g.tab with band t of b rows' keys — row-major, l to a
// row — row r under id base+r.
func (g *grouper) group(keys []uint64, l, t, b int, base int32) {
	size := 1 << bits.Len(uint(2*b)) // over twice the rows: probes stay short
	if len(g.slots) < size {
		g.slots = make([]slot, size)
	}
	slots := g.slots[:size]
	g.row = slices.Grow(g.row[:0], b)[:b]
	g.tab.keys = g.tab.keys[:0]
	for r := range g.row {
		key := keys[r*l+t]
		s := slotOf(slots, key)
		if !slots[s].full {
			slots[s] = slot{key: key, full: true}
			g.tab.keys = append(g.tab.keys, key)
		}
		slots[s].n++
		g.row[r] = int32(s)
	}
	slices.Sort(g.tab.keys)
	nk := len(g.tab.keys)
	g.tab.offs = slices.Grow(g.tab.offs[:0], nk+1)[:nk+1]
	g.at = slices.Grow(g.at[:0], nk)[:nk]
	off := int32(0)
	for j, key := range g.tab.keys {
		s := slotOf(slots, key)
		g.at[j], g.tab.offs[j] = int32(s), off
		off, slots[s].n = off+slots[s].n, off
	}
	g.tab.offs[nk] = off
	g.tab.ids = slices.Grow(g.tab.ids[:0], b)[:b]
	for r, s := range g.row {
		g.tab.ids[slots[s].n] = base + int32(r)
		slots[s].n++
	}
	for _, s := range g.at {
		slots[s] = slot{}
	}
}

// merge returns a fresh table holding old's buckets plus g.tab's, whose
// ids must all exceed old's, with its ids in ids (len(old.ids) +
// len(g.tab.ids) of them). Each batch key is searched for once in the
// old keys; the old ids between two insertion points move as one copy,
// and their offsets by the batch ids placed before them. A batch that
// brings no fresh key shares old's keys.
func (g *grouper) merge(old *table, ids []int32) table {
	add := &g.tab
	fresh, p := 0, 0
	for j, key := range add.keys {
		q, found := slices.BinarySearch(old.keys[p:], key)
		p += q
		if g.at[j] = int32(p); !found {
			g.at[j] = ^int32(p)
			fresh++
		}
	}
	nt := table{keys: old.keys, offs: make([]int32, len(old.offs)+fresh), ids: ids}
	shared := fresh == 0
	if !shared {
		nt.keys = make([]uint64, len(old.keys)+fresh)
	}
	// run places old buckets [i, e) behind placed fresh keys and behind
	// shift new ids.
	i, placed := 0, 0
	run := func(e int, shift int32) {
		for k, o := range old.offs[i:e] {
			nt.offs[placed+i+k] = o + shift
		}
		copy(nt.ids[old.offs[i]+shift:], old.ids[old.offs[i]:old.offs[e]])
		if !shared {
			copy(nt.keys[placed+i:], old.keys[i:e])
		}
		i = e
	}
	for j, key := range add.keys {
		shift, e := add.offs[j], int(g.at[j])
		if e >= 0 {
			e++
			run(e, shift) // up to and including key's old bucket
		} else {
			e = ^e
			run(e, shift)
			nt.offs[placed+e], nt.keys[placed+e] = old.offs[e]+shift, key
			placed++
		}
		copy(nt.ids[old.offs[e]+shift:], add.ids[add.offs[j]:add.offs[j+1]])
	}
	run(len(old.keys), int32(len(add.ids)))
	nt.offs[len(nt.offs)-1] = int32(len(ids))
	return nt
}

// Extend returns a new index over ix's vectors followed by ps (ids
// continue from ix.Len()). Only ps is hashed. Each band of ps is grouped
// into its own table, and that table is merged with the old one in runs:
// O(b·K·L·d) hashing plus O(n·L) id copies for b rows onto n. ix is
// untouched and stays valid for concurrent readers; the two share the
// immutable hash functions and the keys of each table the batch brings
// no fresh key to, and neither retains ps. The result's tables are
// identical to those of an index built over all the vectors at once.
func (ix *Index) Extend(ps []vec.Vector) *Index {
	if len(ps) == 0 {
		return ix
	}
	n := ix.n + len(ps)
	if int(int32(n)) != n {
		panic(fmt.Sprintf("lsh: index size %d overflows int32 ids", n))
	}
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	sc.qk.keys = slices.Grow(sc.qk.keys[:0], len(ps)*ix.L)[:len(ps)*ix.L]
	keys := sc.qk.keys // row-major: vector r, table t
	ix.tileKeys(&sc.qk.tileHash, keys, len(ps), func(i int) vec.Vector { return ps[i] }, true)
	nx := *ix
	nx.n = n
	nx.tables = make([]table, ix.L)
	ids := make([]int32, ix.L*n) // every table's ids, one allocation
	for t := range nx.tables {
		sc.group.group(keys, ix.L, t, len(ps), int32(ix.n))
		nx.tables[t] = sc.group.merge(&ix.tables[t], ids[t*n:(t+1)*n:(t+1)*n])
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

// probeScratch is the per-call working set of a probe (and, for its
// keys and its grouping, of an Extend), pooled so a warm call allocates
// nothing but what the family's maps do.
type probeScratch struct {
	qk      QueryKeys
	buckets [][]int32
	seen    []uint64 // bitset over ids; all zero between calls
	group   grouper
}

var probePool = sync.Pool{New: func() any { return new(probeScratch) }}

// of returns what q is hashed as under p — q′: q itself, or q scaled to
// just inside p.Radius when it is longer — and, with p.Neg, −q′ (nil
// without): vec.Scaled's and vec.Neg's values, in qk's storage.
func (qk *QueryKeys) of(q vec.Vector, p Probe) (pos, neg vec.Vector) {
	if p.Radius > 0 {
		if n := vec.Norm(q); n > p.Radius {
			qk.scaled = vec.Scale(append(qk.scaled[:0], q...), (1-1e-12)*p.Radius/n)
			q = qk.scaled
		}
	}
	if !p.Neg {
		return q, nil
	}
	qk.neg = vec.Scale(append(qk.neg[:0], q...), -1)
	return q, qk.neg
}

// Candidates returns the deduplicated ids colliding with any of qs in
// any table, in first-collision order (probes in argument order, tables
// in index order, ids ascending within a bucket); callers needing id
// order should sort. Passing q and −q together is the paper's unsigned
// reduction. The result length is also the probes' candidate cost.
func (ix *Index) Candidates(qs ...vec.Vector) []int {
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	ix.hash(&sc.qk, len(qs), func(i int) vec.Vector { return qs[i] }, Probe{})
	return ix.collisions(sc, sc.qk.keys, nil)
}

// AppendCandidates appends to dst — the caller's buffer, reused from
// query to query — exactly Candidates(q′) or, with p.Neg,
// Candidates(q′, −q′) (see QueryKeys.of). The probes live in pooled
// scratch: the family's maps must not keep their argument.
func (ix *Index) AppendCandidates(dst []int, q vec.Vector, p Probe) []int {
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	ix.hash(&sc.qk, 1, func(int) vec.Vector { return q }, p)
	return ix.collisions(sc, sc.qk.keys, dst)
}

// QueryKeys holds the table keys of a batch of queries — a join's or a
// batch search's Q-tile — as HashQueries hashed them. The zero value is
// ready to use; a reused one keeps its buffers. Not to be copied once
// used.
type QueryKeys struct {
	keys        []uint64   // probe-major, L apiece; a query's probes adjacent
	per         int        // probes per query: q′, and −q′ with Probe.Neg
	scaled, neg vec.Vector // what the query in hand is hashed as, reused from query to query
	tileHash
}

// HashQueries fills qk with the keys of query rows [lo, hi) of qs under
// p: for each, bit for bit the keys AppendCandidates hashes.
func (ix *Index) HashQueries(qk *QueryKeys, qs *flat.Store, lo, hi int, p Probe) {
	ix.hash(qk, hi-lo, func(i int) vec.Vector { return qs.Row(lo + i) }, p)
}

// hash fills qk with the keys of n queries under p, at(i) being the i-th.
func (ix *Index) hash(qk *QueryKeys, n int, at func(int) vec.Vector, p Probe) {
	qk.per = 1
	if p.Neg {
		qk.per = 2
	}
	np := n * qk.per
	qk.keys = slices.Grow(qk.keys[:0], np*ix.L)[:np*ix.L]
	ix.tileKeys(&qk.tileHash, qk.keys, np, func(r int) vec.Vector {
		if r%qk.per == 1 {
			return qk.neg // −q′ of the query whose q′ was the probe before
		}
		pos, _ := qk.of(at(r/qk.per), p)
		return pos
	}, false)
}

// AppendHashed is AppendCandidates for the j-th query HashQueries
// hashed into qk.
func (ix *Index) AppendHashed(dst []int, qk *QueryKeys, j int) []int {
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	return ix.collisions(sc, qk.keys[j*qk.per*ix.L:(j+1)*qk.per*ix.L], dst)
}

// collisions appends to dst, once each and in first-collision order,
// the ids in the buckets of keys — one or more probes' L table keys back
// to back.
func (ix *Index) collisions(sc *probeScratch, keys []uint64, dst []int) []int {
	sc.buckets = sc.buckets[:0]
	total := 0
	for i, key := range keys {
		if b := ix.tables[i%ix.L].bucket(key); len(b) > 0 {
			sc.buckets = append(sc.buckets, b)
			total += len(b)
		}
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
