package lsh

import (
	"cmp"
	"errors"
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
//
// Under a Hyperplane family (K ≤ 64) a table key is the K-bit sign code
// itself; other families fold their K hash values into a 64-bit key. Up
// to K = maxDenseK a sign-code table is dense, a bucket per code found by
// two loads; past it, and under other families, a table is sparse, a
// bucket per key that occurs found by binary search.
type Index struct {
	K, L int
	// The hash functions, sampled by NewIndex and shared by every index
	// Extend derives from it, so keys HashQueries makes under one of them
	// probe any of them.
	*funcs
	tables []table
	n      int
}

// funcs is an index's hash functions, never mutated once sampled; its
// address is their identity (QueryKeys.by).
type funcs struct {
	// maps is the pre-map of an Asymmetric family (nil funcs otherwise),
	// applied once per vector rather than once per hash function.
	maps MapPair
	// The K·L sampled functions, table-major: hashers, or for Hyperplane
	// planes — the same normals packed as a (K·L)×D store for flat's
	// multi-query kernel.
	hashers []Hasher
	planes  *flat.Store
}

// maxDenseK is the largest K whose sign-code tables are dense. A dense
// table costs 4·(2^K+1) bytes, and a write rewrites all its offsets; a
// sparse one costs 12 bytes per occupied code, and a write moves only
// those. At a served shard (1 500 rows of SIMPLE + hyperplane, d = 32,
// L = 16) K = 8 occupies 144 of 256 codes, above the (2^K+1)/3 = 86 past
// which dense costs fewer bytes, and dense tables build and probe faster
// than sparse ones with 16-row writes even. At K = 9 they still cost
// fewer bytes (200 of 512 occupied) but such a write takes 1.3× as long.
const maxDenseK = 8

// dense reports whether ix's tables hold a bucket per sign code.
func (ix *Index) dense() bool { return ix.planes != nil && ix.K <= maxDenseK }

// table is one band's buckets in CSR form: bucket j is
// ids[offs[j]:offs[j+1]], ids ascending. A dense table has a bucket for
// each of the 2^K codes, j the code itself, and no keys; a sparse one
// lists the keys that occur, scrambled and ascending, and j is a key's
// position. An empty table's offsets are all 0. Tables are never mutated
// once built.
type table struct {
	keys []uint64
	offs []int32
	ids  []int32
}

// bucket returns the ids t stores under key, a code of a dense table
// (empty or nil when none).
func (t *table) bucket(key uint64, dense bool) []int32 {
	if !dense {
		j, ok := slices.BinarySearch(t.keys, scramble(key))
		if !ok {
			return nil
		}
		key = uint64(j)
	}
	return t.ids[t.offs[key]:t.offs[key+1]]
}

// scramble orders a sparse table's keys: a bijection of uint64 (murmur3's
// finalizer) whose top bits depend on every bit of the key, so scrambled
// keys spread evenly over their top bits, however alike the family's
// keys are there.
func scramble(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	return key ^ key>>33
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
	ix := &Index{K: k, L: l, funcs: new(funcs), tables: make([]table, l)}
	if a, ok := f.(*Asymmetric); ok {
		// Asymmetric.Sample only wraps Inner.Sample, so sampling the inner
		// family directly consumes the identical RNG stream.
		ix.maps, f = a.Maps, a.Inner
	}
	rng := xrand.New(seed)
	if hp, ok := f.(*Hyperplane); ok && k <= 64 {
		// Hyperplane.Sample draws one normal per function; drawing them
		// here consumes the identical RNG stream. (A code of more than 64
		// signs does not fit a key: such a family keeps its hashers.)
		normals := make([]vec.Vector, k*l)
		for r := range normals {
			normals[r] = rng.NormalVec(hp.D)
		}
		var err error
		if ix.planes, err = flat.FromVectors(normals); err != nil {
			return nil, err
		}
	} else {
		ix.hashers = make([]Hasher, k*l)
		for r := range ix.hashers {
			ix.hashers[r] = f.Sample(rng)
		}
	}
	empty := table{offs: []int32{0}}
	if ix.dense() {
		empty.offs = make([]int32, 1<<k+1)
	}
	for t := range ix.tables {
		ix.tables[t] = empty
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
	probes flat.Store       // one step's mapped vectors, a row each
	mapped vec.Vector       // the vector an append-style pre-map wrote last
	dots   []float64        // their inner products with the planes
	tile   flat.TileScratch // the tile kernel's working memory
}

// tileKeys is the index's one hashing function: it writes into out the L
// table keys of each of n vectors — at(i) the i-th, asked for once each,
// in order — on the data side of the family when data is true, the query
// side otherwise. Every vector goes through the family's pre-map once,
// into h.mapped when the map has an append form. Sampled hashers then
// hash it alone; under a Hyperplane family the
// mapped vectors become the rows of a probe store, hashStep at a time,
// and one tile product gives every probe·plane inner product, whose signs
// are the keys: bit j of a table's code is the signBit of its plane j.
// The product has vec.Dot's bits in either orientation (a·b = b·a
// exactly, along the same 4-lane unfused chain from +0), so the
// orientation is the kernel's best: flat runs its SIMD micro-kernels on
// quads or octets of query rows, so fewer than four probes (one search's
// q′ and −q′) are its data rows under the planes as queries, and a batch
// is the queries over the planes.
func (ix *Index) tileKeys(h *tileHash, out []uint64, n int, at func(int) vec.Vector, data bool) {
	m, app := ix.maps.Query, ix.maps.AppendQuery
	if data {
		m, app = ix.maps.Data, ix.maps.AppendData
	}
	mapped := func(i int) vec.Vector {
		switch {
		case app != nil:
			h.mapped = app(h.mapped[:0], at(i))
			return h.mapped
		case m != nil:
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
		plane := 1 // dots[v*kl+r] is probe v · plane r, or dots[v+r*np] when plane is np
		if np < 4 {
			plane = np
			must(h.probes.DotTile(ix.planes, 0, kl, 0, np, h.dots, &h.tile))
		} else {
			must(ix.planes.DotTile(&h.probes, 0, np, 0, kl, h.dots, &h.tile))
		}
		signCodes(h.dots, out[lo*ix.L:(lo+np)*ix.L], ix.K, ix.L, plane)
	}
}

// signCodes writes into keys, L per probe, each table's K-bit sign code
// of a step's inner products: bit j of a table's code is the signBit of
// its plane j. dots[v·K·L+r] is probe v · plane r when plane is 1, so
// key i's K products are dots[i·K:(i+1)·K]; otherwise it is
// dots[v+r·plane]. A code is shifted in from its top bit down: a shift by
// a constant keeps the loop in registers.
func signCodes(dots []float64, keys []uint64, k, l, plane int) {
	if plane == 1 {
		for i := range keys {
			ds, key := dots[i*k:(i+1)*k], uint64(0)
			for j := len(ds) - 1; j >= 0; j-- {
				key = key<<1 | signBit(ds[j])
			}
			keys[i] = key
		}
		return
	}
	for i := range keys {
		key, d := uint64(0), i/l+(i%l*k+k-1)*plane // probe i/l, table i%l's last plane
		for range k {
			key = key<<1 | signBit(dots[d])
			d -= plane
		}
		keys[i] = key
	}
}

// extendDense returns the dense table holding old's buckets plus band t
// of a batch's codes — row-major, l to a row, row r under id
// len(old.ids)+r — in offs (2^K+1 of them) and ids (len(old.ids) plus the
// batch's). One pass counts the batch per code in at (2^K counters,
// zeroed here); a second writes each offset as old's plus the batch rows
// under lower codes, and copies the old ids between two batch codes as
// one run; a third places each batch id at the end of its code's bucket.
func (old *table) extendDense(codes []uint64, l, t int, offs, ids, at []int32) table {
	clear(at)
	for r := t; r < len(codes); r += l {
		at[codes[r]]++
	}
	oo, shift, lo := old.offs, int32(0), 0
	for c, n := range at {
		if n == 0 {
			continue
		}
		// Old buckets [lo, c] move as one run, behind shift batch ids.
		shifted(offs[lo:], oo[lo:c+1], shift)
		copy(ids[oo[lo]+shift:], old.ids[oo[lo]:oo[c+1]])
		lo, at[c], shift = c+1, oo[c+1]+shift, shift+n // at[c]: where code c's batch ids go
	}
	shifted(offs[lo:], oo[lo:len(at)], shift)
	copy(ids[oo[lo]+shift:], old.ids[oo[lo]:])
	offs[len(at)] = int32(len(ids))
	base := int32(len(old.ids))
	for r := t; r < len(codes); r += l {
		c := codes[r]
		ids[at[c]] = base + int32(r/l)
		at[c]++
	}
	return table{offs: offs, ids: ids}
}

// shifted writes src[j]+shift into dst[j] for each j.
func shifted(dst, src []int32, shift int32) {
	dst = dst[:len(src)]
	for j, o := range src {
		dst[j] = o + shift
	}
}

// extendSparse is extendDense for a sparse table: band t's batch rows,
// in scrambled key order, merge into old's buckets in one pass. Before
// each batch key, the old buckets below it — and its own, if old has it —
// move as one run: keys, offsets behind the batch ids placed so far, ids.
// A fresh key then opens an empty bucket, and the key's batch ids go at
// the end of its bucket, in row order. A batch that brings no fresh key
// shares old's keys.
func (old *table) extendSparse(keys []uint64, l, t int, ids []int32, sc *probeScratch) table {
	band, fresh := sc.sortBand(keys, l, t), 0
	for j, p := range band {
		if j == 0 || p.key != band[j-1].key {
			if _, found := slices.BinarySearch(old.keys, p.key); !found {
				fresh++
			}
		}
	}
	nk := old.keys
	if fresh > 0 {
		nk = make([]uint64, 0, len(old.keys)+fresh)
	}
	offs := make([]int32, len(old.keys)+fresh+1)
	oo, base, shift, i, k := old.offs, int32(len(old.ids)), int32(0), 0, 0 // k: buckets placed
	for j := 0; j < len(band); {
		key := band[j].key
		e, found := slices.BinarySearch(old.keys[i:], key)
		if e += i; found {
			e++
		}
		shifted(offs[k:], oo[i:e], shift)
		copy(ids[oo[i]+shift:], old.ids[oo[i]:oo[e]])
		if k += e - i; fresh > 0 {
			nk = append(nk, old.keys[i:e]...)
		}
		if !found {
			offs[k], nk, k = oo[e]+shift, append(nk, key), k+1
		}
		for ; j < len(band) && band[j].key == key; j++ {
			ids[oo[e]+shift] = base + band[j].row
			shift++
		}
		i = e
	}
	shifted(offs[k:], oo[i:], shift) // and the end, len(ids)
	copy(ids[oo[i]+shift:], old.ids[oo[i]:])
	if fresh > 0 {
		nk = append(nk, old.keys[i:]...)
	}
	return table{keys: nk, offs: offs, ids: ids}
}

// keyed is a batch row under its scrambled key.
type keyed struct {
	key uint64
	row int32
}

// sortBand returns band t of a batch's keys — row-major, l to a row —
// scrambled, each with its row, in key order and ties in row order: one
// counting pass on the top w bits, 2^w about the row count, then a
// stable sort of each bucket whose keys are out of order — few, as
// scrambled keys spread evenly over their top bits.
func (sc *probeScratch) sortBand(keys []uint64, l, t int) []keyed {
	b := len(keys) / l
	w := bits.Len(uint(b))
	at := slices.Grow(sc.count[:0], 1<<w)[:1<<w]
	clear(at)
	for r := t; r < len(keys); r += l {
		at[scramble(keys[r])>>(64-w)]++
	}
	sum := int32(0)
	for d, n := range at {
		at[d], sum = sum, sum+n // where bucket d starts
	}
	band := slices.Grow(sc.band[:0], b)[:b]
	for r := range b {
		key := scramble(keys[r*l+t])
		d := key >> (64 - w)
		band[at[d]] = keyed{key, int32(r)}
		at[d]++ // then where it ends
	}
	for i := 1; i < b; i++ {
		if band[i].key < band[i-1].key { // keys that share the top bits
			d := band[i].key >> (64 - w)
			lo := int32(0)
			if d > 0 {
				lo = at[d-1]
			}
			slices.SortStableFunc(band[lo:at[d]], func(x, y keyed) int { return cmp.Compare(x.key, y.key) })
			i = int(at[d]) - 1
		}
	}
	sc.band, sc.count = band, at
	return band
}

// Extend returns a new index over ix's vectors followed by ps (ids
// continue from ix.Len()). Only ps is hashed: O(b·K·L·d) for b rows. A
// dense table then takes one count of the batch's codes, a pass over the
// 2^K offsets and one copy per run of old ids — O(n·L + 2^K·L) onto n
// rows; a sparse one sorts the batch's rows by key and merges them into
// its u keys in one pass, O(n·L + u·L) beside the sort. ix is untouched
// and stays valid for concurrent readers; the two share only immutable
// data — the hash functions, and the keys of a sparse table the batch
// brings no fresh key to — and neither retains ps. The result's tables
// are identical to those of an index built over all the vectors at once.
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
	if !ix.dense() {
		for t := range nx.tables {
			nx.tables[t] = ix.tables[t].extendSparse(keys, ix.L, t, ids[t*n:(t+1)*n:(t+1)*n], sc)
		}
		return &nx
	}
	size := 1<<ix.K + 1
	offs := make([]int32, ix.L*size) // and every table's 2^K+1 offsets
	sc.count = slices.Grow(sc.count[:0], size-1)[:size-1]
	for t := range nx.tables {
		to := offs[t*size : (t+1)*size : (t+1)*size]
		nx.tables[t] = ix.tables[t].extendDense(keys, ix.L, t, to, ids[t*n:(t+1)*n:(t+1)*n], sc.count)
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
// keys and its per-table work, of an Extend), pooled so a warm call
// allocates nothing but what the family's maps do.
type probeScratch struct {
	qk      QueryKeys
	buckets [][]int32
	seen    []uint64 // bitset over ids; all zero between calls
	count   []int32  // an Extend's per-code (per-bucket when sparse) counts
	band    []keyed  // a sparse Extend's sorted band of batch keys
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
// any table, in first-collision order (tables in index order, each under
// the probes in argument order, ids ascending within a bucket); callers
// needing id order should sort. Passing q and −q together is the paper's
// unsigned reduction. The result length is also the probes' candidate
// cost.
func (ix *Index) Candidates(qs ...vec.Vector) []int {
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	ix.hash(&sc.qk, 0, len(qs), func(i int) vec.Vector { return qs[i] }, Probe{})
	return ix.collisions(sc, sc.qk.keys, nil)
}

// AppendCandidates appends to dst — the caller's buffer, reused from
// query to query — exactly Candidates(q′) or, with p.Neg,
// Candidates(q′, −q′) (see QueryKeys.of). The probes live in pooled
// scratch: the family's maps must not keep their argument.
func (ix *Index) AppendCandidates(dst []int, q vec.Vector, p Probe) []int {
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	ix.hash(&sc.qk, 0, 1, func(int) vec.Vector { return q }, p)
	return ix.collisions(sc, sc.qk.keys, dst)
}

// QueryKeys holds the table keys of a batch of queries — a join's query
// store or a batch search's Q-tile — as HashQueries hashed them, and which
// hash functions did. The zero value is ready to use; a reused one keeps
// its buffers. Not to be copied once used.
type QueryKeys struct {
	keys        []uint64   // probe-major, L apiece; a query's probes adjacent
	per         int        // probes per query: q′, and −q′ with Probe.Neg
	by          *funcs     // the hash functions that made keys
	lo, hi      int        // the query rows keys hold
	scaled, neg vec.Vector // what the query in hand is hashed as, reused from query to query
	tileHash
}

// HashQueries fills qk with the keys of query rows [lo, hi) of qs under
// p: for each, bit for bit the keys AppendCandidates hashes. They probe ix
// and every index that shares its hash functions — those Extend derives
// from the same NewIndex, such as the row-split parts of one collection.
func (ix *Index) HashQueries(qk *QueryKeys, qs *flat.Store, lo, hi int, p Probe) {
	ix.hash(qk, lo, hi, qs.Row, p)
}

// hash fills qk with the keys of queries lo to hi under p, at(i) being
// query i.
func (ix *Index) hash(qk *QueryKeys, lo, hi int, at func(int) vec.Vector, p Probe) {
	qk.per, qk.by, qk.lo, qk.hi = 1, ix.funcs, lo, hi
	if p.Neg {
		qk.per = 2
	}
	np := (hi - lo) * qk.per
	qk.keys = slices.Grow(qk.keys[:0], np*ix.L)[:np*ix.L]
	ix.tileKeys(&qk.tileHash, qk.keys, np, func(r int) vec.Vector {
		if r%qk.per == 1 {
			return qk.neg // −q′ of the query whose q′ was the probe before
		}
		pos, _ := qk.of(at(lo+r/qk.per), p)
		return pos
	}, false)
}

// AppendHashed is AppendCandidates for query i of the rows HashQueries
// hashed into qk. The keys must come from ix's own hash functions, shared
// or not: keys of other functions — even ones sampled alike — or a row qk
// does not hold are an error, and dst comes back as it was.
func (ix *Index) AppendHashed(dst []int, qk *QueryKeys, i int) ([]int, error) {
	keys, err := ix.hashed(qk, i)
	if err != nil {
		return dst, err
	}
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	return ix.collisions(sc, keys, dst), nil
}

// hashed returns the keys of query i in qk — its probes' L table keys
// back to back — or why ix cannot take them (see AppendHashed).
func (ix *Index) hashed(qk *QueryKeys, i int) ([]uint64, error) {
	if qk.by != ix.funcs {
		return nil, errors.New("lsh: query keys were hashed by another index's hash functions")
	}
	if i < qk.lo || i >= qk.hi {
		return nil, fmt.Errorf("lsh: query %d is outside the hashed rows [%d, %d)", i, qk.lo, qk.hi)
	}
	j := i - qk.lo
	return qk.keys[j*qk.per*ix.L : (j+1)*qk.per*ix.L], nil
}

// collisions appends to dst, once each and in first-collision order,
// the ids in the buckets of keys — one or more probes' L table keys back
// to back: every table step of the query's walk, in turn.
func (ix *Index) collisions(sc *probeScratch, keys []uint64, dst []int) []int {
	sc.buckets = ix.steps(sc.buckets[:0], keys, 0, ix.L)
	total := 0
	for _, b := range sc.buckets {
		total += len(b)
	}
	if total == 0 {
		return dst
	}
	sc.seen = ix.bitset(sc.seen)
	base := len(dst)
	dst = slices.Grow(dst, min(total, ix.n))
	for _, b := range sc.buckets {
		dst = appendNew(dst, sc.seen, b)
	}
	unmark(sc.seen, dst[base:])
	clear(sc.buckets) // drop the references into ix's tables
	return dst
}

// steps appends to bs the nonempty buckets of tables lo to hi−1 under
// keys — one or more probes' L table keys back to back — table by table,
// each under the probes in order (q′, then −q′): table steps lo to hi−1
// of a query's walk.
func (ix *Index) steps(bs [][]int32, keys []uint64, lo, hi int) [][]int32 {
	dense := ix.dense()
	for t := lo; t < hi; t++ {
		tb := &ix.tables[t]
		for p := t; p < len(keys); p += ix.L {
			if b := tb.bucket(keys[p], dense); len(b) > 0 {
				bs = append(bs, b)
			}
		}
	}
	return bs
}

// appendNew appends to dst, once each, the ids of bucket b that seen does
// not mark, and marks them: the one bucket-deduplication loop, which
// collisions and Index.Step share.
func appendNew(dst []int, seen []uint64, b []int32) []int {
	for _, id := range b {
		w, bit := id>>6, uint64(1)<<(id&63)
		if seen[w]&bit == 0 {
			seen[w] |= bit
			dst = append(dst, int(id))
		}
	}
	return dst
}

// bitset returns seen grown to a bit per id of ix, the new words zero.
func (ix *Index) bitset(seen []uint64) []uint64 {
	if words := (ix.n + 63) / 64; len(seen) < words {
		seen = append(seen, make([]uint64, words-len(seen))...)
	}
	return seen
}

// unmark zeroes seen's words under ids, which hold every id seen marks.
func unmark(seen []uint64, ids []int) {
	for _, id := range ids {
		seen[id>>6] = 0
	}
}

// Walk is one query's candidate union in an index, grown a table step at
// a time by Index.Step: the LSH query algorithm probes the L tables in
// turn and may stop after any of them (Indyk–Motwani; the paper's §4.1).
// The zero value is ready to use, and a reused one keeps its buffers.
type Walk struct {
	// IDs is the union so far, once each, in first-collision order.
	IDs  []int
	seen []uint64 // IDs as a bitset over the index's ids
}

// Reset empties w for another query, or another index, in O(len(w.IDs)).
func (w *Walk) Reset() {
	unmark(w.seen, w.IDs)
	w.IDs = w.IDs[:0]
}

// Step appends to w.IDs step t of query i's walk: the ids in table t's
// buckets under the query's probes — q′, then −q′ when qk was hashed with
// Probe.Neg — that w does not hold yet, ascending within a bucket. Steps
// 0 to L−1 in turn leave w.IDs holding exactly AppendHashed's candidates,
// in its order. w must hold only this query's ids in ix; the keys fail as
// they fail AppendHashed, w untouched.
func (ix *Index) Step(w *Walk, qk *QueryKeys, i, t int) error {
	keys, err := ix.hashed(qk, i)
	if err != nil {
		return err
	}
	w.seen = ix.bitset(w.seen)
	var buckets [2][]int32 // q′'s and −q′'s
	for _, b := range ix.steps(buckets[:0], keys, t, t+1) {
		w.IDs = appendNew(w.IDs, w.seen, b)
	}
	return nil
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
