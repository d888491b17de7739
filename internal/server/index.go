// Package server is the online serving subsystem of the reproduction: a
// concurrent, sharded inner-product search and join server. Named
// collections hold store.Record vectors; each collection is split
// across N goroutine-owned shards, every shard holding its own index
// built from a selectable engine (exact scan, norm-pruned MIPS scan,
// §4.1 ALSH, or the §4.3 sketch recovery structure). Queries fan out to
// the shards and the per-shard top-k lists are combined by a k-way
// merge; batches run on a worker pool and results are memoized in an
// LRU cache invalidated on ingest.
package server

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/sketch"
	"repro/internal/transform"
	"repro/internal/vec"
)

// Hit is one search answer: a record ID and its (absolute, for
// unsigned) inner product with the query.
type Hit struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

// ShardIndex answers top-k MIPS queries over one shard's vectors.
// Returned hits carry *local* indices into the build store, are ordered
// by decreasing score with ties broken by increasing index, and have
// exact scores (re-verified against the stored vectors by
// candidate-based engines). Implementations must return a structured
// error — never panic — on a query dimension mismatch.
type ShardIndex interface {
	// TopK returns up to k hits for q; unsigned ranks by |pᵀq|.
	// workers > 1 permits the engine to parallelize its scan across
	// that many goroutines (engines may ignore the hint). ctx carries
	// the request deadline: engines backed by the flat drivers abandon
	// the scan within one row-block of cancellation and return ctx's
	// error; a never-cancelled ctx costs nothing (the drivers keep
	// their unchecked fast path).
	TopK(ctx context.Context, q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error)
}

// IndexSpec selects and parameterizes the per-shard index engine. The
// zero value of every field means "use the engine default".
type IndexSpec struct {
	// Kind is one of "exact", "normscan", "alsh", "sketch".
	Kind string `json:"kind"`
	// U is the ALSH query-ball radius (default 1).
	U float64 `json:"u,omitempty"`
	// K, L are the ALSH banding parameters (defaults 8, 16).
	K int `json:"k,omitempty"`
	L int `json:"l,omitempty"`
	// Kappa, Copies parameterize the sketch recoverer (defaults 2, 9).
	Kappa  float64 `json:"kappa,omitempty"`
	Copies int     `json:"copies,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
	// Precision selects the vector storage tier: "f64" (the default;
	// exact scores), "f32" (half the scan bytes, f32-accurate scores,
	// opt-in exact re-rank per query), or "int8" (an eighth of the scan
	// bytes; approximate candidates always re-ranked through the
	// retained f64 rows, so answers stay exact). f32 supports the exact
	// and normscan kinds, int8 the exact kind only; alsh and sketch are
	// f64-only (they already verify candidates against the f64 store).
	Precision string `json:"precision,omitempty"`
	// Overfetch widens re-ranked candidate sets: a re-ranked query
	// fetches k·Overfetch quantized candidates before exact re-scoring
	// (default 4, via Config.RerankOverfetch).
	Overfetch int `json:"overfetch,omitempty"`
}

// Validate checks that the spec names a registered engine and that
// its parameters are usable (zero always means "default"), so bad
// specs fail at collection creation instead of at the first ingest.
func (s IndexSpec) Validate() error {
	switch s.Kind {
	case "", KindExact, KindNormScan, KindALSH, KindSketch:
	default:
		return fmt.Errorf("server: unknown index kind %q (want %s, %s, %s or %s)",
			s.Kind, KindExact, KindNormScan, KindALSH, KindSketch)
	}
	if s.U < 0 || s.K < 0 || s.L < 0 || s.Copies < 0 {
		return fmt.Errorf("server: index %q: negative parameter (u=%v k=%d l=%d copies=%d)",
			s.kind(), s.U, s.K, s.L, s.Copies)
	}
	if s.Kind == KindSketch && s.Kappa != 0 && s.Kappa < 2 {
		return fmt.Errorf("server: index %q: kappa %v must be >= 2", s.kind(), s.Kappa)
	}
	if s.Kappa < 0 {
		return fmt.Errorf("server: index %q: negative kappa %v", s.kind(), s.Kappa)
	}
	switch s.precision() {
	case PrecisionF64:
	case PrecisionF32:
		if k := s.kind(); k != KindExact && k != KindNormScan {
			return fmt.Errorf("server: precision %q supports index kinds %s and %s, not %q",
				PrecisionF32, KindExact, KindNormScan, k)
		}
	case PrecisionI8:
		if k := s.kind(); k != KindExact {
			return fmt.Errorf("server: precision %q supports index kind %s only, not %q",
				PrecisionI8, KindExact, k)
		}
	default:
		return fmt.Errorf("server: unknown precision %q (want %s, %s or %s)",
			s.Precision, PrecisionF64, PrecisionF32, PrecisionI8)
	}
	if s.Overfetch < 0 {
		return fmt.Errorf("server: negative rerank overfetch %d", s.Overfetch)
	}
	if s.Overfetch > maxOverfetch {
		return fmt.Errorf("server: rerank overfetch %d exceeds the cap %d", s.Overfetch, maxOverfetch)
	}
	return nil
}

// kind returns the effective engine name (defaulting to exact).
func (s IndexSpec) kind() string {
	if s.Kind == "" {
		return KindExact
	}
	return s.Kind
}

// The registered index kinds.
const (
	KindExact    = "exact"
	KindNormScan = "normscan"
	KindALSH     = "alsh"
	KindSketch   = "sketch"
)

// The registered storage precisions (IndexSpec.Precision).
const (
	PrecisionF64 = "f64"
	PrecisionF32 = "f32"
	PrecisionI8  = "int8"
)

// precision returns the effective storage precision (defaulting to
// f64, the tier every collection used before precisions existed).
func (s IndexSpec) precision() string {
	if s.Precision == "" {
		return PrecisionF64
	}
	return s.Precision
}

// Overfetch bounds: re-ranking k·overfetch candidates costs
// O(k·overfetch·d) exact flops per query, so the cap keeps a
// misconfigured spec from turning every query into a near-full exact
// scan through the scalar (non-blocked) re-rank path.
const (
	defaultOverfetch = 4
	maxOverfetch     = 1024
)

// defaultBanding resolves zero LSH banding parameters to the repo-wide
// defaults (K=8 concatenated hashes, L=16 tables) — the single source
// of truth for both the shard indexes and the join engines.
func defaultBanding(k, l int) (int, int) {
	if k == 0 {
		k = 8
	}
	if l == 0 {
		l = 16
	}
	return k, l
}

// defaultSketch resolves zero sketch parameters (κ=2, 9 copies).
func defaultSketch(kappa float64, copies int) (float64, int) {
	if kappa == 0 {
		kappa = 2
	}
	if copies == 0 {
		copies = 9
	}
	return kappa, copies
}

// buildShardIndex constructs the index for one shard over its columnar
// store. Shard seeds are derived from the spec seed so shards hash
// independently. Candidate-based engines (alsh, sketch) are built from
// row views of the store — slice headers into its chunks, no float
// copies — and verify candidates through the store's kernel.
// Quantized precisions (f32, int8) build their compact view from fs at
// index-build time and retain fs itself as the exact re-rank truth;
// overfetch scales their re-ranked candidate sets.
func buildShardIndex(spec IndexSpec, fs *flat.Store, shardSeed uint64, overfetch int) (ShardIndex, error) {
	if fs == nil || fs.Len() == 0 {
		return emptyIndex{}, nil
	}
	switch spec.kind() {
	case KindExact:
		switch spec.precision() {
		case PrecisionF32:
			return exact32Index{fs: fs, s32: flat.NewStore32(fs), overfetch: overfetch}, nil
		case PrecisionI8:
			return exactI8Index{fs: fs, i8: flat.NewStoreI8(fs), overfetch: overfetch}, nil
		}
		return exactIndex{fs: fs}, nil
	case KindNormScan:
		if spec.precision() == PrecisionF32 {
			return normScan32Index{fs: fs, ns: flat.NewNormSorted32(flat.NewStore32(fs)), overfetch: overfetch}, nil
		}
		return normScanIndex{ns: flat.NewNormSorted(fs)}, nil
	case KindALSH:
		return newALSHIndex(spec, fs, shardSeed)
	case KindSketch:
		kappa, copies := defaultSketch(spec.Kappa, spec.Copies)
		rec, err := sketch.NewRecoverer(fs.Rows(), kappa, copies, spec.Seed^shardSeed)
		if err != nil {
			return nil, err
		}
		return sketchIndex{rec: rec, fs: fs}, nil
	}
	return nil, fmt.Errorf("server: unknown index kind %q", spec.Kind)
}

// deadMasker is implemented by engines that can serve the live-rows
// view of their shard after deletions. withDead returns an index
// answering exactly as if the store held only the rows dead does not
// mark — same local row indices, canonical ordering — with dead given
// in the store's original row space. Calling withDead on an
// already-masked index replaces its dead set (each engine rebuilds its
// view from its own immutable structures), so delete publication never
// needs the unmasked original.
type deadMasker interface {
	withDead(dead *flat.Tombstones) ShardIndex
}

// batchIndex is implemented by indexes whose scan can serve a whole
// query tile in one data sweep through the register-blocked
// multi-query kernels: accs[j] receives the top-k hits (local row
// indices, canonical order) for query row qlo+j of qs, bit-identical
// to TopK(qs.Row(qlo+j), k, unsigned, 1). The batch executor tiles
// incoming queries per shard snapshot and dispatches through this
// interface; engines without a columnar sweep (alsh, sketch) fall back
// to per-query TopK.
type batchIndex interface {
	topKMulti(ctx context.Context, qs *flat.Store, qlo, qhi int, unsigned bool, accs []flat.Acc, sc *flat.TileScratch) error
}

// emptyIndex serves a shard that holds no vectors yet.
type emptyIndex struct{}

func (emptyIndex) TopK(context.Context, vec.Vector, int, bool, int) ([]Hit, error) {
	return nil, nil
}

func (ix emptyIndex) withDead(*flat.Tombstones) ShardIndex { return ix }

// topKMulti implements batchIndex: no rows, so every accumulator stays
// empty, exactly like the per-query path.
func (emptyIndex) topKMulti(context.Context, *flat.Store, int, int, bool, []flat.Acc, *flat.TileScratch) error {
	return nil
}

// flatHits converts flat scan hits into serving-layer hits.
func flatHits(hs []flat.Hit) []Hit {
	out := make([]Hit, len(hs))
	for i, h := range hs {
		out[i] = Hit{ID: h.Index, Score: h.Score}
	}
	return out
}

// parallelScanner marks indexes whose TopK can actually spend a
// workers hint, reporting how many workers the scan can use, so the
// serving layer only reserves the parallelism budget it will spend.
type parallelScanner interface {
	maxScanWorkers() int
}

// exactIndex is the Θ(nd) full scan — the ground-truth engine and the
// default for collections that must return exact answers. It runs the
// blocked columnar kernel, splitting the scan across workers goroutines
// for large shards. dead (nil until the first delete) restricts the
// scan to live rows; the masked kernels delegate straight to the
// unmasked ones when it is empty, so the mutation path costs nothing
// on a collection that never deletes.
type exactIndex struct {
	fs   *flat.Store
	dead *flat.Tombstones
}

func (ix exactIndex) TopK(ctx context.Context, q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error) {
	hs, err := ix.fs.TopKMaskedCtx(ctx, q, k, unsigned, workers, ix.dead)
	if err != nil {
		return nil, err
	}
	return flatHits(hs), nil
}

func (ix exactIndex) maxScanWorkers() int { return ix.fs.MaxScanWorkers() }

func (ix exactIndex) withDead(dead *flat.Tombstones) ShardIndex {
	return exactIndex{fs: ix.fs, dead: dead}
}

// topKMulti implements batchIndex via the store's one-sweep
// multi-query driver.
func (ix exactIndex) topKMulti(ctx context.Context, qs *flat.Store, qlo, qhi int, unsigned bool, accs []flat.Acc, sc *flat.TileScratch) error {
	return ix.fs.TopKMultiMaskedIntoCtx(ctx, qs, qlo, qhi, unsigned, accs, sc, ix.dead)
}

// rerankIndex is implemented by engines that can widen their candidate
// set and re-score it through retained exact (f64) rows: TopKRerank
// answers like TopK but with scores bit-identical to the f64 exact
// scan's — same hits, same canonical order — as long as the quantized
// candidate set covered the true top k (guaranteed-approximate, exact
// once overfetch covers the quantization error). int8 engines re-rank
// unconditionally (their raw scores are too coarse to serve); for f32
// engines re-ranking is the per-query opt-in behind SearchOpts.Rerank.
type rerankIndex interface {
	TopKRerank(ctx context.Context, q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error)
}

// overfetchK widens k by the overfetch factor, saturating instead of
// overflowing on absurd k.
func overfetchK(k, overfetch int) int {
	if overfetch <= 1 {
		return k
	}
	if k > int(^uint(0)>>1)/overfetch {
		return k
	}
	return k * overfetch
}

// rerankHits re-scores quantized candidates (local row indices) through
// the exact f64 store and returns the top k under the canonical
// ordering. Scores come from the same DotRange kernel as the exact
// scan, so a candidate set that covers the true top k yields answers
// bit-identical to exactIndex. The candidate set is at most
// k·overfetch rows, so the loop needs no ctx polling beyond the entry
// check its callers already performed.
func rerankHits(fs *flat.Store, q vec.Vector, cands []Hit, k int, unsigned bool) ([]Hit, error) {
	acc := flat.NewAcc(k)
	var out [1]float64
	for _, h := range cands {
		if err := fs.DotRange(q, h.ID, h.ID+1, out[:]); err != nil {
			return nil, err
		}
		v := out[0]
		if unsigned && v < 0 {
			v = -v
		}
		acc.Offer(h.ID, v)
	}
	return flatHits(acc.Hits()), nil
}

// exact32Index is the f32 full scan: half the bytes per row of
// exactIndex, f32-accurate scores, with the exact f64 rows retained for
// the opt-in re-rank path.
type exact32Index struct {
	fs        *flat.Store
	s32       *flat.Store32
	dead      *flat.Tombstones
	overfetch int
}

func (ix exact32Index) TopK(ctx context.Context, q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error) {
	hs, err := ix.s32.TopKMaskedCtx(ctx, q, k, unsigned, workers, ix.dead)
	if err != nil {
		return nil, err
	}
	return flatHits(hs), nil
}

func (ix exact32Index) TopKRerank(ctx context.Context, q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error) {
	cands, err := ix.TopK(ctx, q, overfetchK(k, ix.overfetch), unsigned, workers)
	if err != nil {
		return nil, err
	}
	return rerankHits(ix.fs, q, cands, k, unsigned)
}

func (ix exact32Index) maxScanWorkers() int { return ix.s32.MaxScanWorkers() }

func (ix exact32Index) withDead(dead *flat.Tombstones) ShardIndex {
	return exact32Index{fs: ix.fs, s32: ix.s32, dead: dead, overfetch: ix.overfetch}
}

// normScan32Index is the f32 norm-pruned scan: descending-norm f32 rows
// with the epsilon-inflated Cauchy–Schwarz early exit (see
// flat.NormSorted32), plus the retained f64 rows for re-ranking.
// Returned hits already carry original row indices (the view maps them
// back through its permutation).
type normScan32Index struct {
	fs *flat.Store
	ns *flat.NormSorted32
	// dead lives in the view's physical row order, like normScanIndex.
	dead      *flat.Tombstones
	overfetch int
}

func (ix normScan32Index) TopK(ctx context.Context, q vec.Vector, k int, unsigned bool, _ int) ([]Hit, error) {
	hs, _, err := ix.ns.TopKMaskedCtx(ctx, q, k, unsigned, ix.dead)
	if err != nil {
		return nil, err
	}
	return flatHits(hs), nil
}

func (ix normScan32Index) TopKRerank(ctx context.Context, q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error) {
	cands, err := ix.TopK(ctx, q, overfetchK(k, ix.overfetch), unsigned, workers)
	if err != nil {
		return nil, err
	}
	return rerankHits(ix.fs, q, cands, k, unsigned)
}

func (ix normScan32Index) withDead(dead *flat.Tombstones) ShardIndex {
	return normScan32Index{fs: ix.fs, ns: ix.ns, dead: dead.Gather(ix.ns.Perm()), overfetch: ix.overfetch}
}

// exactI8Index is the int8 tier: an eighth of the scan bytes, scores
// from exact int32 accumulation over symmetric codes. Raw int8 scores
// are candidates only — TopK itself fetches k·overfetch candidates and
// re-ranks them through the retained f64 rows, so this engine never
// serves an approximate score (the same candidate-then-verify guarantee
// alsh and sketch carry).
type exactI8Index struct {
	fs        *flat.Store
	i8        *flat.StoreI8
	dead      *flat.Tombstones
	overfetch int
}

func (ix exactI8Index) TopK(ctx context.Context, q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error) {
	hs, err := ix.i8.TopKMaskedCtx(ctx, q, overfetchK(k, ix.overfetch), unsigned, workers, ix.dead)
	if err != nil {
		return nil, err
	}
	return rerankHits(ix.fs, q, flatHits(hs), k, unsigned)
}

// TopKRerank is TopK: the int8 tier always re-ranks.
func (ix exactI8Index) TopKRerank(ctx context.Context, q vec.Vector, k int, unsigned bool, workers int) ([]Hit, error) {
	return ix.TopK(ctx, q, k, unsigned, workers)
}

func (ix exactI8Index) maxScanWorkers() int { return ix.i8.MaxScanWorkers() }

func (ix exactI8Index) withDead(dead *flat.Tombstones) ShardIndex {
	return exactI8Index{fs: ix.fs, i8: ix.i8, dead: dead, overfetch: ix.overfetch}
}

// normScanIndex is the exact top-k variant of mips.NormPruned over the
// norm-sorted columnar view: row-blocks are visited in decreasing-norm
// order and the scan stops at the first block whose Cauchy–Schwarz
// bound ‖p‖·‖q‖ — which also bounds |pᵀq| — cannot displace the k-th
// best hit.
type normScanIndex struct {
	ns *flat.NormSorted
	// dead lives in the norm-sorted physical row order (withDead
	// pre-permutes once per delete publication, so the scan never pays
	// a per-row indirection).
	dead *flat.Tombstones
}

func (ix normScanIndex) TopK(ctx context.Context, q vec.Vector, k int, unsigned bool, _ int) ([]Hit, error) {
	hs, _, err := ix.ns.TopKMaskedCtx(ctx, q, k, unsigned, ix.dead)
	if err != nil {
		return nil, err
	}
	return flatHits(hs), nil
}

func (ix normScanIndex) withDead(dead *flat.Tombstones) ShardIndex {
	return normScanIndex{ns: ix.ns, dead: dead.Gather(ix.ns.Perm())}
}

// topKMulti implements batchIndex: one descending-norm sweep serves
// the whole tile, the Cauchy–Schwarz bound applied per query.
func (ix normScanIndex) topKMulti(ctx context.Context, qs *flat.Store, qlo, qhi int, unsigned bool, accs []flat.Acc, sc *flat.TileScratch) error {
	return ix.ns.TopKMultiMaskedIntoCtx(ctx, qs, qlo, qhi, unsigned, accs, nil, sc, ix.dead)
}

// alshIndex is the §4.1 structure (SIMPLE map + hyperplane banding):
// approximate candidates from the index, exact scores verified through
// the shard's columnar store. The banding index holds row ids only, so
// nothing in it refers to fs or to any earlier snapshot's store.
type alshIndex struct {
	fs   *flat.Store
	ix   *lsh.Index
	u    float64
	dead *flat.Tombstones
}

func newALSHIndex(spec IndexSpec, fs *flat.Store, shardSeed uint64) (*alshIndex, error) {
	u := spec.U
	if u == 0 {
		u = 1
	}
	k, l := defaultBanding(spec.K, spec.L)
	tr, err := transform.NewSimple(fs.Dim(), u)
	if err != nil {
		return nil, err
	}
	inner, err := lsh.NewHyperplane(tr.OutputDim())
	if err != nil {
		return nil, err
	}
	fam, err := lsh.NewAsymmetric("simple-alsh",
		lsh.MapPair{Data: tr.Data, Query: tr.Query}, inner)
	if err != nil {
		return nil, err
	}
	ix, err := lsh.NewIndex(fam, k, l, spec.Seed^shardSeed)
	if err != nil {
		return nil, err
	}
	return (&alshIndex{ix: ix, u: u}).extend(fs), nil
}

// extend returns the unmasked index over fs, an append-only store whose
// leading rows must be exactly the rows ix indexes: only the rows the
// banding index has not seen are hashed, and the hash functions (spec
// and shard seed) carry over with it. ix is untouched and keeps
// serving.
func (ix *alshIndex) extend(fs *flat.Store) *alshIndex {
	rows := make([]vec.Vector, fs.Len()-ix.ix.Len())
	for i := range rows {
		rows[i] = fs.Row(ix.ix.Len() + i)
	}
	return &alshIndex{fs: fs, ix: ix.ix.Extend(rows), u: ix.u}
}

func (ix *alshIndex) TopK(ctx context.Context, q vec.Vector, k int, unsigned bool, _ int) ([]Hit, error) {
	if len(q) != ix.fs.Dim() {
		return nil, fmt.Errorf("server: query dimension %d, index has %d", len(q), ix.fs.Dim())
	}
	// Candidate scoring is cheap per row but the candidate set is
	// unbounded; poll the deadline at entry and periodically through the
	// verification loop (a nil Done keeps the loop poll-free).
	done := ctx.Done()
	if done != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	probe := q
	if n := vec.Norm(q); n > ix.u {
		probe = vec.Scaled(q, (1-1e-12)*ix.u/n)
	}
	var cands []int
	if unsigned {
		// The paper's unsigned reduction: probe −q too.
		cands = ix.ix.Candidates(probe, vec.Neg(probe))
	} else {
		cands = ix.ix.Candidates(probe)
	}
	acc := flat.NewAcc(k)
	for i, pi := range cands {
		if done != nil && i&1023 == 1023 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		if ix.dead.Dead(pi) {
			continue
		}
		v := ix.fs.Dot(pi, q)
		if unsigned && v < 0 {
			v = -v
		}
		acc.Offer(pi, v)
	}
	return flatHits(acc.Hits()), nil
}

func (ix *alshIndex) withDead(dead *flat.Tombstones) ShardIndex {
	return &alshIndex{fs: ix.fs, ix: ix.ix, u: ix.u, dead: dead}
}

// sketchIndex answers via the §4.3 trie recoverer (unsigned only,
// top-1 by construction); the recovered candidate's score is
// re-verified against the columnar store. A tombstoned recovery yields
// no hit — the sketch has no second candidate — so recall degrades on
// deleted rows until compaction rebuilds the recoverer over live rows.
type sketchIndex struct {
	rec  *sketch.Recoverer
	fs   *flat.Store
	dead *flat.Tombstones
}

func (ix sketchIndex) withDead(dead *flat.Tombstones) ShardIndex {
	return sketchIndex{rec: ix.rec, fs: ix.fs, dead: dead}
}

func (ix sketchIndex) TopK(ctx context.Context, q vec.Vector, k int, unsigned bool, _ int) ([]Hit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !unsigned {
		return nil, fmt.Errorf("server: sketch index answers unsigned queries only")
	}
	if len(q) != ix.fs.Dim() {
		return nil, fmt.Errorf("server: query dimension %d, index has %d", len(q), ix.fs.Dim())
	}
	// The recoverer's score is already the exact |pᵀq| over this
	// shard's store rows (bit-identical to fs.Dot — shared kernel).
	idx, v := ix.rec.Query(q)
	if idx < 0 || ix.dead.Dead(idx) {
		return nil, nil
	}
	return []Hit{{ID: idx, Score: v}}, nil
}

// searcherIndex adapts any core.Searcher — i.e. anything built by a
// registered core.SearchBuilder — into a top-1 ShardIndex, so the
// serving layer can host every (cs, s) engine the offline layer knows.
type searcherIndex struct {
	s  core.Searcher
	sp core.Spec
}

// FromSearchBuilder builds P into a top-1 ShardIndex driven by the
// given (cs, s) spec: a hit is returned only when the searcher reports
// a point clearing c·s.
func FromSearchBuilder(b core.SearchBuilder, P []vec.Vector, sp core.Spec) (ShardIndex, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	s, err := b.Build(P)
	if err != nil {
		return nil, err
	}
	return searcherIndex{s: s, sp: sp}, nil
}

func (ix searcherIndex) TopK(ctx context.Context, q vec.Vector, k int, unsigned bool, _ int) ([]Hit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := ix.sp
	if unsigned {
		sp.Variant = core.Unsigned
	} else {
		sp.Variant = core.Signed
	}
	idx, v, ok := ix.s.Search(q, sp)
	if !ok {
		return nil, nil
	}
	return []Hit{{ID: idx, Score: v}}, nil
}
