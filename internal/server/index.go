// Package server is the online serving subsystem of the reproduction: a
// concurrent, sharded inner-product search and join server. Named
// collections hold store.Record vectors; each collection is split
// across N goroutine-owned shards, every shard holding its own index
// built from a selectable engine (exact scan, norm-pruned MIPS scan, or
// §4.1 ALSH). Queries run as tiles — a single query is a tile of one —
// that scan every shard and k-way-merge the per-shard top-k lists, on a
// worker pool, and results are memoized in an LRU cache whose exact
// answers are brought forward across writes (cache.go). The §4.3 sketch is not served: it sums its rows, so it can
// neither mask a tombstone nor extend by a write (ips.SketchJoin and
// cmd/ipsjoin run it).
package server

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/flat"
	"repro/internal/join"
	"repro/internal/lsh"
	"repro/internal/transform"
	"repro/internal/vec"
)

// Hit is one search answer: a record ID and its (absolute, for
// unsigned) inner product with the query.
type Hit struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

// ShardIndex answers top-k MIPS queries over one shard's vectors, a tile
// of queries at a time; a single search is the tile of one.
type ShardIndex interface {
	// topKMulti answers query rows [qlo, qhi) of qs, which has the shard's
	// dimension: the returned accumulators, owned by sc, hold each query's
	// top-k hits — *local* indices into the build store, ordered by
	// decreasing score with ties broken by increasing index, with exact
	// scores (re-verified against the stored vectors by candidate-based
	// engines), each bit-identical to the query's answer as a tile of one.
	// ctx carries the request deadline: the engines abandon the tile within
	// one row block (or one candidate check) of cancellation and return
	// ctx's error; a never-cancelled ctx costs nothing.
	topKMulti(ctx context.Context, qs *flat.Store, qlo, qhi, k int, o TopKOpts, sc *scanScratch) ([]flat.Acc, error)
	// withDead returns an index answering exactly as if the store held
	// only the rows dead does not mark — same local row indices,
	// canonical ordering — with dead given in the store's original row
	// space. Calling it on an already-masked index replaces its dead set
	// (each engine rebuilds its view from its own immutable structures),
	// so delete publication never needs the unmasked original. old is the
	// snapshot the write replaces, whose index is this one or the one this
	// extends, masked by old.dead: an engine may derive its mask from
	// old's instead of anew.
	withDead(dead *flat.Tombstones, old *shardSnap) ShardIndex
}

// TopKOpts is what a tile of queries asks of a ShardIndex beyond the
// queries and k.
type TopKOpts struct {
	// Unsigned ranks by |pᵀq|.
	Unsigned bool
	// Explain, when non-nil, receives the engine's accounting of the tile,
	// summed over its queries — rows scanned, blocks pruned or skipped and
	// candidates re-ranked by a sweep, candidates verified by alsh; hits
	// stay bit-identical to the unexplained call.
	Explain *ShardExplain
	// Keys, when non-nil, are the tile's keys under the collection's alsh
	// hash functions (Collection.hashQueries), hashed once for every shard;
	// an alsh index given none hashes the tile itself. Other engines ignore
	// them.
	Keys *lsh.QueryKeys
	// floors, when non-nil, holds each tile query's floor (flat.Acc.SetFloor),
	// indexed from qlo: a join's cs, raised to the k-th best score the query
	// already holds from the shards scanned before this one (floorState).
	// Hits below it cannot reach the answer; a tie with it can.
	floors []float64
	// ids are the shard's record IDs, by store row: a score tie goes to
	// the smaller ID (flat.Acc.SetKeys), whatever the rows' order.
	ids []int
}

// IndexSpec selects and parameterizes the per-shard index engine. The
// zero value of every field means "use the engine default".
type IndexSpec struct {
	// Kind is one of "exact", "normscan", "alsh".
	Kind string `json:"kind"`
	// U is the ALSH query-ball radius (default 1).
	U float64 `json:"u,omitempty"`
	// K, L are the ALSH banding parameters (defaults 8, 16).
	K int `json:"k,omitempty"`
	L int `json:"l,omitempty"`
	// Seed, mixed with the collection's own seed (kept in its manifest),
	// samples the ALSH hash functions: one set per collection, shared by
	// every shard, so answers do not depend on the shard count.
	Seed uint64 `json:"seed,omitempty"`
	// Precision selects the vector storage tier: "f64" (the default) or
	// "int8" (an eighth of the scan bytes; the candidates its error bound
	// certifies are re-ranked through the retained f64 rows, so answers
	// are the f64 scan's). int8 supports the exact kind only. A data
	// directory written when "f32" was a tier reopens it as "f64".
	Precision string `json:"precision,omitempty"`
}

// Validate checks that the spec names a registered engine and that
// its parameters are usable (zero always means "default"), so bad
// specs fail at collection creation instead of at the first ingest.
func (s IndexSpec) Validate() error {
	switch s.Kind {
	case "", KindExact, KindNormScan, KindALSH:
	case "sketch":
		return fmt.Errorf("server: index kind %q is no longer served (use %s, %s or %s; the §4.3 sketch join is ips.SketchJoin or cmd/ipsjoin -engine sketch)",
			s.Kind, KindExact, KindNormScan, KindALSH)
	default:
		return fmt.Errorf("server: unknown index kind %q (want %s, %s or %s)",
			s.Kind, KindExact, KindNormScan, KindALSH)
	}
	if s.U < 0 || s.K < 0 || s.L < 0 {
		return fmt.Errorf("server: index %q: negative parameter (u=%v k=%d l=%d)",
			s.kind(), s.U, s.K, s.L)
	}
	switch s.precision() {
	case PrecisionF64:
	case PrecisionI8:
		if k := s.kind(); k != KindExact {
			return fmt.Errorf("server: precision %q supports index kind %s only, not %q",
				PrecisionI8, KindExact, k)
		}
	case legacyF32:
		return fmt.Errorf("server: precision %q is no longer served (use %s, or %s for an eighth of the scan bytes and the same answers)",
			s.Precision, PrecisionF64, PrecisionI8)
	default:
		return fmt.Errorf("server: unknown precision %q (want %s or %s)",
			s.Precision, PrecisionF64, PrecisionI8)
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
)

// The registered storage precisions (IndexSpec.Precision).
const (
	PrecisionF64 = "f64"
	PrecisionI8  = "int8"
)

// legacyF32 is the precision of the retired f32 tier: refused at
// creation, reopened as f64 (Server.adoptRecovered).
const legacyF32 = "f32"

// precision returns the effective storage precision (defaulting to
// f64, the tier every collection used before precisions existed).
func (s IndexSpec) precision() string {
	if s.Precision == "" {
		return PrecisionF64
	}
	return s.Precision
}

// buildShardIndex constructs the index for one shard over its columnar
// store, for every kind but normscan, which keeps no store (see
// extendNormScan). An alsh index extends hashes, the collection's one
// set of hash functions (see newALSHHashes), so every shard hashes alike
// and a query hashed once probes them all; it hashes row views of the
// store — slice headers into its chunks, no float copies — and verifies
// candidates through the store's kernel. Every engine retains fs itself
// as the exact truth it verifies or re-ranks against.
func buildShardIndex(spec IndexSpec, fs *flat.Store, hashes *lsh.Index) (ShardIndex, error) {
	if fs == nil || fs.Len() == 0 {
		return emptyIndex{}, nil
	}
	switch spec.kind() {
	case KindExact:
		return newFlatIndex(spec, fs), nil
	case KindALSH:
		index, _ := (&alshIndex{ix: hashes, u: spec.radius()}).extend(fs)
		return index, nil
	}
	return nil, fmt.Errorf("server: unknown index kind %q", spec.Kind)
}

// emptyIndex serves a shard that holds no vectors yet.
type emptyIndex struct{}

// topKMulti answers every query of the tile with nothing.
func (emptyIndex) topKMulti(_ context.Context, _ *flat.Store, qlo, qhi, k int, _ TopKOpts, sc *scanScratch) ([]flat.Acc, error) {
	return sc.tile.Accs(qhi-qlo, k), nil
}

func (ix emptyIndex) withDead(*flat.Tombstones, *shardSnap) ShardIndex { return ix }

// flatIndex is the scan engine behind the exact and normscan kinds at
// every precision. What differs between them is data, not code: which
// tier view is scanned — the f64 rows themselves (the Θ(nd) ground-truth
// engine) in store order or norm-sorted (row blocks visited in
// decreasing-norm order, the scan stopping at the first block whose
// Cauchy–Schwarz bound ‖p‖·‖q‖ cannot displace the k-th best hit), or
// their int8 mirror (an eighth of the bytes per row) — and whether the
// scan's candidates are re-scored through the f64 rows.
type flatIndex struct {
	// fs holds the f64 rows in store order, what an int8 re-rank scores
	// against; nil under a norm-sorted view, which holds its rows itself.
	fs   *flat.Store
	view flat.View
	// dead (nil until the first delete) lives in the view's row order, so
	// a norm-sorted scan never pays a per-row indirection: withDead
	// permutes it once per write that leaves a tombstone, patching the
	// previous snapshot's (flat.View.GatherDeadSince) — the words of the
	// leading runs both share copied, their new deaths placed through
	// their runs' inverse permutations, the runs the write merged
	// gathered — where the base run is the same.
	dead *flat.Tombstones
	// rerank (int8) makes the scan's scores candidates only: the answer
	// is their re-scoring through fs, so this engine never serves an
	// approximate score (the candidate-then-verify shape alsh has).
	rerank bool
}

// newFlatIndex builds the store-order view spec asks for over fs.
// Quantized precisions build their compact mirror here, at index-build
// time.
func newFlatIndex(spec IndexSpec, fs *flat.Store) *flatIndex {
	if spec.precision() == PrecisionI8 {
		return &flatIndex{fs: fs, view: flat.NewStoreI8(fs).View(), rerank: true}
	}
	return &flatIndex{fs: fs, view: fs.View()}
}

// extend returns the unmasked store-order index over nfs, an append-only
// store whose leading rows are the ones ix scans, and how many rows the
// scanned tier had to copy.
func (ix *flatIndex) extend(nfs *flat.Store) (*flatIndex, int) {
	view, copied := ix.view.ExtendTo(nfs)
	return &flatIndex{fs: nfs, view: view, rerank: ix.rerank}, copied
}

// extendNormScan returns a normscan shard's unmasked index over prev's
// rows and vs behind them, how many rows it copied, and whether that was
// a rebuild. The norm-sorted view is the shard's one copy of its rows,
// so a write grows it by the batch (flat.View.Extend), copying the run
// the batch merges into — a rebuild when that merge takes in the base
// run, a fold — and the first write to a shard, whose index is empty,
// sorts its batch.
func extendNormScan(prev ShardIndex, vs []vec.Vector) (ShardIndex, int, bool) {
	if ix, ok := prev.(*flatIndex); ok {
		view, copied, folded := ix.view.Extend(vs)
		return &flatIndex{view: view}, copied, folded
	}
	return &flatIndex{view: flat.SortRows(vs)}, len(vs), true
}

func (ix *flatIndex) withDead(dead *flat.Tombstones, old *shardSnap) ShardIndex {
	masked := *ix
	if prev, ok := old.index.(*flatIndex); ok {
		masked.dead = ix.view.GatherDeadSince(dead, prev.view, old.dead, prev.dead)
	} else {
		masked.dead = ix.view.GatherDead(dead)
	}
	return &masked
}

// topKMulti sweeps the view once for the whole tile through the
// register-blocked multi-query kernel and, on int8, re-ranks each
// query's candidates through the f64 rows: the rows the scan certified
// (flat.TileScratch.Candidates), which hold the f64 top k, so the answer
// is the f64 exact scan's. Under o.floors both the code sweep and the
// re-rank keep each query's floor, so the answer is the f64 top k among
// the rows at or above it. o.Explain, if set, receives ScanMulti's
// accounting (the per-query sum of what a scan of each query alone
// counts) and the candidates re-ranked.
func (ix *flatIndex) topKMulti(ctx context.Context, qs *flat.Store, qlo, qhi, k int, o TopKOpts, sc *scanScratch) ([]flat.Acc, error) {
	accs := o.ready(sc.tile.Accs(qhi-qlo, k))
	so := flat.ScanOpts{Unsigned: o.Unsigned, Dead: ix.dead}
	st := &sc.stats
	if o.Explain != nil {
		so.Stats = st
	}
	if err := ix.view.ScanMulti(ctx, qs, qlo, qhi, accs, &sc.tile, so); err != nil {
		return nil, err
	}
	if ex := o.Explain; ex != nil {
		ex.RowsScanned = st.ScannedRows
		ex.CSPrunedBlocks = st.PrunedBlocks
		ex.TombstoneSkippedBlocks = st.SkippedBlocks
	}
	if !ix.rerank {
		return accs, nil
	}
	for j := range accs {
		rows := sc.tile.Candidates(j, &accs[j])
		if o.Explain != nil {
			o.Explain.RerankCandidates += len(rows)
		}
		// The candidates are live rows of a scan that already checked q's
		// dimension and polled ctx, so the loop needs neither.
		accs[j].Reset(k)
		o.prime(&accs[j], j)
		ix.fs.OfferRows(nil, &accs[j], qs.Row(qlo+j), rows, nil, o.Unsigned)
	}
	return accs, nil
}

// ready primes accs, one per tile query, and returns them.
func (o TopKOpts) ready(accs []flat.Acc) []flat.Acc {
	for j := range accs {
		o.prime(&accs[j], j)
	}
	return accs
}

// prime breaks the ties of a, tile query j's accumulator, by o.ids and
// floors it at o.floors[j].
func (o TopKOpts) prime(a *flat.Acc, j int) {
	a.SetKeys(o.ids)
	if o.floors != nil {
		a.SetFloor(o.floors[j])
	}
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

// newALSHHashes samples an alsh collection's hash functions for vectors
// of dimension dim — the SIMPLE map into hyperplane LSH, banded (K, L) —
// as an empty banding index every shard's index extends. They are a
// function of spec and seed, the collection's, so a collection rebuilt
// from its manifest (recovery) hashes as it did.
func newALSHHashes(spec IndexSpec, dim int, seed uint64) (*lsh.Index, error) {
	k, l := cmp.Or(spec.K, 8), cmp.Or(spec.L, 16) // the default banding
	tr, err := transform.NewSimple(dim, spec.radius())
	if err != nil {
		return nil, err
	}
	inner, err := lsh.NewHyperplane(tr.OutputDim())
	if err != nil {
		return nil, err
	}
	fam, err := lsh.NewAsymmetric("simple-alsh", lsh.SimpleMaps(tr), inner)
	if err != nil {
		return nil, err
	}
	return lsh.NewIndex(fam, k, l, spec.Seed^seed)
}

// radius is the ALSH query-ball radius U, defaulted.
func (s IndexSpec) radius() float64 { return cmp.Or(s.U, 1) }

// probe is how an alsh query reaches the banding index: hashed scaled
// inside the U-ball when longer, and −q probed too when unsigned.
func (s IndexSpec) probe(unsigned bool) lsh.Probe {
	return lsh.Probe{Radius: s.radius(), Neg: unsigned}
}

// extend returns the unmasked index over fs, an append-only store whose
// leading rows must be exactly the rows ix indexes, and how many rows'
// bucket entries it wrote: only the rows the banding index has not seen
// are hashed, and the hash functions (the collection's) carry over with
// it, but lsh.Index.Extend merges the batch into fresh ids arrays
// for all L tables — all fs.Len() rows' ids are copied, whatever the
// batch. ix is untouched and keeps serving.
func (ix *alshIndex) extend(fs *flat.Store) (*alshIndex, int) {
	rows := make([]vec.Vector, fs.Len()-ix.ix.Len())
	for i := range rows {
		rows[i] = fs.Row(ix.ix.Len() + i)
	}
	return &alshIndex{fs: fs, ix: ix.ix.Extend(rows), u: ix.u}, fs.Len()
}

// topKMulti answers the tile through the lsh join's tile loop: each query's
// buckets are looked up under the tile's keys — o.Keys, hashed once for
// every shard, which must hold those rows under this index's hash
// functions, or else hashed here as one product against its planes — and
// its candidates verified through the store, ctx polled throughout. A
// query outside the U-ball is hashed scaled inside it and scored raw;
// unsigned probes −q too, the paper's reduction. Under o.floors a
// candidate below its query's floor is verified but not offered.
// o.Explain, if set, receives the candidates the tile verified.
func (ix *alshIndex) topKMulti(ctx context.Context, qs *flat.Store, qlo, qhi, k int, o TopKOpts, sc *scanScratch) ([]flat.Acc, error) {
	accs := o.ready(sc.tile.Accs(qhi-qlo, k))
	e := join.LSH{Index: ix.ix, Radius: ix.u, Keys: o.Keys}
	var st flat.ScanStats
	err := e.TopKTile(ctx, ix.fs, qs, qlo, qhi, accs, ix.dead, o.Unsigned, &st)
	if o.Explain != nil {
		o.Explain.Candidates = st.Candidates
	}
	return accs, err
}

func (ix *alshIndex) withDead(dead *flat.Tombstones, _ *shardSnap) ShardIndex {
	return &alshIndex{fs: ix.fs, ix: ix.ix, u: ix.u, dead: dead}
}
