// Package ips is the public API of the reproduction of
// Ahle, Pagh, Razenshteyn, Silvestri — "On the Complexity of Inner
// Product Similarity Join" (PODS 2016).
//
// It exposes the paper's machinery in five groups:
//
//   - Joins and search — exact, LSH-based, and linear-sketch engines for
//     the signed/unsigned approximate (cs, s) join of Definition 1, plus
//     maximum inner product search (MIPS) indexes built on the §4.1
//     asymmetric reduction and the §4.3 sketch recovery structure.
//   - Hardness — the three gap embeddings of Lemma 3 and the OVP
//     reduction pipeline of Lemma 2 (Theorems 1 and 2).
//   - LSH limits — the Theorem 3 staircase sequences, the Lemma 4
//     collision-grid partition, and the gap bound they imply.
//   - Upper-bound curves — the analytic ρ exponents compared in
//     Figure 2 (DATA-DEP, SIMP, MH-ALSH).
//   - Serving — the online layer behind cmd/ipsd: sharded collections,
//     batched top-k MIPS with a k-way merge, an LRU query cache, and
//     HTTP/JSON handlers (see NewServer and NewServerHandler).
//
// All randomized components take explicit 64-bit seeds and are exactly
// reproducible.
package ips

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/join"
	"repro/internal/lsh"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/store"
	"repro/internal/transform"
	"repro/internal/vec"
)

// Vector is a dense real vector (alias of the internal type, so callers
// can construct values directly as ips.Vector{…}).
type Vector = vec.Vector

// Match is a reported join pair.
type Match = join.Match

// Result is a join outcome with its work counter.
type Result = join.Result

// Dot returns the inner product.
func Dot(x, y Vector) float64 { return vec.Dot(x, y) }

// Norm returns the Euclidean norm.
func Norm(x Vector) float64 { return vec.Norm(x) }

// Variant selects the signed or unsigned problem.
type Variant = core.Variant

// Signed and Unsigned are the two problem variants of the paper.
const (
	Signed   = core.Signed
	Unsigned = core.Unsigned
)

// Spec is an approximate (cs, s) join specification (Definition 1).
type Spec = core.Spec

// ExactJoin runs the brute-force join (the ground-truth engine).
func ExactJoin(P, Q []Vector, sp Spec) (Result, error) {
	return core.Exact{}.Join(P, Q, sp)
}

// LSHJoinOptions configures LSHJoin.
type LSHJoinOptions struct {
	// K concatenated hashes per table, L tables. Zero values default to
	// K=8, L=16.
	K, L int
	Seed uint64
}

func (o *LSHJoinOptions) defaults() {
	if o.K == 0 {
		o.K = 8
	}
	if o.L == 0 {
		o.L = 16
	}
}

// LSHJoin runs the hyperplane-LSH banding join (signed or unsigned per
// the spec; the unsigned variant probes q and −q, the reduction stated
// in the paper's introduction).
func LSHJoin(P, Q []Vector, sp Spec, opts LSHJoinOptions) (Result, error) {
	opts.defaults()
	e := core.LSH{
		NewFamily: func(d int) (lsh.Family, error) { return lsh.NewHyperplane(d) },
		K:         opts.K, L: opts.L, Seed: opts.Seed,
	}
	return e.Join(P, Q, sp)
}

// SketchJoin runs the §4.3 linear-sketch join (unsigned only):
// approximation c = 1/n^{1/κ} with Õ(d·n^{1−2/κ}) per-query work.
func SketchJoin(P, Q []Vector, sp Spec, kappa float64, copies int, seed uint64) (Result, error) {
	e := core.Sketch{Kappa: kappa, Copies: copies, Seed: seed}
	return e.Join(P, Q, sp)
}

// SketchJoinGuaranteedC returns 1/n^{1/κ}, the approximation the sketch
// join certifies for n data vectors.
func SketchJoinGuaranteedC(n int, kappa float64) float64 {
	return 1 / sketch.ApproxFactor(n, kappa)
}

// CheckGuarantee verifies a join result against Definition 1 by brute
// force; nil means the (cs, s) guarantee holds.
func CheckGuarantee(P, Q []Vector, res Result, sp Spec) error {
	return core.CheckGuarantee(P, Q, res, sp)
}

// Recall scores an approximate result against an exact one.
func Recall(exact, approx Result, s float64) float64 {
	return join.Recall(exact, approx, s)
}

// MIPSIndex answers maximum inner product search queries with the §4.1
// construction: data from the unit ball is lifted to the unit sphere by
// the Neyshabur–Srebro asymmetric map and indexed under hyperplane LSH.
// Queries of any norm are accepted — scaling a query never changes the
// MIPS argmax, so probes are rescaled into the U-ball internally.
type MIPSIndex struct {
	data  []Vector
	index *lsh.Index
	tr    *transform.Simple
	u     float64
}

// MIPSOptions configures NewMIPSIndex.
type MIPSOptions struct {
	// U is the query-ball radius (default 1).
	U float64
	// K, L are the banding parameters (defaults 8, 16).
	K, L int
	Seed uint64
}

// NewMIPSIndex builds the index over data vectors with ‖p‖ ≤ 1.
func NewMIPSIndex(data []Vector, opts MIPSOptions) (*MIPSIndex, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("ips: empty data set")
	}
	if opts.U == 0 {
		opts.U = 1
	}
	if opts.K == 0 {
		opts.K = 8
	}
	if opts.L == 0 {
		opts.L = 16
	}
	d := len(data[0])
	tr, err := transform.NewSimple(d, opts.U)
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
	ix, err := lsh.NewIndex(fam, opts.K, opts.L, opts.Seed)
	if err != nil {
		return nil, err
	}
	ix.InsertAll(data)
	return &MIPSIndex{data: data, index: ix, tr: tr, u: opts.U}, nil
}

// probe rescales q into the U-ball (MIPS is scale-invariant in q).
func (m *MIPSIndex) probe(q Vector) Vector {
	if n := vec.Norm(q); n > m.u {
		return vec.Scaled(q, (1-1e-12)*m.u/n)
	}
	return q
}

// Query returns the index and inner product of the best colliding
// candidate, or (-1, 0) when nothing collides.
func (m *MIPSIndex) Query(q Vector) (int, float64) {
	return m.index.Query(m.probe(q), func(id int) float64 { return vec.Dot(m.data[id], q) })
}

// TopK returns up to k candidate indices ordered by decreasing inner
// product with q (exact scores over the colliding candidates).
func (m *MIPSIndex) TopK(q Vector, k int) []Match {
	if k <= 0 {
		panic(fmt.Sprintf("ips: TopK k=%d must be positive", k))
	}
	cands := m.index.Candidates(m.probe(q))
	ms := make([]Match, 0, len(cands))
	for _, pi := range cands {
		ms = append(ms, Match{PIdx: pi, Value: vec.Dot(m.data[pi], q)})
	}
	// Insertion sort by value (candidate sets are small).
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].Value > ms[j-1].Value; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
	if len(ms) > k {
		ms = ms[:k]
	}
	return ms
}

// BruteMIPS returns the exact MIPS answer (argmax of pᵀq, or of |pᵀq|
// when unsigned is true).
func BruteMIPS(data []Vector, q Vector, unsigned bool) (int, float64) {
	best, bv := -1, 0.0
	for i, p := range data {
		v := vec.Dot(p, q)
		if unsigned && v < 0 {
			v = -v
		}
		if best == -1 || v > bv {
			best, bv = i, v
		}
	}
	return best, bv
}

// FlatStore is the columnar vector store behind every brute-force scan
// in the repo: n×d vectors packed into one contiguous float64 array
// with precomputed norms, scanned by blocked multi-accumulator kernels.
// Use it when issuing many exact scans over a fixed data set — the
// contiguous layout is typically several times faster than a
// []ips.Vector scan and returns bit-identical scores.
type FlatStore = flat.Store

// FlatHit is one flat-scan answer: row index and (absolute, for
// unsigned) inner product.
type FlatHit = flat.Hit

// NewFlatStore packs data into a columnar store. All vectors must share
// one positive dimension.
func NewFlatStore(data []Vector) (*FlatStore, error) { return flat.FromVectors(data) }

// FlatTopK returns the exact top-k over a flat store under the
// canonical (score descending, index ascending) ordering, in one sweep
// on the calling goroutine.
func FlatTopK(s *FlatStore, q Vector, k int, unsigned bool) ([]FlatHit, error) {
	return s.TopK(q, k, unsigned, 1)
}

// FlatTopKMulti answers one exact top-k query per row of queries over a
// single sweep of the store, through the register-blocked multi-query
// (GEMM-style) tile kernels: each data row loaded from memory is
// scored against a whole query tile, so a batch runs at a fraction of
// the per-query cost of FlatTopK while every answer stays bit-identical
// to it (ordering, tie-breaks, and NaN rejection included).
func FlatTopKMulti(s *FlatStore, queries []Vector, k int, unsigned bool) ([][]FlatHit, error) {
	qs, err := flat.FromVectors(queries)
	if err != nil {
		return nil, err
	}
	return s.TopKMulti(qs, k, unsigned)
}

// NormRangeMIPS is the norm-banded variant of the §4.1 index: data is
// partitioned into geometric norm ranges, each with its own ALSH, which
// keeps equation (3)'s exponent strong under skewed norms.
type NormRangeMIPS = lsh.NormRangeMIPS

// NormRangeOptions configures NewNormRangeMIPS.
type NormRangeOptions = lsh.NormRangeOptions

// NewNormRangeMIPS builds the norm-banded MIPS index.
func NewNormRangeMIPS(data []Vector, opts NormRangeOptions) (*NormRangeMIPS, error) {
	return lsh.NewNormRangeMIPS(data, opts)
}

// MultiProbeIndex is the query-directed multi-probe hyperplane index:
// probing low-margin bit flips recovers recall at far fewer tables.
type MultiProbeIndex = lsh.MultiProbe

// NewMultiProbeIndex builds a multi-probe index with K hyperplanes per
// table, L tables and `probes` extra bucket probes per table per query.
func NewMultiProbeIndex(dim, k, l, probes int, seed uint64) (*MultiProbeIndex, error) {
	return lsh.NewMultiProbe(dim, k, l, probes, seed)
}

// SketchMIPS answers unsigned c-MIPS queries with the §4.3 trie
// recovery structure (approximation 1/n^{1/κ}).
type SketchMIPS struct {
	rec *sketch.Recoverer
}

// NewSketchMIPS builds the structure. copies boosts the per-node success
// probability (use odd values; 9 is a solid default).
func NewSketchMIPS(data []Vector, kappa float64, copies int, seed uint64) (*SketchMIPS, error) {
	rec, err := sketch.NewRecoverer(data, kappa, copies, seed)
	if err != nil {
		return nil, err
	}
	return &SketchMIPS{rec: rec}, nil
}

// Query returns the recovered index and its exact |pᵀq|.
func (m *SketchMIPS) Query(q Vector) (int, float64) { return m.rec.Query(q) }

// ---- Serving layer (cmd/ipsd) ----
//
// The online subsystem: a concurrent, sharded inner-product search and
// join server. Collections shard their records across goroutine-owned
// indexes, fan queries out with a k-way merge, memoize results in an
// LRU invalidated on ingest, and execute batches on a worker pool.

// ServerConfig configures NewServer.
type ServerConfig = server.Config

// Server is the serving-layer core (collections, cache, worker pool).
type Server = server.Server

// ServerIndexSpec selects the per-shard index engine of a collection
// ("exact", "normscan" or "alsh", plus engine parameters). The §4.3
// sketch is not served; SketchJoin and NewSketchMIPS run it offline.
type ServerIndexSpec = server.IndexSpec

// SearchHit is one served answer: record ID and inner product.
type SearchHit = server.Hit

// ServerStats is the /stats payload (per-shard sizes, query counts,
// latency percentiles, cache counters).
type ServerStats = server.Stats

// ServerJoinRequest asks the serving layer for an approximate (cs, s)
// join between two collections (threshold or top-k-pairs mode; exact,
// norm-pruned through a normscan collection's sorted view, or lsh through
// an alsh collection's own banding indexes), run as query tiles on the
// worker pool.
type ServerJoinRequest = server.JoinRequest

// ServerJoinResponse is the served join outcome in record-ID space.
type ServerJoinResponse = server.JoinResponse

// Record is a stored tuple: ID, vector payload, optional attributes.
type Record = store.Record

// NewServer creates a serving core; see ServerConfig for defaults.
// For a durable server (ServerConfig.DataDir set) use OpenServer so
// persisted collections are recovered before serving starts.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// OpenServer creates a serving core and, when cfg.DataDir is set,
// recovers every persisted collection (manifest + newest valid segment
// snapshot + WAL tail replay) before returning. Ingests into a durable
// server append to a per-collection write-ahead log — under the
// configured fsync policy — before they become visible, and the log is
// compacted into columnar segment snapshots in the background.
func OpenServer(cfg ServerConfig) (*Server, error) { return server.Open(cfg) }

// NewServerHandler wires a Server's HTTP/JSON API (PUT
// /collections/{name}, DELETE /collections/{name}, POST
// /collections/{name}/search, POST /collections/{a}/join/{b}, POST
// /collections/{name}/join (self-join), POST /join, GET /healthz,
// GET /stats).
func NewServerHandler(s *Server) http.Handler { return server.NewHandler(s) }
