package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"

	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// Shapes shared by every workload. k, the batch width, the join's query
// side and the mutation batch are part of the metric definitions, so a
// workload cannot change them.
const (
	topK        = 10
	batchWidth  = 64  // queries per batch request
	joinQueries = 64  // records in the join's query collection
	upsertWidth = 64  // records per upsert request
	deleteWidth = 16  // ids per interleaved delete (mixed-durable)
	recallSet   = 256 // fixed queries behind recall_at_10 and the ladder
	writeEvery  = 25  // mixed-durable: searches between interleaved writes
	freshPool   = 8192
	minRows     = 512 // scale floor: above every pinned prefix
	dataName    = "c" // the data collection
	queryName   = "q" // the join's query collection
)

// opCounts fixes the work of one round: requests per phase. Work is
// never sized by duration, so two runs of one workload time the same
// operations.
type opCounts struct{ search, batch, join, mutate int }

// workload is one set of inputs plus the server configuration it runs
// against. Everything the server sees derives from (seed, scale).
type workload struct {
	name string
	why  string
	n, d int // full-scale data shape
	pool int // distinct search queries
	// ingestBatch is the records per set-up Ingest call.
	ingestBatch int
	spec        server.IndexSpec
	cache       int  // Config.CacheCapacity (negative disables)
	unsigned    bool // search ranks by |pᵀq|
	exact       bool // served top-k must equal the oracle's
	zipf        bool // search queries repeat, zipf(1.1) over the pool
	durable     bool // DataDir set; writes interleave with searches
	joinEngine  string
	// joinS is the join's promise threshold; zero derives it from the
	// inputs (the median of the join queries' best inner products, so
	// about half the queries are satisfied). joinC zero means exact.
	joinS, joinC float64
	// rounds is the timed rounds at the committed run length; ops the
	// requests per phase in each of them.
	rounds int
	ops    opCounts
	gen    func(rng *xrand.RNG, w *workload, n int) *inputs
}

const shardCount = 4

var workloads = []*workload{
	{
		name: "scan-heavy",
		why:  "rows are 12x L2, so flat kernels and shard fan-out dominate; JSON/HTTP under 10%",
		n:    40000, d: 64, pool: 512, ingestBatch: 1000,
		spec:  server.IndexSpec{Kind: server.KindExact},
		cache: -1, exact: true, joinEngine: "exact",
		rounds: 20, ops: opCounts{search: 24, batch: 2, join: 2, mutate: 4},
		gen: genGaussian,
	},
	{
		name: "small-hot",
		why:  "scans pruned or cached away, so routing, JSON, cache keying and net/http dominate",
		n:    20000, d: 16, pool: 2048, ingestBatch: 1000,
		spec:  server.IndexSpec{Kind: server.KindNormScan},
		cache: 4096, exact: true, zipf: true, joinEngine: "normpruned",
		rounds: 48, ops: opCounts{search: 300, batch: 12, join: 12, mutate: 8},
		gen: genLatent,
	},
	{
		name: "planted-alsh",
		why:  "the paper's regime: ALSH index under the (cs, s) promise, recall below 1 by design",
		n:    6000, d: 32, pool: recallSet, ingestBatch: 2000,
		spec:  server.IndexSpec{Kind: server.KindALSH},
		cache: -1, unsigned: true, joinEngine: "lsh", joinS: 0.9, joinC: 0.8,
		rounds: 16, ops: opCounts{search: 64, batch: 2, join: 2, mutate: 2},
		gen: genPlanted,
	},
	{
		name: "mixed-durable",
		why:  "int8 + rerank beside WAL, checkpoints, deletes and compaction on the same shards",
		n:    40000, d: 32, pool: 512, ingestBatch: 1000,
		spec:  server.IndexSpec{Kind: server.KindExact, Precision: server.PrecisionI8},
		cache: -1, durable: true, joinEngine: "exact",
		rounds: 18, ops: opCounts{search: 50, batch: 2, join: 4, mutate: 4},
		gen: genGaussian,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// config is the server configuration of the workload. Compaction runs
// only where the workload is about it: elsewhere a background rewrite
// landing inside a timed phase is noise, not signal.
func (w *workload) config(dataDir string, scale float64, tracing bool) server.Config {
	cfg := server.Config{
		DefaultShards:   shardCount,
		CacheCapacity:   w.cache,
		CompactFraction: -1,
		Tracing:         tracing,
	}
	if w.durable {
		cfg.DataDir = dataDir
		cfg.Fsync = "interval"
		cfg.CheckpointBytes = 1 << 20
		cfg.CompactFraction = 0.05
		cfg.CompactMinDead = scaled(2048, scale, 64)
	}
	return cfg
}

// scaled shrinks a full-scale count, never below floor.
func scaled(full int, scale float64, floor int) int {
	n := int(math.Round(float64(full) * scale))
	if n < floor {
		n = floor
	}
	return n
}

// inputs is everything a run feeds the server, generated from the seed
// before any timer starts.
type inputs struct {
	items   []vec.Vector // record id = index
	queries []vec.Vector // search pool; the first recallSet are the recall set
	joinQ   []vec.Vector // the join's query collection, record id = index
	fresh   []vec.Vector // replacement vectors for upserts, used in order
	// pinned ids are never upserted or deleted (planted partners: the
	// promise checks need them where the generator put them).
	pinned int
	// searchOrder is the pool index of the i-th search (cyclic).
	searchOrder []int
	joinS       float64
	hash        string
}

func genGaussian(rng *xrand.RNG, w *workload, n int) *inputs {
	return &inputs{
		items:   dataset.Gaussian(rng.Split(1), n, w.d, false),
		queries: dataset.Gaussian(rng.Split(2), w.pool, w.d, false),
		joinQ:   dataset.Gaussian(rng.Split(3), joinQueries, w.d, false),
		fresh:   dataset.Gaussian(rng.Split(4), freshPool, w.d, false),
	}
}

// genLatent is the recommender shape: item norms are lognormal-skewed,
// which is what lets the norm-sorted scan stop early.
func genLatent(rng *xrand.RNG, w *workload, n int) *inputs {
	const sigma = 1.0
	lf := dataset.NewLatentFactor(rng.Split(1), n, w.pool+joinQueries, w.d, sigma)
	return &inputs{
		items:   lf.Items,
		queries: lf.Users[:w.pool],
		joinQ:   lf.Users[w.pool:],
		fresh:   dataset.NewLatentFactor(rng.Split(4), freshPool, 1, w.d, sigma).Items,
	}
}

// genPlanted is the recall_test.go construction: unit-normalised latent
// factors, plus for every query (search pool and join side alike) one
// planted partner at inner product 0.95. Partner of search query i is
// record i; partner of join query j is record pool+j. Every vector
// stays inside the unit ball — an ALSH shard panics on a longer one.
func genPlanted(rng *xrand.RNG, w *workload, n int) *inputs {
	const target = 0.95
	nq := w.pool + joinQueries
	lf := dataset.NewLatentFactor(rng.Split(1), n-nq, nq, w.d, 0.3)
	in := &inputs{pinned: nq}
	all := make([]vec.Vector, nq)
	for i, u := range lf.Users {
		all[i] = vec.Normalized(u)
		in.items = append(in.items, vec.Scaled(all[i], target))
	}
	for _, it := range lf.Items {
		in.items = append(in.items, vec.Normalized(it))
	}
	in.queries, in.joinQ = all[:w.pool], all[w.pool:]
	in.fresh = dataset.Gaussian(rng.Split(4), freshPool, w.d, true)
	for _, v := range in.fresh {
		vec.Scale(v, 1-1e-9) // strictly inside the ball whatever the rounding
	}
	return in
}

// generate builds the workload's inputs for (seed, scale).
func (w *workload) generate(seed uint64, scale float64) *inputs {
	n := scaled(w.n, scale, minRows)
	rng := xrand.New(seed ^ hashName(w.name))
	in := w.gen(rng, w, n)
	for _, set := range [][]vec.Vector{in.items, in.queries, in.joinQ, in.fresh} {
		compact(set)
	}

	const orderLen = 1 << 14
	in.searchOrder = make([]int, orderLen)
	if w.zipf {
		z := xrand.NewZipf(rng.Split(5), w.pool, 1.1)
		for i := range in.searchOrder {
			in.searchOrder[i] = z.Draw()
		}
	} else {
		for i := range in.searchOrder {
			in.searchOrder[i] = i % w.pool
		}
	}

	in.joinS = w.joinS
	if in.joinS == 0 {
		best := make([]float64, len(in.joinQ))
		for i, q := range in.joinQ {
			best[i] = oracleTopK(in.items, q, 1, w.unsigned)[0].score
		}
		in.joinS = median(best)
	}
	in.hash = in.digest()
	return in
}

// compact moves vs onto one backing array. The generator's data then
// costs the collector one pointer-free object to mark instead of one
// per vector, so the benchmark's own heap does not lengthen the
// collections that run inside the server's timed work.
func compact(vs []vec.Vector) {
	if len(vs) == 0 {
		return
	}
	d := len(vs[0])
	backing := make([]float64, len(vs)*d)
	for i, v := range vs {
		row := backing[i*d : (i+1)*d : (i+1)*d]
		copy(row, v)
		vs[i] = row
	}
}

// hashName folds the workload name into the seed so two workloads never
// share a random stream.
func hashName(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// digest is a SHA-256 over every generated number, the evidence that
// one seed means one input.
func (in *inputs) digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, set := range [][]vec.Vector{in.items, in.queries, in.joinQ, in.fresh} {
		put(uint64(len(set)))
		for _, v := range set {
			for _, x := range v {
				put(math.Float64bits(x))
			}
		}
	}
	for _, i := range in.searchOrder {
		put(uint64(i))
	}
	put(math.Float64bits(in.joinS))
	return hex.EncodeToString(h.Sum(nil))
}

// mutationPlan hands out the ids each write touches. Its stream is
// separate from the data's, so asking for more rounds never changes
// the vectors.
type mutationPlan struct {
	rng       *xrand.RNG
	n, pinned int
	nextFresh int
	// revive holds ids the last interleaved delete removed; the next
	// interleaved upsert re-inserts them, so the live count stays put.
	revive []int
}

func newMutationPlan(seed uint64, w *workload, in *inputs) *mutationPlan {
	return &mutationPlan{
		rng:    xrand.New(seed ^ hashName(w.name)).Split(6),
		n:      len(in.items),
		pinned: in.pinned,
	}
}

// ids draws count distinct mutable record ids, starting with must.
func (p *mutationPlan) ids(count int, must []int) []int {
	out := append(make([]int, 0, count), must...)
	seen := make(map[int]bool, count)
	for _, id := range must {
		seen[id] = true
	}
	for len(out) < count {
		id := p.pinned + p.rng.Intn(p.n-p.pinned)
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// freshVecs returns the next count replacement vectors.
func (p *mutationPlan) freshVecs(in *inputs, count int) []vec.Vector {
	out := make([]vec.Vector, count)
	for i := range out {
		out[i] = in.fresh[p.nextFresh%len(in.fresh)]
		p.nextFresh++
	}
	return out
}
