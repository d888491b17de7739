package server

// The seeded simulator: one model-based harness for every served path. A
// seed draws a configuration and a trace of ops over the four kind ×
// precision cells (genSim), run against the server and a model, a plain
// map of each collection's liveSet. After every op:
//
//   - exact, normscan and int8 answers are bit for bit exactTopK over the
//     live rows; alsh answers each query of a batch as it answers it alone,
//     and as a fresh collection of its seed and shard count built from the
//     live rows; a wrong-dimension query carries its error in place; a
//     repeated search is served from the cache, unchanged (checkSearch);
//   - exact and normpruned pairs are bit for bit bruteJoin over the live
//     rows, lsh pairs and Compared the join over the compactions
//     (compactedJoin); exact compares every live pair at least; an engine
//     the data kind keeps no structure for, or a collection with no live
//     row, is refused; a join moves no search counter (checkJoin); the
//     planted lsh join meets Definition 1 for ≥ 0.9 of its promised
//     queries (checkPlanted);
//   - the server holds the model's collections at the model's Len
//     (checkState), a delete counts what the model does (write), and shard
//     snapshots pinned before a write answer bit-identically after it.
//
// A failing trace is minimised and printed with the f.Add line replaying it.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/join"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// liveSet is the model of one collection: its live records by ID.
type liveSet map[int]store.Record

func (m liveSet) upsert(recs []store.Record) {
	for _, r := range recs {
		m[r.ID] = r
	}
}

// delete removes ids and returns how many were live: what Delete reports.
func (m liveSet) delete(ids []int) (n int) {
	for _, id := range ids {
		if _, ok := m[id]; ok {
			delete(m, id)
			n++
		}
	}
	return n
}

// records returns the live records in ID order.
func (m liveSet) records() []store.Record {
	out := make([]store.Record, 0, len(m))
	for _, id := range slices.Sorted(maps.Keys(m)) {
		out = append(out, m[id])
	}
	return out
}

// topK is the model's search answer: the exact scan of the live rows in
// the canonical (score descending, ID ascending) order, which exactTopK
// keeps whatever order it is handed the rows in.
func (m liveSet) topK(q vec.Vector, k int, unsigned bool) []Hit {
	return exactTopK(slices.Collect(maps.Values(m)), q, k, unsigned)
}

// simCells are the collections the generator writes, one per kind ×
// precision, of simSpecs; the planted queries, hq, have the zero spec.
var simCells = []string{"e64", "e8", "n64", "h"}

var simSpecs = map[string]IndexSpec{
	"e64": {Kind: KindExact}, "e8": {Kind: KindExact, Precision: PrecisionI8},
	"n64": {Kind: KindNormScan}, "h": {Kind: KindALSH, K: 4, L: 8},
}

// Every trace starts from the planted collections: "hq" holds simPlanted
// unit queries, exact f64, and "h" a partner of each at inner product 0.95
// under the same ID, among simNoise rows in the unit ball — the paper's
// promise at s = 0.9. Random upserts and deletes leave the partners be. A
// trace is simOps long: its op indices fit in a byte.
const simPlanted, simNoise, simOps = 40, 100, 250

type simConfig struct {
	shards, workers, dim    int
	cache, compact, durable bool
	plant                   uint64 // seeds the planted collections
}

// serverConfig is the Config a run serves from, over dir when durable.
func (c simConfig) serverConfig(dir string) Config {
	cfg := Config{DefaultShards: c.shards, CacheCapacity: -1, Workers: c.workers, CompactFraction: -1}
	if c.cache {
		cfg.CacheCapacity = 256 // above the widest batch: a repeated one is cached whole
	}
	if c.compact {
		cfg.CompactFraction, cfg.CompactMinDead = 0.05, -1
	}
	if c.durable {
		cfg.DataDir, cfg.Fsync, cfg.CheckpointBytes = dir, "always", 16<<10
	}
	return cfg
}

func ballVec(rng *xrand.RNG, d int) vec.Vector {
	return vec.Scaled(rng.UnitVec(d), 0.2+0.75*rng.Float64())
}

// planted returns the records of hq and of h a run starts from.
func (c simConfig) planted() (queries, data []store.Record) {
	rng := xrand.New(c.plant)
	for i := range simPlanted {
		q := vec.Vector(rng.UnitVec(c.dim))
		queries = append(queries, store.Record{ID: i, Vec: q})
		data = append(data, store.Record{ID: i, Vec: vec.Scaled(q, 0.95)})
	}
	for i := range simNoise {
		data = append(data, store.Record{ID: simPlanted + i, Vec: ballVec(rng, c.dim)})
	}
	return queries, data
}

// simOp is one op of a trace. It carries all it needs, so that any
// sub-trace is a trace too. kind is ingest, upsert, delete (of ids),
// block (rows [256·ids[1], 256·ids[1]+256) of shard ids[0]'s snapshot),
// shard (every row of shard ids[0]), all (every row), search, join,
// compact, checkpoint, drop, reopen or crash (a kill -9 image).
type simOp struct {
	kind, col string
	recs      []store.Record
	ids       []int
	direct    bool // a write through the Collection: a missed cache invalidation
	queries   []vec.Vector
	opts      SearchOpts
	join      JoinRequest
}

func (op simOp) String() string {
	ids := op.ids
	for _, rec := range op.recs[:min(len(op.recs), 8)] {
		ids = append(ids, rec.ID)
	}
	s := fmt.Sprintf("%s %s, %d recs, ids %v", op.kind, op.col, len(op.recs), ids)
	switch op.kind {
	case "search":
		s = fmt.Sprintf("search %s, %d queries, %+v", op.col, len(op.queries), op.opts)
	case "join":
		s = fmt.Sprintf("join %+v", op.join)
	case "compact", "checkpoint", "drop", "all", "reopen", "crash":
		s = op.kind + " " + op.col
	}
	return s + map[bool]string{true: " (direct)"}[op.direct]
}

// simGen draws a trace. It keeps the records it drew, live or not, to
// pick ids to replace or delete and rows to query.
type simGen struct {
	rng   *xrand.RNG
	cfg   simConfig
	cells []string                  // the collections it writes, searches and joins
	drawn map[string][]store.Record // by collection, since its last drop
	next  int                       // the next fresh ID, in any collection
	stock []vec.Vector              // queries drawn again and again, so that cached answers are served
}

// simScenario narrows the simulator to one claim: fix sets configuration
// fields once they are drawn, cells are the collections a trace writes,
// searches and joins (every one of simCells when empty), and kinds the op
// kinds it holds (any when empty; an op of another kind is drawn again).
// Its traces are ops long, simOps when 0.
type simScenario struct {
	fix          func(*simConfig)
	cells, kinds string // space-separated
	ops          int
}

// genSim draws a configuration — shards, cache, pool width, compaction,
// durability, dimension — and a trace of n ops of sc from seed: ingests,
// upserts, deletes of ids, of a 256-row block, of a shard and of a
// collection, searches and batches, joins over every engine, compactions,
// checkpoints, drops, clean reopens and kill -9 images.
func genSim(seed uint64, n int, sc simScenario) (simConfig, []simOp) {
	rng := xrand.New(seed)
	cfg := simConfig{
		shards: 1 + rng.Intn(4), workers: []int{0, 64}[rng.Intn(2)], dim: []int{4, 8, 17}[rng.Intn(3)],
		cache: rng.Intn(2) == 0, compact: rng.Intn(2) == 0, durable: rng.Intn(2) == 0, plant: rng.Uint64(),
	}
	if sc.fix != nil {
		sc.fix(&cfg)
	}
	_, h := cfg.planted()
	g := &simGen{rng: rng, cfg: cfg, cells: simCells, drawn: map[string][]store.Record{"h": h[simPlanted:]}, next: simPlanted + simNoise}
	if sc.cells != "" {
		g.cells = strings.Fields(sc.cells)
	}
	g.stock = []vec.Vector{ballVec(rng, cfg.dim), ballVec(rng, cfg.dim), ballVec(rng, cfg.dim)}
	ops := make([]simOp, n)
	for i := range ops {
		ops[i] = g.op()
		for sc.kinds != "" && !slices.Contains(strings.Fields(sc.kinds), ops[i].kind) {
			ops[i] = g.op()
		}
		if ops[i].kind == "drop" {
			delete(g.drawn, ops[i].col)
		}
	}
	return cfg, ops
}

// drawnRec returns a record drawn for col or, now and then, one of an id
// fresh never draws.
func (g *simGen) drawnRec(col string) store.Record {
	if recs := g.drawn[col]; len(recs) > 0 && g.rng.Intn(5) > 0 {
		return recs[g.rng.Intn(len(recs))]
	}
	return store.Record{ID: 1<<40 + g.rng.Intn(50)}
}

// vector draws a row of col: in the unit ball for alsh, otherwise ball
// and Gaussian rows; now and then zero, or a copy or the negation of a
// drawn row, for ties.
func (g *simGen) vector(col string) vec.Vector {
	switch r, v := g.rng.Intn(25), g.drawnRec(col).Vec; {
	case r == 0:
		return vec.New(g.cfg.dim)
	case r < 3 && v != nil:
		return v.Clone()
	case r == 3 && v != nil:
		return vec.Neg(v)
	case r < 10 && col != "h":
		return vec.Vector(g.rng.NormalVec(g.cfg.dim))
	}
	return ballVec(g.rng, g.cfg.dim)
}

func (g *simGen) fresh(col string, n int) []store.Record {
	recs := make([]store.Record, n)
	for i := range recs {
		recs[i] = store.Record{ID: g.next, Vec: g.vector(col)}
		g.next += 1 + g.rng.Intn(2)
	}
	g.drawn[col] = append(g.drawn[col], recs...)
	return recs
}

func (g *simGen) op() simOp {
	rng := g.rng
	op := simOp{col: g.cells[rng.Intn(len(g.cells))]}
	switch r := rng.Float64(); {
	case g.drawn[op.col] == nil && r < 0.9, r < 0.14:
		n := 1 + rng.Intn(40)
		if rng.Intn(12) == 0 && len(g.drawn[op.col]) < 500 {
			n = 256*g.cfg.shards + 64 + rng.Intn(256) // a whole block on every shard, rows after it
		}
		op.kind, op.recs = "ingest", g.fresh(op.col, n)
	case r < 0.26:
		op.kind, op.direct = "upsert", rng.Intn(4) == 0
		for i := rng.Intn(10); i > 0; i-- {
			if id := g.drawnRec(op.col).ID; !slices.ContainsFunc(op.recs, func(r store.Record) bool { return r.ID == id }) {
				op.recs = append(op.recs, store.Record{ID: id, Vec: g.vector(op.col)})
			}
		}
		op.recs = append(op.recs, g.fresh(op.col, 1+rng.Intn(4))...)
	case r < 0.36:
		op.kind, op.direct = "delete", rng.Intn(4) == 0
		for i := 1 + rng.Intn(10); i > 0; i-- {
			op.ids = append(op.ids, g.drawnRec(op.col).ID) // repeats too
		}
	case r < 0.39:
		op.kind, op.ids = "block", []int{rng.Intn(g.cfg.shards), rng.Intn(2)}
	case r < 0.41:
		op.kind, op.ids = "shard", []int{rng.Intn(g.cfg.shards)}
	case r < 0.42:
		op.kind = "all"
	case r < 0.68:
		return g.search(op.col)
	case r < 0.88:
		return g.join(op.col)
	case r < 0.91:
		op.kind = "compact"
	case r < 0.93 && g.cfg.durable:
		op.kind = "checkpoint"
	case r < 0.945:
		op.kind = "drop"
	case r < 0.97 && g.cfg.durable:
		return simOp{kind: []string{"reopen", "crash"}[rng.Intn(2)]}
	default:
		return g.search(op.col)
	}
	return op
}

// search draws one query or a batch whose width straddles one or two
// 32-query tiles, mixing stock, zero, exact-row, wrong-dimension, ball
// and Gaussian queries.
func (g *simGen) search(col string) simOp {
	rng, d := g.rng, g.cfg.dim
	op := simOp{kind: "search", col: col, opts: SearchOpts{K: []int{1, 3, 10, 1000}[rng.Intn(4)], Unsigned: rng.Intn(2) == 0}}
	width := []int{1, 1, 1, 1, 2, 3, 4, searchTileQ - 1, searchTileQ, searchTileQ + 1, 2*searchTileQ - 1, 2 * searchTileQ, 2*searchTileQ + 1}[rng.Intn(13)]
	for range width {
		q := vec.Vector(rng.NormalVec(d))
		switch rng.Intn(10) {
		case 0, 1, 2:
			q = g.stock[rng.Intn(len(g.stock))]
		case 3:
			q = vec.New(d)
		case 4:
			if v := g.drawnRec(col).Vec; v != nil {
				q = v.Clone()
			}
		case 5:
			q = vec.Vector(rng.NormalVec(d + 1))
		case 6, 7:
			q = ballVec(rng, d)
		}
		op.queries = append(op.queries, q)
	}
	return op
}

// join draws a join of data, mostly over an engine it serves, in either
// mode and variant, as a self-join or against another collection, the
// planted queries included.
func (g *simGen) join(data string) simOp {
	rng := g.rng
	engine := map[string]string{"n64": "normpruned", "h": "lsh"}[data]
	switch r := rng.Intn(10); {
	case r == 0:
		engine = []string{"normpruned", "lsh"}[rng.Intn(2)]
	case r < 5 || engine == "":
		engine = "exact"
	}
	req := JoinRequest{
		Data: data, Queries: data, Engine: engine, Variant: []string{"signed", "unsigned"}[rng.Intn(2)],
		S: []float64{0.5, 0.9}[rng.Intn(2)], C: []float64{1, 0.8}[rng.Intn(2)],
		TopK: []int{0, 0, 1, 3}[rng.Intn(4)], ExcludeSelf: rng.Intn(2) == 0,
	}
	if c := rng.Intn(2 * (len(g.cells) + 1)); c <= len(g.cells) {
		req.Queries = append(slices.Clone(g.cells), "hq")[c]
	}
	return simOp{kind: "join", join: req}
}

// simFailure is a divergence, carried by panic from the check that finds
// it to runSim.
type simFailure string

func failf(format string, args ...any) { panic(simFailure(fmt.Sprintf(format, args...))) }

// simRun is one trace's server and model.
type simRun struct {
	t       *testing.T
	cfg     simConfig
	dir     string
	s       *Server
	m       map[string]liveSet
	planted []store.Record   // hq's records
	last    map[string]simOp // each collection's last search, asked again after a write
}

// runSim runs ops on a fresh server of cfg and, on a divergence, returns
// the index of the op it followed and what it was.
func runSim(t *testing.T, cfg simConfig, ops []simOp) (at int, err error) {
	r := &simRun{t: t, cfg: cfg, m: map[string]liveSet{}, last: map[string]simOp{}}
	defer r.close()
	defer func() {
		if p := recover(); p != nil {
			f, ok := p.(simFailure)
			if !ok {
				panic(p)
			}
			err = errors.New(string(f))
		}
	}()
	if cfg.durable {
		r.dir = t.TempDir()
	}
	r.open()
	var h []store.Record
	r.planted, h = cfg.planted()
	r.write(simOp{kind: "ingest", col: "hq", recs: r.planted})
	r.write(simOp{kind: "ingest", col: "h", recs: h})
	r.checkPlanted()
	for at = range ops {
		r.apply(at, ops[at])
		r.checkState()
	}
	return -1, nil
}

func (r *simRun) open() {
	var err error
	if r.s, err = Open(r.cfg.serverConfig(r.dir)); err != nil {
		failf("open: %v", err)
	}
}

func (r *simRun) close() {
	if r.s != nil {
		r.quiesce()
		r.s.Close()
	}
}

// quiesce waits out the background compactions: a kill -9 image is taken
// of a directory no checkpoint rewrites, and none outlives a drop or close.
func (r *simRun) quiesce() {
	for _, name := range r.s.Collections() {
		for c, _ := r.s.Collection(name); c != nil && c.compacting.Load(); {
			time.Sleep(time.Millisecond)
		}
	}
}

// apply runs op i of the trace and checks what it answered.
func (r *simRun) apply(i int, op simOp) {
	switch op.kind {
	case "search":
		r.checkSearch(op)
	case "join":
		r.checkJoin(op)
	case "reopen", "crash":
		r.reopen(op.kind == "crash")
	default:
		pinned := r.pinned(op.col, TopKOpts{Unsigned: i%2 == 1})
		before := pinned()
		r.write(op)
		if got := pinned(); !sameHitsBitExact([][]Hit{got}, [][]Hit{before}) {
			failf("%s: snapshots pinned before it answer %v, %v before", op, got, before)
		}
		if op.col == "h" {
			r.checkPlanted()
		}
		if last, ok := r.last[op.col]; ok {
			r.checkSearch(last) // a cached answer is brought forward across the write, or dropped
		}
	}
}

// write applies a write to the server and to the model.
func (r *simRun) write(op simOp) {
	c, exists := r.s.Collection(op.col)
	live, spec := r.m[op.col], simSpecs[op.col]
	var err error
	switch op.kind {
	case "ingest", "upsert":
		switch {
		case op.kind == "ingest":
			_, _, err = r.s.Ingest(op.col, &spec, 0, op.recs)
		case op.direct && exists:
			_, err = c.Upsert(op.recs)
		default:
			_, _, err = r.s.Upsert(op.col, &spec, 0, op.recs)
		}
		if r.m[op.col] == nil {
			r.m[op.col] = liveSet{}
		}
		r.m[op.col].upsert(op.recs)
	case "delete", "block", "shard", "all":
		ids := op.ids
		if op.kind != "delete" && exists {
			ids = targeted(c, op)
		}
		var deleted int
		if op.direct && exists {
			_, deleted, err = c.Delete(ids)
		} else {
			_, deleted, _, err = r.s.Delete(op.col, ids)
		}
		if exists == (err != nil) {
			failf("%s: %v (the collection exists: %v)", op, err, exists)
		}
		if want := live.delete(ids); exists && deleted != want {
			failf("%s: deleted %d records, the model %d", op, deleted, want)
		}
		return
	case "compact":
		if exists {
			err = c.compact()
		}
	case "checkpoint":
		if exists && c.log != nil {
			err = c.log.Checkpoint(c.persistSnapshot)
		}
	case "drop":
		r.quiesce()
		var ok bool
		if ok, err = r.s.Drop(op.col); ok != exists {
			failf("%s: dropped %v; the collection existed: %v", op, ok, exists)
		}
		delete(r.m, op.col)
	}
	if err != nil {
		failf("%s: %v", op, err)
	}
}

// targeted returns the rows of c's snapshots a block, shard or all delete
// names, dead ones included.
func targeted(c *Collection, op simOp) (ids []int) {
	for si, sh := range c.shards {
		rows := sh.snap.Load().ids
		switch {
		case op.kind == "all":
		case si != op.ids[0]%len(c.shards):
			continue
		case op.kind == "block":
			rows = rows[min(256*op.ids[1], len(rows)):min(256*op.ids[1]+256, len(rows))]
		}
		ids = append(ids, rows...)
	}
	return ids
}

// reopen replaces the server with one recovered from its data
// directory: closed cleanly, or copied live as kill -9 would leave it.
// Every collection then answers two queries as the model does.
func (r *simRun) reopen(crash bool) {
	if !r.cfg.durable {
		return
	}
	r.quiesce()
	if crash {
		dir := r.t.TempDir()
		copyTree(r.t, r.dir, dir)
		r.dir = dir
	}
	if err := r.s.Close(); err != nil {
		failf("close: %v", err)
	}
	r.open()
	r.checkState()
	for _, name := range slices.Sorted(maps.Keys(r.m)) {
		if c, _ := r.s.Collection(name); c.spec.kind() != simSpecs[name].kind() || c.spec.precision() != simSpecs[name].precision() || len(c.shards) != r.cfg.shards {
			failf("%s reopened %s %s on %d shards", name, c.spec.kind(), c.spec.precision(), len(c.shards))
		}
		for _, unsigned := range []bool{false, true} {
			r.checkSearch(simOp{kind: "search", col: name, queries: []vec.Vector{vec.New(r.cfg.dim), r.planted[0].Vec},
				opts: SearchOpts{K: 10, Unsigned: unsigned}})
		}
	}
	r.checkPlanted()
}

// checkState: the server holds the model's collections, each at the
// model's live count.
func (r *simRun) checkState() {
	if names := r.s.Collections(); len(names) != len(r.m) {
		failf("the server holds collections %v, the model %d", names, len(r.m))
	}
	for name, live := range r.m {
		if c, ok := r.s.Collection(name); !ok || c.Len() != len(live) {
			failf("collection %s (held: %v) is not at the model's %d live records", name, ok, len(live))
		}
	}
}

// checkSearch runs a search op, and again when the cache is on.
func (r *simRun) checkSearch(op simOp) {
	ctx := context.Background()
	r.last[op.col] = op
	res, err := r.s.SearchWithOpts(ctx, op.col, op.queries, op.opts)
	live, exists := r.m[op.col]
	if exists == (err != nil) {
		failf("%s: %v (the collection exists: %v)", op, err, exists)
	} else if !exists {
		return
	}
	c, _ := r.s.Collection(op.col)
	var fresh *Collection // live in a collection of c's spec, seed and shards, built on first use
	defer func() {
		if fresh != nil {
			fresh.close()
		}
	}()
	k, unsigned := op.opts.K, op.opts.Unsigned
	exact := c.spec.kind() != KindALSH
	for i, q := range op.queries {
		got, want := res[i], []Hit(nil)
		switch {
		case len(q) != r.cfg.dim:
			if len(live) > 0 {
				if got.Err == nil || !strings.Contains(got.Err.Error(), "query dimension") {
					failf("%s: query %d of dimension %d answered %v, %v", op, i, len(q), got.Hits, got.Err)
				}
			}
			continue
		case got.Err != nil:
			failf("%s: query %d: %v", op, i, got.Err)
		case exact:
			want = live.topK(q, k, unsigned)
		default:
			if want, err = c.SearchOne(ctx, NewPool(1), q, k, unsigned); err != nil {
				failf("%s: query %d alone: %v", op, i, err)
			}
			if fresh == nil {
				if fresh, err = newCollection("fresh", c.spec, len(c.shards), c.seed); err == nil {
					_, err = fresh.Ingest(live.records())
				}
				if err != nil {
					failf("%s: a fresh build of its live rows: %v", op, err)
				}
			}
			if hits, err := fresh.SearchOne(ctx, NewPool(1), q, k, unsigned); err != nil || !sameHitsBitExact([][]Hit{want}, [][]Hit{hits}) {
				failf("%s: query %d: the collection answers %v, a fresh build of its live rows %v (%v)", op, i, want, hits, err)
			}
		}
		if !sameHitsBitExact([][]Hit{got.Hits}, [][]Hit{want}) {
			failf("%s: query %d (cached: %v) answered\n %v\nwant\n %v", op, i, got.Cached, got.Hits, want)
		}
	}
	if !r.cfg.cache {
		return
	}
	again, err := r.s.SearchWithOpts(ctx, op.col, op.queries, op.opts)
	for i := range again {
		if (again[i].Err == nil) != (res[i].Err == nil) || res[i].Err == nil && (!again[i].Cached || !sameHitsBitExact([][]Hit{again[i].Hits}, [][]Hit{res[i].Hits})) {
			failf("%s repeated: query %d (cached: %v) answered %v, %v; first %v, %v", op, i, again[i].Cached, again[i].Hits, again[i].Err, res[i].Hits, res[i].Err)
		}
	}
	if err != nil {
		failf("%s repeated: %v", op, err)
	}
}

// checkJoin runs a join op and checks its pairs, its Compared and that
// it moved no search counter.
func (r *simRun) checkJoin(op simOp) {
	req := op.join
	before := searchCounters(r.s)
	resp, err := r.s.Join(req)
	if after := searchCounters(r.s); !slices.Equal(before, after) {
		failf("%s: the join moved the cache or search counters: %v, then %v", op, before, after)
	}
	data, dok := r.m[req.Data]
	queries, qok := r.m[req.Queries]
	var refused string
	switch spec := simSpecs[req.Data]; {
	case !dok || !qok:
		refused = "unknown"
	case req.Engine == "normpruned" && spec.kind() != KindNormScan:
		refused = "use engine exact"
	case req.Engine == "lsh" && spec.kind() != KindALSH:
		refused = "index kind alsh"
	case len(data) == 0 || len(queries) == 0:
		refused = "join requires non-empty collections"
	}
	if refused != "" {
		if err == nil || !strings.Contains(err.Error(), refused) {
			failf("%s: %v, want an error naming %q", op, err, refused)
		}
		return
	}
	if err != nil {
		failf("%s: %v", op, err)
	}
	var want []JoinPair
	var compared int64
	switch req.Engine {
	case "lsh":
		want, compared = compactedJoin(r.t, r.s, req, compactions(r.t, r.s))
	default:
		sp, _ := joinSpec(req)
		want = bruteJoin(data.records(), queries.records(), sp.CS(), sp.Variant == core.Unsigned, req.TopK, req.ExcludeSelf)
		// A store-order sweep scores every live pair. normpruned stops each
		// of a shard's sorted runs at its own bound, so tombstones can make
		// it score fewer than a sweep of the compaction: bound it below by
		// the pairs it reports.
		compared = int64(len(data) * len(queries))
		if req.Engine == "normpruned" {
			compared = int64(len(want))
		}
	}
	if !sameBits(resp.Pairs, want) {
		failf("%s: pairs\n %v\nwant\n %v", op, resp.Pairs, want)
	}
	if resp.Compared < compared || req.Engine == "lsh" && resp.Compared != compared {
		failf("%s: compared %d, the reference %d", op, resp.Compared, compared)
	}
}

// checkPlanted: the lsh join of h and hq meets Definition 1, signed and
// unsigned, for at least 0.9 of the planted queries whose partner is
// live, when ten are.
func (r *simRun) checkPlanted() {
	recs := r.m["h"].records()
	P := make([]vec.Vector, len(recs))
	rowOf := make(map[int]int, len(recs))
	for i, rec := range recs {
		P[i], rowOf[rec.ID] = rec.Vec, i
	}
	for _, variant := range []core.Variant{core.Signed, core.Unsigned} {
		sp := core.Spec{S: 0.9, C: 0.8, Variant: variant}
		byQuery := make([][]join.Match, simPlanted)
		resp, err := r.s.Join(JoinRequest{Data: "h", Queries: "hq", Engine: "lsh", S: sp.S, C: sp.C, Variant: variant.String()})
		for i := 0; err == nil && i < len(resp.Pairs); i++ {
			pr := resp.Pairs[i]
			if _, ok := rowOf[pr.DataID]; !ok {
				failf("planted %v join: pair %+v names a record that is not live", variant, pr)
			}
			byQuery[pr.QueryID] = append(byQuery[pr.QueryID], join.Match{PIdx: rowOf[pr.DataID], Value: pr.Value})
		}
		promised, met := 0, 0
		for qi, q := range r.planted {
			if _, ok := r.m["h"][qi]; ok {
				promised++
				if core.CheckGuarantee(P, []vec.Vector{q.Vec}, join.Result{Matches: byQuery[qi]}, sp) == nil {
					met++
				}
			}
		}
		if promised < 10 {
			return
		}
		if err != nil || met*10 < promised*9 {
			failf("planted %v join: Definition 1 holds for %d of %d promised queries, want >= 0.9 (%v)", variant, met, promised, err)
		}
	}
}

// pinned pins name's shard snapshots and returns what answers a fixed
// query at k = 10 over them, as a one-query search does over the current
// ones.
func (r *simRun) pinned(name string, o TopKOpts) func() []Hit {
	c, ok := r.s.Collection(name)
	if !ok || c.dim.Load() == 0 {
		return func() []Hit { return nil }
	}
	snaps := make([]*shardSnap, len(c.shards))
	for si, sh := range c.shards {
		snaps[si] = sh.snap.Load()
	}
	q := vec.New(int(c.dim.Load()))
	for i := range q {
		q[i] = 1 / float64(i+1)
	}
	return func() []Hit {
		ctx, k := context.Background(), clampK(10, snaps)
		qs, err := flat.FromVectors([]vec.Vector{q})
		ts := getTileScratch()
		defer putTileScratch(ts)
		if err == nil {
			o.Keys, err = c.hashQueries(ctx, &ts.keys, qs, 0, 1, o.Unsigned)
		}
		if err == nil {
			ts.prepare(len(snaps), 1, k)
			err = scanInTurn(ctx, snaps, qs, ts, 0, 1, k, 0, len(snaps), new(floorState), math.Inf(-1), o, nil)
		}
		if err != nil {
			failf("pinned answer: %v", err)
		}
		return ts.merge(0, 1, k, nil, nil)
	}
}

// simulate runs the trace seed draws — only the ops keep names, when it
// names any — and on a divergence fails t with the trace minimised.
func simulate(t *testing.T, seed uint64, keep []byte) { simScenario{}.simulate(t, seed, keep) }

func (sc simScenario) simulate(t *testing.T, seed uint64, keep []byte) {
	if sc.ops == 0 {
		sc.ops = simOps
	}
	cfg, ops := genSim(seed, sc.ops, sc)
	var idx []int
	for i := range ops {
		if len(keep) == 0 || slices.Contains(keep, byte(i)) {
			idx = append(idx, i)
		}
	}
	run := func(idx []int) (int, error) {
		sub := make([]simOp, len(idx))
		for i, j := range idx {
			sub[i] = ops[j]
		}
		return runSim(t, cfg, sub)
	}
	at, err := run(idx)
	if err == nil {
		return
	}
	n := len(idx)
	idx = minimize(idx[:at+1], func(idx []int) bool { _, err := run(idx); return err != nil })
	_, err = run(idx)
	var b strings.Builder
	kept := strings.Join(strings.Fields(strings.Trim(fmt.Sprint(idx), "[]")), ", ")
	replay := fmt.Sprintf("f.Add(uint64(%#x), []byte{%s})", seed, kept)
	if sc.fix != nil || sc.cells != "" || sc.kinds != "" {
		replay = fmt.Sprintf("the scenario's simulate(t, %#x, []byte{%s})", seed, kept)
	}
	fmt.Fprintf(&b, "seed %#x (%+v): %v\nminimised from %d to %d ops; replay with %s:", seed, cfg, err, n, len(idx), replay)
	for _, j := range idx {
		fmt.Fprintf(&b, "\n  %3d  %s", j, ops[j])
	}
	t.Fatal(b.String())
}

// minimize returns a sub-trace of ops that still fails, from which no
// single op can be removed: it removes chunks, halving their size, then
// single ops until none goes.
func minimize[T any](ops []T, fails func([]T) bool) []T {
	for chunk := max(len(ops)/2, 1); ; chunk = max(chunk/2, 1) {
		removed := false
		for i := 0; i < len(ops); {
			if cand := slices.Delete(slices.Clone(ops), i, min(i+chunk, len(ops))); fails(cand) {
				ops, removed = cand, true
			} else {
				i += chunk
			}
		}
		if chunk == 1 && !removed {
			return ops
		}
	}
}

// simSeeds are TestSim's: between them they draw the cache, compaction and
// durability on and off in all eight combinations, four of them twice,
// every shard count, both pool widths and every dimension.
var simSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 10, 13, 16, 23, 24}

// TestSim runs the simulator over simSeeds, in parallel.
func TestSim(t *testing.T) {
	for _, seed := range simSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			simulate(t, seed, nil)
		})
	}
}

// FuzzSim is the simulator's long budget: the fuzzer draws seeds and
// sub-traces. Its corpus holds the minimised traces of the defects the
// simulator found.
func FuzzSim(f *testing.F) {
	// A score tie at the k-th hit kept by row order, not by record ID,
	// once an upsert appended rows out of ID order (scanShard).
	f.Add(uint64(0x2), []byte{148, 149}) // exact f64
	f.Add(uint64(0xd), []byte{170, 180}) // normscan f64
	f.Fuzz(simulate)
}

// TestSimMinimizer: fed a 200-op trace and a predicate that fails iff an
// id is deleted and its collection then searched, the minimiser returns
// the two-op core, which still fails.
func TestSimMinimizer(t *testing.T) {
	_, ops := genSim(3, 200, simScenario{})
	del := slices.IndexFunc(ops, func(op simOp) bool { return op.kind == "delete" })
	col, x := ops[del].col, ops[del].ids[0]
	fails := func(ops []simOp) bool {
		deleted := false
		for _, op := range ops {
			deleted = deleted || op.kind == "delete" && op.col == col && slices.Contains(op.ids, x)
			if deleted && op.kind == "search" && op.col == col {
				return true
			}
		}
		return false
	}
	if got := minimize(ops, fails); !fails(ops) || len(got) > 2 || !fails(got) {
		t.Fatalf("minimised to %d ops %v, want the failing 2-op core", len(got), got)
	}
}

// The tests below are the simulator narrowed to the claims of the scripted
// tests it replaces, under their names: each fixes the configuration a
// claim needs and draws only the collections and op kinds it concerns.
// Every invariant is checked after every op, as in TestSim.

// run simulates the trace of the first seed whose simScenarioOps ops hold
// the kinds sc names in their order, on one cell: each op of that
// sub-sequence writes, searches or joins that cell, or reopens the server.
func (sc simScenario) run(t *testing.T) {
	t.Parallel()
	sc.ops = simScenarioOps
	for seed := uint64(1); seed <= 100; seed++ {
		if _, ops := genSim(seed, sc.ops, sc); sc.holds(ops) {
			t.Logf("seed %d", seed)
			sc.simulate(t, seed, nil)
			return
		}
	}
	t.Fatalf("no seed up to 100 draws %q in order on one cell", sc.kinds)
}

// holds reports whether ops hold sc's kinds in order on one cell.
func (sc simScenario) holds(ops []simOp) bool {
	for _, cell := range simCells {
		kinds := strings.Fields(sc.kinds)
		for _, op := range ops {
			if c := cmp.Or(op.col, op.join.Data); len(kinds) > 0 && op.kind == kinds[0] && (c == "" || c == cell) {
				kinds = kinds[1:]
			}
		}
		if len(kinds) == 0 {
			return true
		}
	}
	return false
}

const simScenarioOps = 60

func simDurable(c *simConfig) { c.durable = true }

// TestMutationInterleavingMatchesReference: upserts, deletes and searches
// answer as the model does, at one and three shards, in memory, with the
// cache on and compaction off or aggressive.
func TestMutationInterleavingMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, compact := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/compact=%v", shards, compact), func(t *testing.T) {
				fix := func(c *simConfig) { c.shards, c.compact, c.cache, c.durable = shards, compact, true, false }
				simScenario{fix: fix, kinds: "ingest upsert delete search"}.run(t)
			})
		}
	}
}

// TestMutationDurableRestartAndCrash: the same over fsync=always, through
// clean reopens and kill -9 images.
func TestMutationDurableRestartAndCrash(t *testing.T) {
	simScenario{fix: simDurable, kinds: "ingest upsert delete reopen crash search"}.run(t)
}

// TestCacheNeverServesTombstonedHits: with the cache on, no answer after a
// delete, a block delete or an upsert names a dead or a replaced row.
func TestCacheNeverServesTombstonedHits(t *testing.T) {
	simScenario{fix: func(c *simConfig) { c.cache = true }, kinds: "ingest upsert delete block search"}.run(t)
}

// TestJoinSkipsTombstonedRows: after deletes and upserts a join pairs live
// rows only.
func TestJoinSkipsTombstonedRows(t *testing.T) {
	simScenario{kinds: "ingest upsert delete join"}.run(t)
}

// TestALSHMutationsMatchFreshBuild: an alsh collection, written to and
// compacted, answers as a fresh build of its live rows.
func TestALSHMutationsMatchFreshBuild(t *testing.T) {
	simScenario{cells: "h", kinds: "ingest upsert delete compact search"}.run(t)
}

// TestServedLSHJoinMeetsDefinition1: the planted lsh join meets Definition
// 1 after every write, compaction and reopen of its alsh collection.
func TestServedLSHJoinMeetsDefinition1(t *testing.T) {
	simScenario{fix: simDurable, cells: "h", kinds: "ingest upsert delete compact join reopen crash"}.run(t)
}

// TestJoinTombstoneGrid: joins over every engine, mode and variant, self
// and two-collection, beside each pattern of dead rows, half the patterns
// on a pool wider than a join has tiles.
func TestJoinTombstoneGrid(t *testing.T) {
	for i, pat := range [][2]string{{"none", ""}, {"scattered", "delete"}, {"upserts", "upsert"}, {"block", "block"}, {"shard", "shard"}, {"collection", "all"}} {
		t.Run(pat[0], func(t *testing.T) {
			fix := func(c *simConfig) { c.workers = 64 * (i % 2) }
			simScenario{fix: fix, kinds: "ingest " + pat[1] + " join"}.run(t)
		})
	}
}

// TestBatchSearchMatchesPerQuery: every query of a batch answers as it
// does alone, or as the model does, over tombstones left uncompacted.
func TestBatchSearchMatchesPerQuery(t *testing.T) {
	simScenario{fix: func(c *simConfig) { c.compact = false }, kinds: "ingest upsert delete search"}.run(t)
}

// TestPrecisionTierMutations: the int8 tier answers as the model does
// after deletes and upserts.
func TestPrecisionTierMutations(t *testing.T) {
	simScenario{cells: "e8", kinds: "ingest upsert delete search"}.run(t)
}

// TestPrecisionTierBatchMatchesSingle: the int8 tier answers each query
// of a batch as it answers it alone, and as the model does.
func TestPrecisionTierBatchMatchesSingle(t *testing.T) {
	simScenario{cells: "e8", kinds: "ingest search"}.run(t)
}
