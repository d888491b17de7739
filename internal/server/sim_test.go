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
//     (compactedJoin); a store-order sweep compares every live pair at
//     least, a normscan collection's pruned one the pairs it reports; lsh
//     on a collection that keeps no banding index, or a collection with no
//     live row, is refused; a join moves no search counter (checkJoin);
//     the planted lsh join meets Definition 1 for ≥ 0.9 of its promised
//     queries (checkPlanted);
//   - the server holds the model's collections at the model's Len, and
//     the written one the model's records: IDs, vectors bit for bit and
//     attributes, an AutoID ingest's records at the lowest IDs not live
//     (checkState); a delete counts what the model does, an ingest of a
//     live ID is refused (write); shard snapshots pinned before a write
//     answer bit-identically after it.
//
// A durable seed's server runs over errfs.Faulty, and now and then a
// write or checkpoint carries a disk fault: a WAL write, short write or
// fsync failure, or a segment short write, ENOSPC or torn rename, armed on
// its collection's files until the simulator heals the disk (fault). Then:
//
//   - a write that returns an error leaves no trace: it is unavailable,
//     and the model, Version(), each shard's id→row map and every reader
//     window stay as they were; a write that returns nil is acked, and
//     every later kill -9 image holds it (under fsync=interval too: a
//     kill -9 keeps the page cache);
//   - a latched log or a failed checkpoint degrades the collection, which
//     Readiness() names, which answers reads as the model does and whose
//     every mutation fails with ErrUnavailable (checkDegraded);
//   - a kill -9 image taken then, after a failed checkpoint too, recovers
//     the model bit for bit (checkImage), as every later reopen does;
//   - once the disk heals, the repair probe reactivates the collection, a
//     refused write is then acked, and checkPlanted holds.
//
// Beside the trace's writer run R reader goroutines (R ≤ 4, drawn after
// the trace, so a seed's trace does not depend on them). They search —
// one query or a batch of 33 or 64, a quarter of them cancelled a few
// microseconds in — and join, exact and lsh, while the writer ingests,
// upserts, deletes, drops and compacts in the background. The invariant
// they check is linearizability for a versioned store (Herlihy–Wing,
// TOPLAS 1990): a read answers as the model does at some version between
// the version of its collection read before it and the one read after it
// (simHistory). Exact, normscan and int8 hits are bit for bit topK; alsh
// hits are each live at that version with its vec.DotKernel score, in
// canonical order; exact join pairs are bruteJoin, a window a side; lsh
// pairs are live and score ≥ cs. A window is keyed by incarnation, the
// *Collection a name resolved to: a read that overlaps a drop may find
// the collection unknown, or answer from any incarnation it overlapped.
// Readers pause around reopen, crash and the writer's joins.
//
// A failing trace is minimised and printed with the f.Add line replaying it.

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/errfs"
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
	readers                 int    // goroutines reading beside the writer
	reads                   uint64 // seeds them
	interval                bool   // fsync=interval (every 100 ms), not always
	ckptEvery               bool   // a checkpoint after every write, not every 16 KiB of WAL
}

// serverConfig is the Config a run serves from, over dir through fs when
// durable.
func (c simConfig) serverConfig(dir string, fs errfs.FS) Config {
	cfg := Config{DefaultShards: c.shards, CacheCapacity: -1, Workers: c.workers, CompactFraction: -1}
	if c.cache {
		cfg.CacheCapacity = 256 // above the widest batch: a repeated one is cached whole
	}
	if c.compact {
		cfg.CompactFraction, cfg.CompactMinDead = 0.05, -1
	}
	if c.durable {
		cfg.DataDir, cfg.FS, cfg.Fsync, cfg.CheckpointBytes = dir, fs, "always", 16<<10
		if c.interval {
			cfg.Fsync = "interval"
		}
		if c.ckptEvery {
			cfg.CheckpointBytes = 1
		}
	}
	return cfg
}

// simFaults is the disk-fault menu; a rule is armed on one collection's files.
var simFaults = map[string]errfs.Rule{
	"wal":      {Op: errfs.OpWrite, Path: "wal-"},
	"walshort": {Op: errfs.OpWrite, Path: "wal-", Kind: errfs.KindShortWrite},
	"fsync":    {Op: errfs.OpSync, Path: "wal-"},
	"segshort": {Op: errfs.OpWrite, Path: "segment-", Kind: errfs.KindShortWrite},
	"enospc":   {Op: errfs.OpWrite, Path: "segment-", Err: syscall.ENOSPC},
	"rename":   {Op: errfs.OpRename, Path: "segment-", Kind: errfs.KindTornRename},
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
	direct    bool   // a write through the Collection: a missed cache invalidation
	auto      bool   // an ingest of AutoID records: the collection picks their IDs
	fault     string // a name in simFaults: the disk fault armed around the op
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
	if op.fault != "" {
		s += " (" + op.fault + " fault)"
	}
	return s + map[bool]string{true: " (direct)"}[op.direct] + map[bool]string{true: " (auto IDs)"}[op.auto]
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
// kinds it holds (any when empty; an op of another kind is drawn again;
// run reads "ingest:auto" as an AutoID ingest and "delete:fault" as a
// delete carrying a fault). faults names the faults of simFaults it draws
// (all when empty, none when "none"). Its traces are ops long, simOps
// when 0. readers fixes the reader count (none when negative, drawn when
// 0), reads what they ask ("search" or "join", both when empty), and end
// checks the server once the trace ran.
type simScenario struct {
	fix                  func(*simConfig)
	cells, kinds, faults string // space-separated
	ops, readers         int
	reads                string
	end                  func(*Server) error
}

// genSim draws a configuration — shards, cache, pool width, compaction,
// durability, dimension — and a trace of n ops of sc from seed: ingests,
// upserts, deletes of ids, of a 256-row block, of a shard and of a
// collection, searches and batches, joins over every engine, compactions,
// checkpoints, drops, clean reopens and kill -9 images. Then come the
// readers, the fsync mode and checkpoint trigger, AutoID ingests,
// attributes and disk faults, so that these draws leave the configuration
// and trace drawn before them as they were.
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
		for sc.kinds != "" && !slices.ContainsFunc(strings.Fields(sc.kinds), func(k string) bool { return strings.HasPrefix(k+":", ops[i].kind+":") }) {
			ops[i] = g.op()
		}
		if ops[i].kind == "drop" {
			delete(g.drawn, ops[i].col)
		}
	}
	cfg.readers, cfg.reads = rng.Intn(5), rng.Uint64()
	if sc.readers != 0 {
		cfg.readers = max(sc.readers, 0)
	}
	cfg.interval, cfg.ckptEvery = rng.Intn(2) == 0, rng.Intn(4) == 0
	if sc.fix != nil {
		sc.fix(&cfg)
	}
	faults := strings.Fields(cmp.Or(sc.faults, "wal walshort fsync segshort enospc rename")) // of simFaults, or none
	for i := range ops {
		op := &ops[i]
		op.auto = op.kind == "ingest" && rng.Intn(6) == 0
		for j := range op.recs { // an ingest's or an upsert's
			if rng.Intn(4) == 0 {
				op.recs[j].Attrs = map[string]string{"tag": fmt.Sprint(rng.Intn(3))}
			}
		}
		if cfg.durable && faults[0] != "none" && slices.Contains([]string{"ingest", "upsert", "delete", "block", "shard", "all", "checkpoint"}, op.kind) && rng.Intn(12) == 0 {
			op.fault = faults[rng.Intn(len(faults))]
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
	sc      simScenario
	dir     string
	fs      *errfs.Faulty // the durable server's filesystem
	s       *Server
	m       map[string]liveSet
	planted []store.Record    // hq's records
	last    map[string]simOp  // each collection's last search, asked again after a write
	heal    map[string]func() // what a collection's next write waits for after a fault (settle)
	hist    simHistory
	pause   sync.RWMutex // each read holds it, a reopen, crash or join takes it whole
	writing atomic.Bool  // a write is in flight, so readers read on
	readers sync.WaitGroup
}

// runSim runs ops of sc on a fresh server of cfg, beside its readers, and
// on a divergence returns the index of the op it followed and what it was.
func runSim(t *testing.T, cfg simConfig, ops []simOp, sc simScenario) (at int, err error) {
	r := &simRun{t: t, cfg: cfg, sc: sc, fs: errfs.NewFaulty(nil, 1), m: map[string]liveSet{}, last: map[string]simOp{}, heal: map[string]func(){}}
	r.hist.cond.L = &r.hist.mu
	r.hist.at, r.hist.byName = map[*Collection]map[uint64]liveSet{}, map[string][]*Collection{}
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
	r.write(simOp{kind: "ingest", col: "hq", recs: r.planted}, false)
	r.write(simOp{kind: "ingest", col: "h", recs: h}, false)
	r.checkPlanted()
	r.startReaders(ops)
	for at = range ops {
		r.hist.tick()
		r.apply(at, ops[at])
		r.checkState()
		r.checkReaders()
	}
	at = len(ops) - 1
	r.settle("")
	r.stopReaders()
	r.checkReaders()
	if sc.end != nil {
		if err := sc.end(r.s); err != nil {
			failf("at the end: %v", err)
		}
	}
	return -1, nil
}

func (r *simRun) open() {
	var err error
	if r.s, err = Open(r.cfg.serverConfig(r.dir, r.fs)); err != nil {
		failf("open: %v", err)
	}
}

func (r *simRun) close() {
	r.stopReaders()
	r.fs.Clear()
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

// await polls cond until it holds, and fails the run if it does not
// within ten seconds.
func await(what string, cond func() bool) {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			failf("timed out waiting for %s", what)
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
		r.settle("")
		r.reopen(op.kind == "crash")
	default:
		r.settle(op.col)
		pinned := r.pinned(op.col, TopKOpts{Unsigned: i%2 == 1})
		before := pinned()
		r.writing.Store(true)
		if c, ok := r.s.Collection(op.col); ok && op.fault != "" {
			r.fault(c, op)
		} else {
			r.write(op, false)
		}
		r.writing.Store(false)
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

// write applies a write to the server and, once it is acked, to the
// model. An ingest naming a live ID is refused, and so may any write be
// while a fault is armed (armed): it must then leave no trace — a write
// is unavailable, a checkpoint anything — and write returns the refusal.
func (r *simRun) write(op simOp, armed bool) error {
	c, exists := r.s.Collection(op.col)
	live, spec := r.m[op.col], simSpecs[op.col]
	var version uint64
	var rows []map[int]int // each shard's id→row map, with a fault armed
	if exists {
		version = c.Version()
	}
	if exists && armed {
		r.quiesce() // a compaction renumbers rows
		for _, sh := range c.shards {
			rows = append(rows, shardRows(r.t, sh))
		}
	}
	var err error
	var want string // the refusal the model expects
	var deleted int
	switch op.kind {
	case "ingest", "upsert":
		recs, kept := op.recs, op.recs
		if op.auto {
			kept = live.autoIDs(recs)
			recs = slices.Clone(recs)
			for i := range recs {
				recs[i].ID = AutoID
			}
		}
		switch {
		case op.kind == "ingest":
			if slices.ContainsFunc(recs, func(rec store.Record) bool { _, ok := live[rec.ID]; return ok }) {
				want = "duplicate record ID"
			}
			_, _, err = r.s.Ingest(op.col, &spec, 0, recs)
		case op.direct && exists:
			_, err = c.Upsert(recs)
		default:
			_, _, err = r.s.Upsert(op.col, &spec, 0, recs)
		}
		if r.m[op.col] == nil {
			r.m[op.col] = liveSet{}
		}
		if err == nil {
			if want != "" {
				failf("%s: acked, want refused: %s", op, want)
			}
			r.m[op.col].upsert(kept)
		}
	case "delete", "block", "shard", "all":
		ids := op.ids
		if op.kind != "delete" && exists {
			ids = targeted(c, op)
		}
		if op.direct && exists {
			_, deleted, err = c.Delete(ids)
		} else {
			_, deleted, _, err = r.s.Delete(op.col, ids)
		}
		if !exists {
			if err == nil {
				failf("%s: deleted from a collection the model does not hold", op)
			}
			return nil
		}
		if err == nil {
			if n := live.delete(ids); deleted != n {
				failf("%s: deleted %d records, the model %d", op, deleted, n)
			}
		}
	case "compact":
		if exists {
			err = c.compact()
		}
	case "checkpoint":
		if exists && c.log != nil {
			if err = c.log.Checkpoint(c.persistSnapshot); err != nil && armed {
				return err
			}
		}
	case "drop":
		r.quiesce()
		var ok bool
		if ok, err = r.s.Drop(op.col); ok != exists {
			failf("%s: dropped %v; the collection existed: %v", op, ok, exists)
		}
		delete(r.m, op.col)
	}
	switch c, _ := r.s.Collection(op.col); {
	case err == nil && c != nil && c.Version() != version+uint64(min(len(op.recs)+deleted, 1)): // a write that changed nothing keeps it
		failf("%s: acked at version %d, %d before", op, c.Version(), version)
	case err == nil:
	case want != "" && strings.Contains(err.Error(), want), armed && errors.Is(err, ErrUnavailable):
		if exists && c.Version() != version {
			failf("%s: refused (%v), it moved the version %d -> %d", op, err, version, c.Version())
		}
		for si := range rows { // a map first built for the write is its snapshot's (shardRows)
			if m := shardRows(r.t, c.shards[si]); rows[si] != nil && !maps.Equal(m, rows[si]) {
				failf("%s: refused (%v), it changed shard %d's id→row map", op, err, si)
			}
		}
	default:
		failf("%s: %v", op, err)
	}
	if live, ok := r.m[op.col]; ok {
		r.checkCollection(r.s, op.col, live)
	}
	r.record(op.col)
	return err
}

// autoIDs returns recs at the IDs an ingest of them as AutoID records
// gets: the lowest not live in m, in order.
func (m liveSet) autoIDs(recs []store.Record) []store.Record {
	out, id := slices.Clone(recs), 0
	for i := range out {
		for _, live := m[id]; live; _, live = m[id] {
			id++
		}
		out[i].ID = id
		id++
	}
	return out
}

// fault runs a durable write or checkpoint with its fault's rule armed on
// c's files, and checks what a disk fault must leave (see the header).
func (r *simRun) fault(c *Collection, op simOp) {
	rule := simFaults[op.fault]
	rule.Path = filepath.Join(string(filepath.Separator), op.col, rule.Path)
	repairs := c.repairs.Load()
	r.fs.Inject(rule)
	refused := r.write(op, true)
	// A checkpoint meets every rule of the menu — it syncs and rotates the
	// WAL, then writes and renames a segment — and its failure degrades
	// the collection, on the log's fault hook.
	if err := c.log.Checkpoint(c.persistSnapshot); err == nil {
		failf("%s: a checkpoint succeeded with the disk broken", op)
	}
	await(op.String()+": the collection to degrade", func() bool { return c.healthState() == HealthDegraded })
	r.checkDegraded(op.col)
	img, live := r.t.TempDir(), maps.Clone(r.m[op.col])
	copyTree(r.t, filepath.Join(r.dir, collectionDirName(op.col)), filepath.Join(img, collectionDirName(op.col)))
	r.fs.Clear()
	r.checkImage(img, op.col, live)
	r.heal[op.col] = func() {
		await(op.String()+": the repair probe to reactivate the collection", func() bool {
			return c.repairs.Load() > repairs && c.healthState() == HealthActive
		})
		if err := r.s.Readiness(); err != nil && strings.Contains(err.Error(), op.col+" (") {
			failf("%s: repaired, Readiness says %v", op, err)
		}
		if refused != nil && op.kind != "checkpoint" {
			r.write(op, false) // writes resume
		}
	}
}

// settle waits for the repair probe of name, or of every collection when
// name is empty, to reactivate it after its fault: the trace reads on
// while the probe backs off, and writes after it.
func (r *simRun) settle(name string) {
	for col, heal := range r.heal {
		if name == "" || col == name {
			delete(r.heal, col)
			heal()
		}
	}
}

// checkDegraded: Readiness names a degraded collection, which answers
// reads as the model does and refuses every mutation as unavailable,
// leaving no trace.
func (r *simRun) checkDegraded(name string) {
	if err := r.s.Readiness(); err == nil || !strings.Contains(err.Error(), name+" (degraded)") {
		failf("%s is degraded, Readiness says %v", name, err)
	}
	r.checkReads(name)
	recs, ids := []store.Record{{ID: 1 << 41, Vec: vec.New(r.cfg.dim)}}, append(slices.Collect(maps.Keys(r.m[name])), 1<<41)
	for _, op := range []simOp{{kind: "ingest", recs: recs}, {kind: "upsert", recs: recs}, {kind: "delete", ids: ids}} {
		op.col = name
		if err := r.write(op, true); err == nil {
			failf("%s: acked while %s is degraded", op, name)
		}
	}
}

// checkImage opens dir, a kill -9 image of name's directory, and checks
// that it recovers live: name at its spec and shard count, and its
// records bit for bit.
func (r *simRun) checkImage(dir, name string, live liveSet) {
	s, err := Open(r.cfg.serverConfig(dir, nil))
	if err != nil {
		failf("opening a kill -9 image of %s: %v", name, err)
	}
	defer s.Close()
	r.checkCollection(s, name, live)
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
// Every collection then holds the model's records and answers two
// queries as the model does.
func (r *simRun) reopen(crash bool) {
	if !r.cfg.durable {
		return
	}
	r.pause.Lock()
	defer r.pause.Unlock()
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
		r.record(name)
		r.checkCollection(r.s, name, r.m[name])
		r.checkReads(name)
	}
	r.checkPlanted()
}

// checkReads answers a zero and a planted query, signed and unsigned, on
// name as the model does.
func (r *simRun) checkReads(name string) {
	for _, unsigned := range []bool{false, true} {
		r.checkSearch(simOp{kind: "search", col: name, queries: []vec.Vector{vec.New(r.cfg.dim), r.planted[0].Vec},
			opts: SearchOpts{K: 10, Unsigned: unsigned}})
	}
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

// checkCollection: s holds name at its spec and the run's shard count,
// with live's records: their IDs, their vectors bit for bit and their
// attributes, and no attributes else.
func (r *simRun) checkCollection(s *Server, name string, live liveSet) {
	c, _ := s.Collection(name)
	if c == nil || c.spec.kind() != simSpecs[name].kind() || c.spec.precision() != simSpecs[name].precision() || len(c.shards) != r.cfg.shards {
		failf("collection %s is not a %s collection on %d shards", name, simSpecs[name].kind(), r.cfg.shards)
	}
	c.ingestMu.Lock()
	got, attrs := c.liveRecords(), len(c.attrs)
	c.ingestMu.Unlock()
	seen := make(map[int]bool, len(got))
	for _, rec := range got {
		if want := live[rec.ID]; seen[rec.ID] || !maps.Equal(rec.Attrs, want.Attrs) || !slices.EqualFunc(rec.Vec, want.Vec, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			failf("collection %s holds %v (again: %v), the model %v", name, rec, seen[rec.ID], want)
		}
		seen[rec.ID], attrs = true, attrs-min(len(rec.Attrs), 1)
	}
	if len(got) != len(live) || attrs != 0 {
		failf("collection %s holds %d records and %d more attribute maps, the model %d records", name, len(got), attrs, len(live))
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
	exact, recs := c.spec.kind() != KindALSH, slices.Collect(maps.Values(live))
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
			want = exactTopK(recs, q, k, unsigned)
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
	r.pause.Lock() // so that no reader's search moves the counters
	defer r.pause.Unlock()
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
		want = bruteJoin(data.records(), queries.records(), sp.CS(), sp.Variant == join.Unsigned, req.TopK, req.ExcludeSelf)
		// A store-order sweep scores every live pair. A normscan shard's
		// view stops each of its sorted runs at its own bound, so it
		// scores fewer: bound it below by the pairs it reports.
		compared = int64(len(data) * len(queries))
		if simSpecs[req.Data].kind() == KindNormScan {
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
	for _, variant := range []join.Variant{join.Signed, join.Unsigned} {
		sp := join.Spec{S: 0.9, C: 0.8, Variant: variant}
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
				if join.CheckGuarantee(P, []vec.Vector{q.Vec}, join.Result{Matches: byQuery[qi]}, sp) == nil {
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

// simHistory is the model's past, for readers: the live set of every
// collection incarnation at each version it published, recorded by the
// writer once the write returns (record). A read's window is the versions
// it may have answered at (states); a reader that saw a version before
// the writer recorded it waits for the record, which comes before the
// writer starts its next op (tick) or never.
type simHistory struct {
	mu     sync.Mutex
	cond   sync.Cond
	at     map[*Collection]map[uint64]liveSet
	byName map[string][]*Collection // incarnations, oldest first
	step   int                      // ops the writer started
	done   bool                     // the readers stop
	err    error                    // the first reader divergence
}

// simWindow is what a read saw of a collection: the incarnations its name
// resolved to before and after it (nil for none), the first's version
// before it and the last's after it, how many incarnations the name had
// had when it started and the op during which it ended.
type simWindow struct {
	name        string
	first, last *Collection
	from, to    uint64
	known, step int
}

// overlapsDrop reports whether the read may have found w's name unknown.
func (w simWindow) overlapsDrop() bool { return w.first == nil || w.first != w.last }

// record makes the model's live set of name the one of its collection's
// published version.
func (r *simRun) record(name string) {
	c, ok := r.s.Collection(name)
	if !ok || r.cfg.readers == 0 {
		return
	}
	h := &r.hist
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.at[c] == nil {
		h.at[c] = map[uint64]liveSet{0: nil}
		h.byName[name] = append(h.byName[name], c)
	}
	h.at[c][c.Version()] = maps.Clone(r.m[name])
	h.cond.Broadcast()
}

func (h *simHistory) tick() {
	h.mu.Lock()
	h.step++
	h.cond.Broadcast()
	h.mu.Unlock()
}

// next waits for the writer to start an op after the seen-th and returns
// its number, or -1 once the readers stop.
func (h *simHistory) next(seen int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	for !h.done && h.step == seen {
		h.cond.Wait()
	}
	if h.done {
		return -1
	}
	return h.step
}

// open starts a read's window on name.
func (h *simHistory) open(s *Server, name string) simWindow {
	h.mu.Lock()
	w := simWindow{name: name, known: len(h.byName[name])}
	h.mu.Unlock()
	if c, ok := s.Collection(name); ok {
		w.first, w.from = c, c.Version()
	}
	return w
}

func (h *simHistory) close(s *Server, w *simWindow) {
	if c, ok := s.Collection(w.name); ok {
		w.last, w.to = c, c.Version()
	}
	h.mu.Lock()
	w.step = h.step
	h.mu.Unlock()
}

// states returns the live sets of w's versions, oldest first: the first
// incarnation's from its version before the read on, every one made
// since, and the last's up to its version after the read.
func (h *simHistory) states(w simWindow) ([]liveSet, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	recorded := func() bool { _, ok := h.at[w.last][w.to]; return ok }
	for w.last != nil && !recorded() && !h.done && h.step == w.step {
		h.cond.Wait()
	}
	if w.last != nil && !recorded() {
		return nil, fmt.Errorf("%+v: no write made version %d", w, w.to)
	}
	incs := h.byName[w.name]
	lo, hi := w.known, len(incs)-1
	if w.first != nil {
		lo = slices.Index(incs, w.first)
	}
	if w.last != nil {
		hi = slices.Index(incs, w.last)
	}
	var out []liveSet
	for _, c := range incs[lo : hi+1] {
		for _, v := range slices.Sorted(maps.Keys(h.at[c])) {
			if (c != w.first || v >= w.from) && (c != w.last || v <= w.to) {
				out = append(out, h.at[c][v])
			}
		}
	}
	return out, nil
}

// startReaders starts the run's readers over the collections ops name.
// Their queries come from a pool of nine, so that answers are cached and
// brought forward, and the keys they add to the cache stay few.
func (r *simRun) startReaders(ops []simOp) {
	var names []string
	for _, op := range ops {
		for _, name := range []string{op.col, op.join.Data} {
			if name != "" && !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	if len(names) == 0 {
		names = []string{"h"}
	}
	slices.Sort(names)
	rng := xrand.New(r.cfg.reads)
	pool := []vec.Vector{vec.New(r.cfg.dim)}
	for len(pool) < 8 {
		pool = append(pool, ballVec(rng, r.cfg.dim), vec.Vector(rng.NormalVec(r.cfg.dim)))
	}
	for i := range r.cfg.readers {
		r.readers.Add(1)
		go func() {
			defer r.readers.Done()
			rng := xrand.New(r.cfg.reads + 1 + uint64(i))
			for step := 0; ; {
				if step = r.hist.next(step); step < 0 {
					return
				}
				// One read an op, two while a write is in flight.
				for n := 0; n == 0 || n < 2 && r.writing.Load(); n++ {
					if err := r.read(rng, names, pool); err != nil {
						r.hist.mu.Lock()
						r.hist.err = cmp.Or(r.hist.err, fmt.Errorf("reader %d: %w", i, err))
						r.hist.mu.Unlock()
						return
					}
				}
			}
		}()
	}
}

// stopReaders stops the readers and waits for them. writing is cleared
// first, as a write that failed leaves it set.
func (r *simRun) stopReaders() {
	r.writing.Store(false)
	r.hist.mu.Lock()
	r.hist.done = true
	r.hist.cond.Broadcast()
	r.hist.mu.Unlock()
	r.readers.Wait()
}

// checkReaders fails the run with the first reader divergence.
func (r *simRun) checkReaders() {
	r.hist.mu.Lock()
	defer r.hist.mu.Unlock()
	if r.hist.err != nil {
		failf("%v", r.hist.err)
	}
}

// read makes one request of a reader, a quarter of them under a deadline
// of up to 300 µs, and checks its answer against its window.
func (r *simRun) read(rng *xrand.RNG, names []string, pool []vec.Vector) error {
	ctx := context.Background()
	if rng.Intn(4) == 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
		defer cancel()
	}
	if r.sc.reads == "join" || r.sc.reads == "" && rng.Intn(8) == 0 {
		return r.readJoin(ctx, rng, names)
	}
	name := names[rng.Intn(len(names))]
	qs := make([]vec.Vector, []int{1, 1, 1, 33, 64}[rng.Intn(5)])
	for i := range qs {
		qs[i] = pool[rng.Intn(len(pool))]
	}
	opts := SearchOpts{K: []int{1, 10, 1000}[rng.Intn(3)], Unsigned: rng.Intn(2) == 0}
	r.pause.RLock()
	w := r.hist.open(r.s, name)
	res, err := r.s.SearchWithOpts(ctx, name, qs, opts)
	r.hist.close(r.s, &w)
	r.pause.RUnlock()
	states, serr := r.hist.states(w)
	req := fmt.Sprintf("search %s, %d queries, %+v, over %+v", name, len(qs), opts, w)
	switch {
	case serr != nil:
		return fmt.Errorf("%s: %w", req, serr)
	case err != nil && w.overlapsDrop() && strings.Contains(err.Error(), "unknown collection"):
		return nil
	case err != nil:
		return fmt.Errorf("%s: %w", req, err)
	}
	for i := range res {
		if e := res[i].Err; e != nil && !expired(ctx, e) {
			return fmt.Errorf("%s: query %d: %w", req, i, e)
		}
	}
	exact := simSpecs[name].kind() != KindALSH
	for _, live := range states {
		if live.answers(qs, res, opts, exact) {
			return nil
		}
	}
	return fmt.Errorf("%s: no version in the window answers it (query 0: %v)", req, res[0].Hits[:min(len(res[0].Hits), 10)])
}

// expired reports whether err is ctx's error — or DeadlineExceeded once
// ctx's deadline has passed, which a scan may return before the timer
// that cancels ctx runs.
func expired(ctx context.Context, err error) bool {
	d, ok := ctx.Deadline()
	return ctx.Err() != nil && errors.Is(err, ctx.Err()) || ok && !time.Now().Before(d) && errors.Is(err, context.DeadlineExceeded)
}

// answers reports whether every answered query of a search holds at m:
// bit for bit topK when exact, else hits live at m at their scores, in
// canonical order.
func (m liveSet) answers(qs []vec.Vector, res []SearchResult, opts SearchOpts, exact bool) bool {
	var recs []store.Record
	want := map[*float64][]Hit{} // by query: a batch repeats the pool's
	for i, q := range qs {
		hits := res[i].Hits
		switch {
		case res[i].Err != nil:
		case exact:
			if recs == nil {
				recs = slices.Collect(maps.Values(m))
			}
			if _, ok := want[&q[0]]; !ok {
				want[&q[0]] = exactTopK(recs, q, opts.K, opts.Unsigned)
			}
			if !sameHitsBitExact([][]Hit{hits}, [][]Hit{want[&q[0]]}) {
				return false
			}
		case len(hits) > opts.K:
			return false
		default:
			for j, h := range hits {
				rec, ok := m[h.ID]
				if !ok {
					return false
				}
				score := vec.DotKernel(rec.Vec, q)
				if opts.Unsigned {
					score = math.Abs(score)
				}
				if math.Float64bits(score) != math.Float64bits(h.Score) || j > 0 && cmp.Or(cmp.Compare(h.Score, hits[j-1].Score), cmp.Compare(hits[j-1].ID, h.ID)) >= 0 {
					return false
				}
			}
		}
	}
	return true
}

// readJoin makes a join of a reader — exact, or lsh on h — of a collection
// with itself, with hq or with another, and checks its pairs against
// the windows of both sides: a self-join pins one view for both.
func (r *simRun) readJoin(ctx context.Context, rng *xrand.RNG, names []string) error {
	req := JoinRequest{
		Data: names[rng.Intn(len(names))], Engine: []string{"exact", "normpruned"}[rng.Intn(2)],
		Variant: []string{"signed", "unsigned"}[rng.Intn(2)], S: []float64{0.5, 0.9}[rng.Intn(2)],
		C: []float64{1, 0.8}[rng.Intn(2)], TopK: []int{0, 1, 3}[rng.Intn(3)], ExcludeSelf: rng.Intn(2) == 0,
	}
	req.Queries = []string{req.Data, "hq", "hq", "hq", "hq", names[rng.Intn(len(names))]}[rng.Intn(6)]
	if req.Data == "h" && rng.Intn(2) == 0 {
		req.Engine = "lsh"
	}
	r.pause.RLock()
	dw, qw := r.hist.open(r.s, req.Data), r.hist.open(r.s, req.Queries)
	resp, err := r.s.JoinCtx(ctx, req)
	r.hist.close(r.s, &dw)
	r.hist.close(r.s, &qw)
	r.pause.RUnlock()
	data, derr := r.hist.states(dw)
	queries, qerr := r.hist.states(qw)
	desc := fmt.Sprintf("join %+v over %+v and %+v", req, dw, qw)
	empty := func(m liveSet) bool { return len(m) == 0 }
	switch {
	case derr != nil || qerr != nil:
		return fmt.Errorf("%s: %w", desc, cmp.Or(derr, qerr))
	case err == nil:
	case expired(ctx, err),
		strings.Contains(err.Error(), "unknown") && (dw.overlapsDrop() || qw.overlapsDrop()),
		strings.Contains(err.Error(), "non-empty") && (slices.ContainsFunc(data, empty) || slices.ContainsFunc(queries, empty)):
		return nil
	default:
		return fmt.Errorf("%s: %w", desc, err)
	}
	for _, d := range data {
		if req.Data == req.Queries && !dw.overlapsDrop() {
			queries = []liveSet{d} // a self-join pins one view: dw holds it
		}
		for _, q := range queries {
			if joinAnswers(d, q, req, resp.Pairs) {
				return nil
			}
		}
	}
	return fmt.Errorf("%s: no pair of versions in the windows answers its %d pairs", desc, len(resp.Pairs))
}

// joinAnswers reports whether pairs answer req over data and queries: bit
// for bit bruteJoin for an exact join; for lsh, pairs of live records
// each scoring ≥ cs at its vec.DotKernel value, in canonical order, at
// most max(TopK, 1) a query, no identity pair under ExcludeSelf.
func joinAnswers(data, queries liveSet, req JoinRequest, pairs []JoinPair) bool {
	sp, _ := joinSpec(req)
	cs, unsigned := sp.CS(), sp.Variant == join.Unsigned
	if req.Engine != "lsh" {
		return sameBits(pairs, bruteJoin(data.records(), queries.records(), cs, unsigned, req.TopK, req.ExcludeSelf))
	}
	n := 0 // pairs of p's query so far
	for i, p := range pairs {
		if i == 0 || pairs[i-1].QueryID != p.QueryID {
			n = 0
		}
		d, dok := data[p.DataID]
		q, qok := queries[p.QueryID]
		if n++; !dok || !qok || n > max(req.TopK, 1) || req.ExcludeSelf && p.DataID == p.QueryID {
			return false
		}
		v := vec.DotKernel(d.Vec, q.Vec)
		if unsigned {
			v = math.Abs(v)
		}
		if math.Float64bits(v) != math.Float64bits(p.Value) || v < cs || i > 0 &&
			cmp.Or(cmp.Compare(pairs[i-1].QueryID, p.QueryID), cmp.Compare(p.Value, pairs[i-1].Value), cmp.Compare(pairs[i-1].DataID, p.DataID)) >= 0 {
			return false
		}
	}
	return true
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
		return runSim(t, cfg, sub, sc)
	}
	at, err := run(idx)
	if err == nil {
		return
	}
	// Readers race the writer, so a sub-trace passes only if it passes a
	// few runs in a row. Past its budget the minimiser stops shrinking.
	tries, budget := 1+3*min(cfg.readers, 1), time.Now().Add(simMinimizeTime)
	fails := func(idx []int) (err error) {
		for i := 0; i < tries && err == nil && time.Now().Before(budget); i++ {
			_, err = run(idx)
		}
		return err
	}
	n := len(idx)
	idx = minimize(idx[:at+1], func(idx []int) bool { return fails(idx) != nil })
	if e := fails(idx); e != nil {
		err = e
	}
	var b strings.Builder
	kept := strings.Join(strings.Fields(strings.Trim(fmt.Sprint(idx), "[]")), ", ")
	replay := fmt.Sprintf("f.Add(uint64(%#x), []byte{%s})", seed, kept)
	if sc.fix != nil || sc.cells != "" || sc.kinds != "" || sc.faults != "" || sc.readers != 0 || sc.reads != "" || sc.end != nil {
		replay = fmt.Sprintf("the scenario's simulate(t, %#x, []byte{%s})", seed, kept)
	}
	fmt.Fprintf(&b, "seed %#x (%+v): %v\nminimised from %d to %d ops; replay with %s:", seed, cfg, err, n, len(idx), replay)
	for _, j := range idx {
		fmt.Fprintf(&b, "\n  %3d  %s", j, ops[j])
	}
	t.Fatal(b.String())
}

// simMinimizeTime bounds the minimiser, whose candidates with readers run
// several times each (under -race, seconds a run).
const simMinimizeTime = 30 * time.Second

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
// every shard count, both pool widths, every dimension, both fsync modes
// and both checkpoint triggers, and every disk fault.
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

// simCorpus is FuzzSim's corpus: the minimised traces of the defects the
// simulator found. A score tie at the k-th hit kept by row order, not by
// record ID, once an upsert appended rows out of ID order (scanShard).
// AutoID handed out the IDs after a cursor that a delete or a refused
// ingest never moved back (Collection.release). A checkpoint whose WAL
// rotation failed left the log on the closed file, so that the repair
// probe never succeeded (persist.Log.Repair).
var simCorpus = []struct {
	seed uint64
	keep []byte
}{
	{0x2, []byte{148, 149}},      // exact f64
	{0xd, []byte{170, 180}},      // normscan f64
	{0x7, []byte{232, 237, 245}}, // an AutoID ingest after a block delete
	{0x1, []byte{10, 13}},        // an AutoID ingest refused by a WAL fault, then acked
	{0xd, []byte{38, 58}},        // a delete of no live ID, and a short write in the rotation after it
}

// FuzzSim is the simulator's long budget: the fuzzer draws seeds and
// sub-traces, starting from simCorpus.
func FuzzSim(f *testing.F) {
	for _, c := range simCorpus {
		f.Add(c.seed, c.keep)
	}
	f.Fuzz(simulate)
}

// simStream pins genSim's stream: a digest of the configuration, readers
// included, and the trace that each of simSeeds and simCorpus's seeds
// draws. A new draw that changes them would change what TestSim runs and
// the traces the corpus lines replay.
var simStream = map[uint64]string{
	1: "10a295a1fe8b75a1", 2: "14b2dc048eccf36b", 3: "0d20b28977b572f2", 4: "bdd2c248ace57515",
	5: "a7fcc777d2a17783", 6: "6a45a515c7aad7b0", 7: "2d2352b827af9226", 10: "ee3fa1b5e8bc7170",
	13: "d741ec30b3bc6f10", 16: "48f004e97b8ff8b5", 23: "356b9ac8ffc57bff", 24: "dd2dfdc4ef3c9ede",
}

func TestSimStreamPinned(t *testing.T) {
	t.Parallel()
	seeds := slices.Clone(simSeeds)
	for _, c := range simCorpus {
		seeds = append(seeds, c.seed)
	}
	for _, seed := range seeds {
		cfg, ops := genSim(seed, simOps, simScenario{})
		h := sha256.New()
		fmt.Fprintf(h, "%+v\n", cfg)
		for _, op := range ops {
			fmt.Fprintf(h, "%s %s %v %v %v %v %+v %+v %v %s\n", op.kind, op.col, op.recs, op.ids, op.direct, op.queries, op.opts, op.join, op.auto, op.fault)
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != simStream[seed] {
			t.Errorf("seed %#x draws a configuration and trace of digest %s, pinned %q", seed, got, simStream[seed])
		}
	}
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
// A scenario has readers and faults only if it names them.
func (sc simScenario) run(t *testing.T) {
	t.Parallel()
	sc.ops, sc.readers, sc.faults = simScenarioOps, cmp.Or(sc.readers, -1), cmp.Or(sc.faults, "none")
	for seed := uint64(1); seed <= 1000; seed++ {
		if _, ops := genSim(seed, sc.ops, sc); sc.holds(ops) {
			t.Logf("seed %d", seed)
			sc.simulate(t, seed, nil)
			return
		}
	}
	t.Fatalf("no seed up to 1000 draws %q in order on one cell", sc.kinds)
}

// holds reports whether ops hold sc's kinds in order on one cell.
func (sc simScenario) holds(ops []simOp) bool {
	for _, cell := range simCells {
		kinds := strings.Fields(sc.kinds)
		for _, op := range ops {
			if len(kinds) == 0 {
				break
			}
			kind, attr, _ := strings.Cut(kinds[0], ":")
			if c := cmp.Or(op.col, op.join.Data); op.kind == kind && (c == "" || c == cell) && (attr == "" || attr == "fault" && op.fault != "" || attr == "auto" && op.auto) {
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

func simDurable(c *simConfig) { c.durable, c.interval = true, false }

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

// The tests below are the simulator over a data directory, narrowed to
// the claims of the fault, crash and restart tests it replaces, under
// their names.

// TestWALFaultDegradesServing: a WAL fsync failure refuses its ingest and
// degrades the collection until the disk heals; a restart recovers exactly
// the acked writes.
func TestWALFaultDegradesServing(t *testing.T) {
	simScenario{fix: simDurable, faults: "fsync", kinds: "ingest:fault search reopen search"}.run(t)
}

// TestENOSPCMidCheckpointDegradesNotPanics: ENOSPC or a short write kills
// a checkpoint's segment write, which degrades the collection; the old
// segment and WAL recover bit-identically.
func TestENOSPCMidCheckpointDegradesNotPanics(t *testing.T) {
	fix := func(c *simConfig) { c.durable, c.ckptEvery = true, true }
	simScenario{fix: fix, faults: "enospc segshort", kinds: "ingest ingest:fault search crash reopen"}.run(t)
}

// TestWALFaultLeavesNoTrace: an ingest, an upsert or a delete whose WAL
// append fails leaves no trace, and AutoID then hands out the lowest IDs
// not live.
func TestWALFaultLeavesNoTrace(t *testing.T) {
	for _, kind := range []string{"ingest", "upsert", "delete"} {
		t.Run(kind, func(t *testing.T) {
			simScenario{fix: simDurable, faults: "wal walshort", kinds: "ingest upsert " + kind + ":fault ingest:auto search"}.run(t)
		})
	}
}

// TestCheckpointFromShardsBitIdentical: a segment written from shards with
// tombstones, plus a WAL tail, recovers from a kill -9 image bit-identically,
// at f64 and int8.
func TestCheckpointFromShardsBitIdentical(t *testing.T) {
	for name, cell := range map[string]string{"f64": "e64", "int8": "e8"} {
		t.Run(name, func(t *testing.T) {
			fix := func(c *simConfig) { simDurable(c); c.compact = false }
			simScenario{fix: fix, cells: cell, kinds: "ingest upsert delete checkpoint upsert crash search"}.run(t)
		})
	}
}

// TestAttrsFollowMutations: an upsert replaces or clears a record's
// attributes, a delete drops them, and both survive a checkpoint, a WAL
// tail and a reopen.
func TestAttrsFollowMutations(t *testing.T) {
	simScenario{fix: simDurable, kinds: "ingest delete checkpoint upsert reopen"}.run(t)
}

// TestDurableIngestAttrsSurvive: ingested attributes survive a reopen.
func TestDurableIngestAttrsSurvive(t *testing.T) {
	simScenario{fix: simDurable, kinds: "ingest reopen"}.run(t)
}

// TestRestartRecoversCollections: a restart recovers every collection at its
// spec, shard count and records, and AutoID then takes IDs none holds.
func TestRestartRecoversCollections(t *testing.T) {
	simScenario{fix: simDurable, kinds: "ingest ingest reopen search ingest:auto"}.run(t)
}

// TestCrashRecoversAcknowledgedWrites: a kill -9 image of an fsync=always
// server holds every acked write.
func TestCrashRecoversAcknowledgedWrites(t *testing.T) {
	simScenario{fix: simDurable, kinds: "ingest ingest crash search"}.run(t)
}

// TestCheckpointDuringIngest: under fsync=interval, checkpoints after
// every write compact the WAL while ingests go on, and a restart recovers
// every record.
func TestCheckpointDuringIngest(t *testing.T) {
	fix := func(c *simConfig) { c.durable, c.interval, c.ckptEvery = true, true, true }
	end := func(s *Server) error {
		if segs, _ := filepath.Glob(filepath.Join(s.cfg.DataDir, "*", "segment-*")); len(segs) == 0 {
			return errors.New("no segment written")
		}
		return nil
	}
	simScenario{fix: fix, kinds: "ingest ingest ingest reopen", end: end}.run(t)
}

// TestInt8CrashRecoveryIdenticalAnswers: an int8 collection checkpointed
// after every write recovers from a kill -9 image answering
// bit-identically, its quantization scales rebuilt exactly.
func TestInt8CrashRecoveryIdenticalAnswers(t *testing.T) {
	fix := func(c *simConfig) { simDurable(c); c.ckptEvery = true }
	simScenario{fix: fix, cells: "e8", kinds: "ingest ingest crash search"}.run(t)
}

// The tests below are the simulator with readers, narrowed to the claims
// of the concurrency tests it replaces, under their names.

// TestConcurrentIngestSearchConsistency: searches and batches beside
// ingests never read a partly published store, on exact and normscan
// collections with the cache off.
func TestConcurrentIngestSearchConsistency(t *testing.T) {
	for name, cell := range map[string]string{"exact": "e64", "normscan": "n64"} {
		t.Run(name, func(t *testing.T) {
			fix := func(c *simConfig) { c.cache = false }
			simScenario{fix: fix, cells: cell, kinds: "ingest", readers: 4, reads: "search"}.run(t)
		})
	}
}

// TestConcurrentIngestSearch: cached searches and batches beside ingests
// and upserts, on a pool narrower than the shard count, so a tile's shard
// groups run as tasks of their own and whichever ends last finishes the
// tile — also when its request is cancelled mid-scan.
func TestConcurrentIngestSearch(t *testing.T) {
	fix := func(c *simConfig) { c.shards, c.workers, c.cache = 4, 2, true }
	simScenario{fix: fix, cells: "e64", kinds: "ingest upsert", readers: 4, reads: "search"}.run(t)
}

// TestConcurrentWriters: the simulator has one writer, so here three
// write one collection at once — each ingests batches of fresh IDs of its
// own and upserts its previous batch — beside a searching reader. No write
// is lost: the collection holds every ID, the shards' live rows add up to
// its Len, and each ID holds the vector its writer last wrote.
func TestConcurrentWriters(t *testing.T) {
	const writers, batches, size = 3, 8, 25
	s := New(Config{DefaultShards: 4, Workers: 2, CacheCapacity: 64})
	defer s.Close()
	rng, want := xrand.New(3), map[int]vec.Vector{}
	batch := func(base int) []store.Record { // an ID's last draw is its last write
		recs := make([]store.Record, size)
		for i := range recs {
			recs[i] = store.Record{ID: base + i, Vec: rng.NormalVec(8)}
			want[base+i] = recs[i].Vec
		}
		return recs
	}
	mustIngest(t, s, "live", nil, 0, batch(0))
	var plan [writers][batches][2][]store.Record // batch b's fresh IDs, then batch b-1's again
	for w := range writers {
		for b := range batches {
			plan[w][b][0] = batch(size * (1 + w*batches + b))
			if b > 0 {
				plan[w][b][1] = batch(size * (w*batches + b))
			}
		}
	}
	var wg sync.WaitGroup
	var errs [writers + 1]error
	var writing atomic.Int32
	writing.Store(writers)
	for w := range writers + 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w == writers { // the reader, until every writer is done
				for q := vec.New(8); errs[w] == nil && writing.Load() > 0; q[0]++ {
					_, errs[w] = s.Search("live", []vec.Vector{q}, 3, false)
				}
				return
			}
			defer writing.Add(-1)
			for b := 0; b < batches && errs[w] == nil; b++ {
				if _, _, errs[w] = s.Ingest("live", nil, 0, plan[w][b][0]); errs[w] == nil && b > 0 {
					_, _, errs[w] = s.Upsert("live", nil, 0, plan[w][b][1])
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Collection("live")
	cs, sum := s.Stats().Collections["live"], 0
	for _, sh := range cs.Shards {
		sum += sh.Live
	}
	if n := len(want); c.Len() != n || cs.Records != n || sum != n {
		t.Fatalf("Len %d, stats %d, shards' live rows sum to %d; want %d", c.Len(), cs.Records, sum, n)
	}
	for _, rec := range c.records() {
		if w := want[rec.ID]; !slices.Equal(rec.Vec, w) {
			t.Fatalf("ID %d holds %v, its writer last wrote %v", rec.ID, rec.Vec, w)
		}
	}
}

// TestSingleShardConcurrentSearchMatchesExact: single queries on one
// shard, each scanned on its caller's goroutine while the others hold the
// same snapshot.
func TestSingleShardConcurrentSearchMatchesExact(t *testing.T) {
	fix := func(c *simConfig) { c.shards, c.cache = 1, false }
	simScenario{fix: fix, cells: "e64", kinds: "ingest upsert", readers: 4, reads: "search"}.run(t)
}

// TestConcurrentJoinIngest: exact joins of exact and normscan data, and
// lsh joins of alsh data, beside ingests and upserts on both sides.
func TestConcurrentJoinIngest(t *testing.T) {
	simScenario{cells: "e64 n64 h", kinds: "ingest upsert", readers: 2, reads: "join"}.run(t)
}

// TestDropRaceWithSearch: searches across drops either find the
// collection unknown or answer from an incarnation they overlapped.
func TestDropRaceWithSearch(t *testing.T) {
	simScenario{kinds: "ingest drop", readers: 4, reads: "search"}.run(t)
}

// TestCacheRevalidationUnderConcurrentWrites: readers bring cached answers
// forward across the notes the writer publishes and cuts at the horizon;
// some answers are brought forward and some refused.
func TestCacheRevalidationUnderConcurrentWrites(t *testing.T) {
	for name, cell := range map[string]string{"exact": "e64", "normscan": "n64"} {
		t.Run(name, func(t *testing.T) {
			end := func(s *Server) error {
				if st := s.Stats().Cache; st.Revalidated == 0 || st.RevalidationMisses == 0 {
					return fmt.Errorf("cache stats %+v: no answer brought forward, or none refused", st)
				}
				return nil
			}
			fix := func(c *simConfig) { c.cache = true }
			simScenario{fix: fix, cells: cell, kinds: "ingest upsert delete", readers: 2, reads: "search", end: end}.run(t)
		})
	}
}

// TestReadsDuringWritesEveryPrecision: searches, batches and joins beside
// ingests, upserts, deletes and background compactions, at f64 and int8.
func TestReadsDuringWritesEveryPrecision(t *testing.T) {
	for name, cell := range map[string]string{"f64": "e64", "int8": "e8"} {
		t.Run(name, func(t *testing.T) {
			fix := func(c *simConfig) { c.compact = true }
			simScenario{fix: fix, cells: cell, kinds: "ingest upsert delete", readers: 3}.run(t)
		})
	}
}

// TestReadersSeeAWriteOnEveryShardOrNone: searches, batches and joins
// beside upserts and deletes, on 2 and 4 shards with the cache off and
// on, see each write on every shard or on none — a view published after
// each shard's commit rather than after the last fails the simulator on
// every run.
func TestReadersSeeAWriteOnEveryShardOrNone(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for _, cache := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/cache=%v", shards, cache), func(t *testing.T) {
				fix := func(c *simConfig) { c.shards, c.cache = shards, cache }
				simScenario{fix: fix, cells: "e64", kinds: "ingest upsert delete", readers: 3}.run(t)
			})
		}
	}
}

// TestALSHSearchDuringWrites: alsh searches and batches, hashed a tile at
// a time, beside the writes that extend the banding indexes they probe.
func TestALSHSearchDuringWrites(t *testing.T) {
	simScenario{cells: "h", kinds: "ingest upsert", readers: 3, reads: "search"}.run(t)
}
