package server

// The search executor. Every search request — one query or a batch — runs
// here, as query tiles: the queries the cache does not answer are packed
// into one pooled columnar query store, and each tile of up to searchTileQ
// of them is hashed once for every shard (alsh, Collection.hashQueries),
// scanned once per shard snapshot — swept through the register-blocked
// multi-query kernels (flatIndex.topKMulti) or probed under the tile's keys
// (alshIndex.topKMulti) — and k-way-merged per query, through pooled
// scratch. A single query is the tile of one, a join a batch (runJoin).
// Steady state does O(tiles) small allocations per request, not
// O(queries·shards).
//
// Parallelism follows the request, through one executor (runTiles) that
// joins share: each tile splits its shards into as many groups as it
// takes to give every worker of the pool a task — a request of one tile on
// a pool at least as wide as its shards a group per shard, one of as many
// tiles as workers a single group — and runs a task per (tile, group), so
// nothing nests on the pool. A group visits its shards in turn and hands
// each query's running k-th best to the next shard as its floor
// (scanInTurn, the threshold bound of Fagin–Lotem–Naor across shards): a
// row below it cannot enter the merged top k, and a tie with it still
// reaches the merge, so only the work changes — a norm-sorted shard stops
// at the floor instead of at its own k-th best. A query's answer and error
// depend on neither the grouping, nor on the batch width or its place in
// its tile: the tile scan is bit-identical to scanning the query alone
// (flat's contract), re-ranked tiers re-rank per query, every shard scan
// translates and sorts into its own region of the tile's arena, and a
// shard that fails fails its tile whole.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/trace"
	"repro/internal/vec"
)

// searchTileQ is the query-tile size of the executor: the number of
// queries that share one scan of each shard snapshot, and with a shard
// group the unit of parallel work a request hands the pool.
const searchTileQ = 32

// searchState is the pooled per-request state of the executor.
type searchState struct {
	qstore *flat.Store
	miss   []int     // the queries to scan, by index into the request
	keys   [][]byte  // their cache keys, when the cache is on, in keyBuf
	keyBuf []byte    // the request's cache keys, back to back
	view   *collView // the pinned view, read-only
}

var searchStatePool = sync.Pool{New: func() any { return new(searchState) }}

// tile returns the bounds [tlo, thi) of tile t in rs.miss.
func (rs *searchState) tile(t int) (int, int) {
	return t * searchTileQ, min((t+1)*searchTileQ, len(rs.miss))
}

func putSearchState(rs *searchState) {
	// Drop the view so pooling does not pin retired shard data; the key
	// buffer keeps its backing array (overwritten next use).
	rs.view = nil
	rs.miss = rs.miss[:0]
	clear(rs.keys)
	rs.keys = rs.keys[:0]
	rs.keyBuf = rs.keyBuf[:0]
	searchStatePool.Put(rs)
}

// tileScratch is the pooled per-tile state.
type tileScratch struct {
	keys   lsh.QueryKeys  // an alsh tile's keys, hashed once for every shard (Collection.hashQueries)
	hashed *lsh.QueryKeys // a search tile's: &keys, or nil when its collection hashes none
	span   *trace.Span    // a search tile's scan span, from its load to its answer
	lists  [][]Hit        // per (shard, tile query) translated hit lists
	trans  []Hit          // arena backing lists: k hits per (shard, tile query)
	heap   mergeHeap
	per    [][]Hit // per-query gather of shard lists for the merge
	// An lsh join tile's per-(data shard, query) state (walkTile): the
	// query's walk of the shard's tables and its top-k there, and the
	// queries still walking.
	walks   []lsh.Walk
	accs    []flat.Acc
	walking []int
	// A join tile's queries (loadJoinTile) and their record IDs.
	q    *flat.Store
	qids []int
	// The running floors of the tile's shards scanned in turn (scanInTurn),
	// one per shard group (runTiles).
	floors []floorState
}

var tileScratchPool = sync.Pool{New: func() any { return new(tileScratch) }}

// getTileScratch and putTileScratch take a tile's scratch from the pool
// and give it back; a test swaps them to count that each goes back once.
var (
	getTileScratch = func() *tileScratch { return tileScratchPool.Get().(*tileScratch) }
	putTileScratch = func(ts *tileScratch) {
		clear(ts.lists)
		clear(ts.per)
		ts.hashed, ts.span = nil, nil
		tileScratchPool.Put(ts)
	}
)

// scanScratch is one shard scan's pooled state: the shard groups of a
// tile run side by side, so each scan takes its own.
type scanScratch struct {
	tile  flat.TileScratch
	stats flat.ScanStats // an explained sweep's accounting (flatIndex.topKMulti)
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// pack makes *q the n query rows row(0), …, row(n−1), of dimension dim,
// in one contiguous columnar store: the tile kernels want query rows
// adjacent, and the norms computed here (vec.Norm, as everywhere) drive
// the per-query Cauchy–Schwarz bounds of normscan shards.
func pack(q **flat.Store, dim, n int, row func(int) vec.Vector) {
	if *q == nil {
		*q, _ = flat.New(dim)
	}
	_ = (*q).ResetDim(dim)
	for i := range n {
		_ = (*q).Append(row(i)) // dims pre-checked
	}
}

// grow returns s resized to n elements, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// search answers queries against c: out[i] receives query i's result.
// Cached answers are resolved first (a nil or disabled cache: none), and
// the misses are validated, packed into one columnar store and run as
// tiles on pool (runTiles). ctx propagates into every scan; queries whose
// tile was cancelled (mid-scan or before it started) carry the context
// error and are never cached. With opts.Explain — a one-query request —
// out[0].Explain says how the query was answered.
func (c *Collection) search(ctx context.Context, pool *Pool, cache *queryCache, queries []vec.Vector, opts SearchOpts, out []SearchResult) {
	// Degraded collections keep serving reads from their last published
	// snapshots; only quarantine — no trustworthy snapshot — blocks them.
	if err := c.checkReadable(); err != nil {
		for i := range out {
			out[i] = SearchResult{Err: err}
		}
		return
	}
	k := opts.K
	tr := trace.FromContext(ctx)
	var qe *QueryExplain
	if opts.Explain {
		qe = &QueryExplain{
			TraceID:    tr.ID(),
			Collection: c.name,
			Index:      c.spec.kind(),
			Precision:  c.spec.precision(),
			K:          k,
			// int8 collections re-rank through the exact f64 rows.
			Rerank: c.spec.precision() == PrecisionI8,
		}
	}
	rs := searchStatePool.Get().(*searchState)
	defer putSearchState(rs)

	// Resolve cache hits; collect misses (with their keys, so the tiles
	// don't serialize the key bytes a second time at put).
	if cache != nil && !cache.enabled() {
		cache = nil
	}
	var csp *trace.Span
	if cache != nil {
		csp = tr.StartSpan("cache")
	}
	// Pin the published view once: the cached answers and every shard
	// scan read the same write.
	view := c.view.Load()
	rs.view = view
	miss, keys := rs.miss[:0], rs.keys[:0]
	for i := range queries {
		if cache != nil {
			qstart := time.Now()
			at := len(rs.keyBuf)
			rs.keyBuf = appendCacheKey(rs.keyBuf, c.name, c.gen, k, opts.Unsigned, queries[i])
			key := rs.keyBuf[at:]
			if hits, ok := c.cachedHits(cache, view, key, queries[i], k, opts.Unsigned); ok {
				if qe != nil {
					qe.CacheHit = true
				}
				out[i] = SearchResult{Hits: hits, Cached: true, Explain: qe}
				c.observeLatency(time.Since(qstart))
				continue
			}
			keys = append(keys, key)
		}
		miss = append(miss, i)
	}
	csp.End()
	rs.miss, rs.keys = miss, keys
	if len(miss) == 0 {
		return
	}
	if k <= 0 {
		err := fmt.Errorf("server: k=%d must be positive", k)
		for _, i := range miss {
			out[i] = SearchResult{Err: err}
		}
		return
	}

	// Per-query dimension validation. Invalid queries keep their error;
	// the rest stay in request order.
	dim := int(c.dim.Load())
	valid, vkeys := miss[:0], keys[:0]
	for mi, i := range miss {
		if dim != 0 && len(queries[i]) != dim {
			out[i] = SearchResult{Err: fmt.Errorf("server: collection %q: query dimension %d, want %d", c.name, len(queries[i]), dim)}
			continue
		}
		valid = append(valid, i)
		if cache != nil {
			vkeys = append(vkeys, keys[mi])
		}
	}
	rs.miss, rs.keys = valid, vkeys
	if len(valid) == 0 {
		return
	}
	c.queries.Add(int64(len(valid)))

	snaps := view.snaps
	for _, sh := range c.shards {
		sh.queries.Add(int64(len(valid)))
	}
	opts.K = clampK(k, snaps)

	if dim == 0 {
		// Nothing ingested yet: every shard serves the empty index, and
		// every query the non-nil empty answer.
		start := time.Now()
		empty := make([]Hit, 0)
		for vi, i := range valid {
			if cache != nil {
				cache.put(c.name, vkeys[vi], empty, view.version, view.epoch)
			}
			out[i] = SearchResult{Hits: empty, Explain: qe}
			c.observeLatency(time.Since(start))
		}
		return
	}

	pack(&rs.qstore, dim, len(valid), func(vi int) vec.Vector { return queries[valid[vi]] })
	tiles := (len(valid) + searchTileQ - 1) / searchTileQ
	var ex []ShardExplain
	if qe != nil && tiles == 1 {
		ex = make([]ShardExplain, len(snaps))
	}
	start := time.Now()
	runTiles(ctx, pool, tiles, len(snaps), func(t int, ts *tileScratch) (err error) {
		tlo, thi := rs.tile(t)
		ts.span = tr.StartSpan("scan")
		ts.prepare(len(snaps), thi-tlo, opts.K)
		// An alsh tile is hashed once, for every shard; one whose request
		// expired first fails before any shard sees it.
		ts.hashed, err = c.hashQueries(ctx, &ts.keys, rs.qstore, tlo, thi, opts.Unsigned)
		return err
	}, func(t int, ts *tileScratch, lo, hi int, fl *floorState) error {
		tlo, thi := rs.tile(t)
		o := TopKOpts{Unsigned: opts.Unsigned, Keys: ts.hashed}
		return scanInTurn(ctx, snaps, rs.qstore, ts, tlo, thi, opts.K, lo, hi, fl, math.Inf(-1), o, ex)
	}, func(t int, ts *tileScratch, err error) {
		c.answerTile(tr, cache, rs, ts, t, opts.K, start, err, out)
	})
	if r := &out[valid[0]]; ex != nil && r.Err == nil {
		qe.fill(ex)
		r.Explain = qe
	}
}

// clampK clamps k to the rows snaps hold, a query's most hits.
func clampK(k int, snaps []*shardSnap) int {
	rows := 0
	for _, sn := range snaps {
		rows += len(sn.ids)
	}
	return min(k, max(rows, 1))
}

// answerTile answers the queries of tile t in out: with err when it is
// non-nil, else each with its hits merged over every shard's list in ts,
// put into cache too when cache is non-nil. It closes the tile's scan span
// and gives a traced request one merge span. It allocates only the hits
// that escape to the caller: one arena per tile, or an exact slice per
// query when the cache keeps them past the request.
func (c *Collection) answerTile(tr *trace.Trace, cache *queryCache, rs *searchState, ts *tileScratch, t, k int, start time.Time, err error, out []SearchResult) {
	valid := rs.miss
	tlo, thi := rs.tile(t)
	if ts != nil {
		ts.span.End()
	}
	if err != nil {
		for _, i := range valid[tlo:thi] {
			out[i] = SearchResult{Err: err}
			c.countTimeout(err)
		}
		return
	}
	tn := thi - tlo
	msp := tr.StartSpan("merge")
	var arena []Hit
	if cache == nil {
		arena = make([]Hit, 0, tn*k)
	}
	for j := 0; j < tn; j++ {
		var hits []Hit
		if cache != nil {
			hits = ts.merge(j, tn, k, make([]Hit, 0, k))
			cache.put(c.name, rs.keys[tlo+j], hits, rs.view.version, rs.view.epoch)
		} else {
			hits = ts.merge(j, tn, k, arena)
			arena = arena[:len(arena)+len(hits)]
		}
		out[valid[tlo+j]] = SearchResult{Hits: hits}
		c.observeLatency(time.Since(start))
	}
	msp.End()
}

// runTiles runs tiles query tiles (tiles ≥ 1) against nsh shards as tasks
// on pool. Each tile's shards split into per = min(nsh, ⌈workers/tiles⌉)
// groups, as many as it takes to give every worker a task, and a task per
// (tile, group) runs scan over the group's shards [lo, hi) with the
// group's own floors (scanInTurn), so the groups of one tile run side by
// side. A tile's first task to start loads it into pooled scratch (load);
// its last to end finishes it (finish) with the first error of its load
// and its groups in shard order, and returns the scratch. A tile the
// fan-out stopped feeding is finished after it with its groups' error or
// the fan-out's, ts nil when no task of it ran. Tasks start in order, so a
// request holds at most one more loaded tile than it has tasks in flight.
func runTiles(ctx context.Context, pool *Pool, tiles, nsh int, load func(t int, ts *tileScratch) error, scan func(t int, ts *tileScratch, lo, hi int, fl *floorState) error, finish func(t int, ts *tileScratch, err error)) {
	per := min(nsh, (pool.Workers()+tiles-1)/tiles)
	runs := make([]struct {
		once sync.Once
		ts   *tileScratch
		err  error        // load's
		ran  atomic.Int32 // tasks run
	}, tiles)
	errs := make([]error, tiles*per) // each task's
	done := func(t int, feedErr error) {
		r := &runs[t]
		finish(t, r.ts, cmp.Or(r.err, cmp.Or(errs[t*per:(t+1)*per]...), feedErr))
		if r.ts != nil {
			putTileScratch(r.ts)
		}
	}
	feedErr := pool.ForEachCtx(ctx, tiles*per, func(i int) {
		t, g := i/per, i%per
		r := &runs[t]
		r.once.Do(func() {
			r.ts = getTileScratch()
			r.ts.floors = grow(r.ts.floors, per)
			r.err = load(t, r.ts)
		})
		if r.err == nil {
			errs[i] = scan(t, r.ts, g*nsh/per, (g+1)*nsh/per, &r.ts.floors[g])
		}
		if r.ran.Add(1) == int32(per) {
			done(t, nil)
		}
	})
	for t := range runs {
		if runs[t].ran.Load() < int32(per) {
			done(t, feedErr)
		}
	}
}

// scanInTurn scans shards [lo, hi) one after another (scanShard), giving
// each every query's floor: base — a join's cs, −Inf for a search — or,
// once the shards before it hold k hits for the query, the k-th best of
// them (fl). A hit below that cannot enter the query's merged top k, and
// a tie with it can, so the merge is the floor-less scans', while a
// norm-sorted shard stops at the floor and every shard skips the offers
// below it. It returns the first shard error, scanning no shard after it.
func scanInTurn(ctx context.Context, snaps []*shardSnap, q *flat.Store, ts *tileScratch, tlo, thi, k, lo, hi int, fl *floorState, base float64, o TopKOpts, ex []ShardExplain) error {
	tn := thi - tlo
	fl.reset(tn, k, base)
	o.floors = fl.floors
	for si := lo; si < hi; si++ {
		if err := scanShard(ctx, snaps, q, ts, tlo, thi, k, si, o, ex); err != nil {
			return err
		}
		fl.fold(ts.lists[si*tn : (si+1)*tn])
	}
	return nil
}

// floorState is the running k best scores of each query of a tile over
// the shards scanned so far (scanInTurn), pooled in the tile's scratch, and
// the floors they give the next shard.
type floorState struct {
	k      int
	best   []float64 // query j's k best so far, descending, at best[j·k:][:n[j]]
	n      []int
	merged []float64 // fold's merge buffer
	floors []float64 // query j's floor for the next shard (TopKOpts.floors)
}

// reset readies fl for a tile of tn queries at k, every floor base.
func (fl *floorState) reset(tn, k int, base float64) {
	fl.k = k
	fl.best = grow(fl.best, tn*k)
	fl.n = grow(fl.n, tn)
	clear(fl.n)
	fl.merged = grow(fl.merged, k)
	fl.floors = grow(fl.floors, tn)
	for j := range fl.floors {
		fl.floors[j] = base
	}
}

// fold merges one shard's lists — lists[j], tile query j's hits, in
// descending score order — into the running k best, and floors each query
// that now holds k at its k-th best. Every listed hit scored at least the
// query's floor, so a floor never falls.
func (fl *floorState) fold(lists [][]Hit) {
	k := fl.k
	for j, hs := range lists {
		if len(hs) == 0 {
			continue
		}
		best, out := fl.best[j*k:][:fl.n[j]], fl.merged[:0]
		for a, b := 0, 0; len(out) < k && (a < len(best) || b < len(hs)); {
			if b == len(hs) || a < len(best) && best[a] >= hs[b].Score {
				out = append(out, best[a])
				a++
			} else {
				out = append(out, hs[b].Score)
				b++
			}
		}
		fl.n[j] = copy(fl.best[j*k:][:k], out)
		if len(out) == k {
			fl.floors[j] = out[k-1]
		}
	}
}

// prepare sizes ts for the scans of a tile of tn queries against nsh
// shards at k.
func (ts *tileScratch) prepare(nsh, tn, k int) {
	ts.lists = grow(ts.lists, nsh*tn)
	// Shard si translates into trans[si·tn·k:]: the arena is sized up front,
	// since growing it would move the lists aliasing it, and a fixed region
	// per shard makes its bytes independent of which scan ran first.
	ts.trans = grow(ts.trans, nsh*tn*k)
}

// scanShard runs query rows [tlo, thi) of q against shard si's pinned
// snapshot and lists their hits (tileScratch.list). ex, when non-nil, has
// ex[si] receive the shard's size, scan accounting and timing; a traced
// request gets one shard_scan span.
func scanShard(ctx context.Context, snaps []*shardSnap, q *flat.Store, ts *tileScratch, tlo, thi, k, si int, o TopKOpts, ex []ShardExplain) error {
	sp := trace.FromContext(ctx).StartSpan("shard_scan")
	sp.SetInt("shard", int64(si))
	defer sp.End()
	var start time.Time
	if ex != nil {
		start = time.Now()
		o.Explain = &ex[si]
	}
	sc := scanScratchPool.Get().(*scanScratch)
	defer scanScratchPool.Put(sc)
	snap := snaps[si]
	o.ids = snap.ids
	accs, err := snap.index.topKMulti(ctx, q, tlo, thi, k, o, sc)
	if err != nil {
		return err
	}
	ts.list(si, snap, accs, k)
	if sx := o.Explain; sx != nil {
		sx.Shard, sx.Records, sx.Live = si, len(snap.ids), len(snap.ids)-snap.dead.Count()
		sx.Micros = time.Since(start).Microseconds()
		sp.SetInt("rows_scanned", int64(sx.RowsScanned))
	}
	return nil
}

// list leaves tile query j's hits in shard si's accs — local rows of
// snap, k at most — in ts.lists[si·tn+j], in the shard's region of
// ts.trans: global IDs in the canonical (score descending, ID ascending)
// order, so the merge's tie-breaking is exact whatever the ID-to-shard
// assignment. The accs are keyed by snap.ids (flat.Acc.SetKeys), so they
// emit that order as they stand.
func (ts *tileScratch) list(si int, snap *shardSnap, accs []flat.Acc, k int) {
	tn := len(accs)
	for j := range accs {
		at := (si*tn + j) * k
		hs := ts.trans[at : at : at+k]
		for _, h := range accs[j].Hits() {
			hs = append(hs, Hit{ID: snap.ids[h.Index], Score: h.Score})
		}
		ts.lists[si*tn+j] = hs
	}
}

// merge appends to dst the k best hits of tile query j over every shard's
// list, of a tile of tn queries.
func (ts *tileScratch) merge(j, tn, k int, dst []Hit) []Hit {
	ts.per = grow(ts.per, len(ts.lists)/tn)
	for si := range ts.per {
		ts.per[si] = ts.lists[si*tn+j]
	}
	return mergeTopKInto(ts.per, k, dst, &ts.heap)
}
