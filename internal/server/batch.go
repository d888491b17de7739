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
// Parallelism follows the request: a request of one tile scans its shards
// on the pool, one task each; a request of several tiles runs its tiles on
// the pool, each visiting the shards in turn, so nothing nests on the pool.
// A tile that visits the shards in turn hands each query's running k-th
// best to the next shard as its floor (scanInTurn, the threshold bound of
// Fagin–Lotem–Naor across shards): a row below it cannot enter the merged
// top k, and a tie with it still reaches the merge, so only the work
// changes — a norm-sorted shard stops at the floor instead of at its own
// k-th best. A query's answer and error depend on neither schedule, nor
// on the batch width or its place in its tile: the tile scan is
// bit-identical to scanning the query alone (flat's contract), re-ranked
// tiers re-rank per query, every shard scan translates and sorts into its
// own region of the tile's arena, and a shard that fails fails its tile
// whole.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/trace"
	"repro/internal/vec"
)

// searchTileQ is the query-tile size of the executor: the number of
// queries that share one scan of each shard snapshot, and the unit of
// parallel work a request of several tiles hands the pool.
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
	keys  lsh.QueryKeys // an alsh tile's keys, hashed once for every shard (Collection.hashQueries)
	lists [][]Hit       // per (shard, tile query) translated hit lists
	trans []Hit         // arena backing lists: k hits per (shard, tile query)
	errs  []error       // per shard scan
	heap  mergeHeap
	per   [][]Hit // per-query gather of shard lists for the merge
	// An lsh join tile's per-(data shard, query) state (walkTile): the
	// query's walk of the shard's tables and its top-k there, and the
	// queries still walking.
	walks   []lsh.Walk
	accs    []flat.Acc
	walking []int
	// A join tile's queries (loadJoinTile) and their record IDs.
	q    *flat.Store
	qids []int
	// The running floors of the tile's shards scanned in turn (scanInTurn):
	// a search tile's one sweep, or a join tile's one per shard group.
	floors []floorState
}

var tileScratchPool = sync.Pool{New: func() any { return new(tileScratch) }}

func getTileScratch() *tileScratch { return tileScratchPool.Get().(*tileScratch) }

func putTileScratch(ts *tileScratch) {
	clear(ts.lists)
	clear(ts.per)
	tileScratchPool.Put(ts)
}

// scanScratch is one shard scan's pooled state: the shard scans of a
// one-tile request run side by side, so each takes its own.
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
// tiles — the shards of a one-tile request on pool, or in turn on the
// calling goroutine when pool is nil (SearchOne's), the tiles of a larger
// request on pool, which must then be set. ctx propagates into every
// scan; queries whose tile was cancelled (mid-scan or before it started)
// carry the context error and are never cached. With opts.Explain — a
// one-query request — out[0].Explain says how the query was answered.
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
	if tiles == 1 {
		var ex []ShardExplain
		if qe != nil {
			ex = make([]ShardExplain, len(snaps))
		}
		c.searchTile(ctx, pool, cache, rs, 0, opts, ex, out)
		if r := &out[valid[0]]; qe != nil && r.Err == nil {
			qe.fill(ex)
			r.Explain = qe
		}
		return
	}
	// tileDone marks tiles whose task ran; when the cancellable fan-out
	// stops feeding, the queries of never-started tiles must still get an
	// answer (the context error) rather than a zero SearchResult.
	tileDone := make([]bool, tiles)
	feedErr := pool.ForEachCtx(ctx, tiles, func(t int) {
		c.searchTile(ctx, nil, cache, rs, t, opts, nil, out)
		tileDone[t] = true
	})
	if feedErr == nil {
		return
	}
	for t, done := range tileDone {
		if done {
			continue
		}
		for _, i := range valid[t*searchTileQ : min((t+1)*searchTileQ, len(valid))] {
			out[i] = SearchResult{Err: feedErr}
			c.countTimeout(feedErr)
		}
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

// searchTile answers tile t of the request's misses: hashed once (alsh),
// scanned (scanTile) and merged per query into out, and into cache when it
// is non-nil. ex, when non-nil, receives each shard's explain. A traced
// request gets one scan and one merge span per tile. It allocates only the
// hits that escape to the caller: one arena per tile, or an exact slice
// per query when the cache keeps them past the request.
func (c *Collection) searchTile(ctx context.Context, pool *Pool, cache *queryCache, rs *searchState, t int, opts SearchOpts, ex []ShardExplain, out []SearchResult) {
	k := opts.K
	valid := rs.miss
	tlo := t * searchTileQ
	thi := min(tlo+searchTileQ, len(valid))
	tn := thi - tlo
	start := time.Now()
	tr := trace.FromContext(ctx)

	ts := getTileScratch()
	defer putTileScratch(ts)
	ssp := tr.StartSpan("scan")
	// An alsh tile is hashed once, for every shard; one whose request
	// expired first fails before any shard sees it.
	keys, err := c.hashQueries(ctx, &ts.keys, rs.qstore, tlo, thi, opts.Unsigned)
	if err == nil {
		err = scanTile(ctx, pool, rs.view.snaps, rs.qstore, ts, tlo, thi, k, TopKOpts{Unsigned: opts.Unsigned, Keys: keys}, ex)
	}
	ssp.End()
	if err != nil {
		for _, i := range valid[tlo:thi] {
			out[i] = SearchResult{Err: err}
			c.countTimeout(err)
		}
		return
	}

	// Merge per query. Without the cache the merged hits live in one
	// arena per tile; with it each query gets an exact-size slice, since
	// cached hits outlive the request.
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

// scanTile scans rows [tlo, thi) of q against every pinned shard snapshot
// (scanShard) — on pool, one task a shard, or in turn when pool is nil,
// each shard then floored by what the ones before it found (scanInTurn).
// A shard fails a tile whole — a deadline, a cancellation: the first
// shard's error, else the fan-out's, and no query a partial answer.
func scanTile(ctx context.Context, pool *Pool, snaps []*shardSnap, q *flat.Store, ts *tileScratch, tlo, thi, k int, o TopKOpts, ex []ShardExplain) error {
	ts.prepare(len(snaps), thi-tlo, k)
	if pool == nil {
		ts.floors = grow(ts.floors, 1)
		return scanInTurn(ctx, snaps, q, ts, tlo, thi, k, 0, len(snaps), &ts.floors[0], math.Inf(-1), o, ex)
	}
	err := pool.ForEachCtx(ctx, len(snaps), func(si int) {
		ts.errs[si] = scanShard(ctx, snaps, q, ts, tlo, thi, k, si, o, ex)
	})
	return cmp.Or(cmp.Or(ts.errs...), err)
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
// shards at k, and clears their errors.
func (ts *tileScratch) prepare(nsh, tn, k int) {
	ts.lists = grow(ts.lists, nsh*tn)
	ts.errs = grow(ts.errs, nsh)
	clear(ts.errs)
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
