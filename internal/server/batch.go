package server

// The batch executor. PR 2/3 made single scans stream the columnar
// store; until this file the batch path still ran one pool task per
// query, so a 256-query request swept every shard snapshot 256 times
// and allocated cache keys, hit lists and sort closures per query.
// Now a batch is tiled: cache misses are packed into one pooled
// columnar query store, the pool fans out per query *tile*, and each
// tile task visits every shard snapshot once — sweeping it through the
// register-blocked multi-query kernels (flatIndex.topKMulti), or probing
// its alsh index under the tile's keys (alshIndex.topKMulti), hashed once
// for all shards as one product against the collection's planes —
// translating, sorting and k-way-merging through pooled scratch. Steady
// state does O(tiles) small allocations per request instead of
// O(queries·shards).
//
// Results are bit-identical to the per-query path: the tile scan is
// bit-identical to the single-query scan (flat's contract), re-ranked
// tiers re-rank identically, a single alsh search is the tile of one,
// translation and canonical per-shard ordering are shared with
// shard.topK, and the same k-way merge combines the shard lists.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/trace"
	"repro/internal/vec"
)

// searchTileQ is the query-tile size of the batch executor: the unit
// of parallel work handed to the pool, and the number of queries that
// share one sweep of each shard snapshot.
const searchTileQ = 32

// batchState is the pooled per-request state of the batch executor.
type batchState struct {
	qstore *flat.Store
	miss   []int
	keys   []string
	snaps  []*shardSnap
}

var batchStatePool = sync.Pool{New: func() any { return new(batchState) }}

func getBatchState() *batchState { return batchStatePool.Get().(*batchState) }

func putBatchState(bs *batchState) {
	// Drop snapshot references so pooling does not pin retired shard
	// data; keys keep their backing array (overwritten next use).
	for i := range bs.snaps {
		bs.snaps[i] = nil
	}
	bs.snaps = bs.snaps[:0]
	bs.miss = bs.miss[:0]
	bs.keys = bs.keys[:0]
	batchStatePool.Put(bs)
}

// tileScratch is the pooled per-tile-task state.
type tileScratch struct {
	tile  flat.TileScratch
	rows  []int         // re-rank candidates' rows of one query (flatIndex.rerankInto)
	one   flat.Store    // a single search as a tile of one (alshIndex.TopK, Collection.searchOne)
	keys  lsh.QueryKeys // an alsh tile's keys, hashed once for every shard (Collection.hashQueries)
	lists [][]Hit       // per (shard, tile query) translated hit lists
	trans []Hit         // arena backing lists
	qerrs []error
	heap  mergeHeap
	per   [][]Hit // per-query gather of shard lists for the merge
}

var tileScratchPool = sync.Pool{New: func() any { return new(tileScratch) }}

func getTileScratch() *tileScratch { return tileScratchPool.Get().(*tileScratch) }

func putTileScratch(ts *tileScratch) {
	for i := range ts.lists {
		ts.lists[i] = nil
	}
	for i := range ts.per {
		ts.per[i] = nil
	}
	tileScratchPool.Put(ts)
}

// grow returns s resized to n elements, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// searchBatch answers a multi-query request. out[i] receives query
// i's result; cached answers are resolved inline, the misses are
// packed into one columnar store and fanned out per tile on the pool.
// ctx propagates into every tile's scan; queries whose tile was
// cancelled (mid-scan or before it started) carry the context error
// and are never cached.
func (s *Server) searchBatch(ctx context.Context, c *Collection, name string, queries []vec.Vector, opts SearchOpts, out []SearchResult) {
	k, unsigned := opts.K, opts.Unsigned
	version := c.Version()
	cacheOn := s.cache.enabled()
	bs := getBatchState()
	defer putBatchState(bs)

	// Resolve cache hits; collect misses (with their keys, so the tile
	// tasks don't serialize the key bytes a second time at put).
	miss, keys := bs.miss[:0], bs.keys[:0]
	for i := range queries {
		if cacheOn {
			qstart := time.Now()
			key := cacheKey(name, c.gen, version, k, unsigned, opts.Rerank, queries[i])
			if hits, ok := s.cache.get(key); ok {
				out[i] = SearchResult{Hits: hits, Cached: true}
				c.observeLatency(time.Since(qstart))
				continue
			}
			keys = append(keys, key)
		}
		miss = append(miss, i)
	}
	bs.miss, bs.keys = miss, keys
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

	// Per-query dimension validation (same rule and message as
	// SearchOne). Invalid queries keep their error; the rest stay in
	// miss order.
	dim := int(c.dim.Load())
	valid, vkeys := miss[:0], keys[:0]
	for mi, i := range miss {
		if dim != 0 && len(queries[i]) != dim {
			out[i] = SearchResult{Err: fmt.Errorf("server: collection %q: query dimension %d, want %d", c.name, len(queries[i]), dim)}
			continue
		}
		valid = append(valid, i)
		if cacheOn {
			vkeys = append(vkeys, keys[mi])
		}
	}
	bs.miss, bs.keys = valid, vkeys
	if len(valid) == 0 {
		return
	}
	c.queries.Add(int64(len(valid)))

	// Pin one snapshot per shard for the whole batch.
	snaps := bs.snaps[:0]
	for _, sh := range c.shards {
		snaps = append(snaps, sh.snap.Load())
		sh.queries.Add(int64(len(valid)))
	}
	bs.snaps = snaps

	if dim == 0 {
		// Nothing ingested yet: every shard serves the empty index.
		// The per-query path returns a non-nil empty merge result;
		// keep that shape.
		start := time.Now()
		empty := make([]Hit, 0)
		for vi, i := range valid {
			if cacheOn {
				s.cache.put(name, vkeys[vi], empty)
			}
			out[i] = SearchResult{Hits: empty}
			c.observeLatency(time.Since(start))
		}
		return
	}

	// Pack the miss queries into one contiguous columnar store: the
	// tile kernels want query rows adjacent, and the norms computed
	// here (vec.Norm, as everywhere) drive the per-query
	// Cauchy–Schwarz bounds of normscan shards.
	if bs.qstore == nil {
		bs.qstore, _ = flat.New(dim)
	}
	_ = bs.qstore.ResetDim(dim)
	for _, i := range valid {
		_ = bs.qstore.Append(vec.Vector(queries[i])) // dims pre-checked
	}

	tiles := (len(valid) + searchTileQ - 1) / searchTileQ
	// tileDone marks tiles whose task ran to completion; when the
	// cancellable fan-out stops feeding, the queries of never-started
	// tiles must still get an answer (the context error) rather than a
	// zero SearchResult.
	tileDone := make([]bool, tiles)
	ssp := trace.FromContext(ctx).StartSpan("scan")
	feedErr := s.pool.ForEachCtx(ctx, tiles, func(t int) {
		s.searchTile(ctx, c, name, bs, t, opts, cacheOn, out)
		tileDone[t] = true
	})
	ssp.End()
	if feedErr != nil {
		for t, done := range tileDone {
			if done {
				continue
			}
			tlo := t * searchTileQ
			thi := min(tlo+searchTileQ, len(valid))
			for _, i := range valid[tlo:thi] {
				out[i] = SearchResult{Err: feedErr}
				c.countTimeout(feedErr)
			}
		}
	}
}

// searchTile runs one query tile against every shard snapshot and
// merges the per-shard lists. It allocates only the result hits that
// escape to the caller (one arena per task, or exact per-query slices
// when they must outlive the request inside the cache).
func (s *Server) searchTile(ctx context.Context, c *Collection, name string, bs *batchState, t int, opts SearchOpts, cacheOn bool, out []SearchResult) {
	k, unsigned := opts.K, opts.Unsigned
	valid, snaps, qst := bs.miss, bs.snaps, bs.qstore
	tlo := t * searchTileQ
	thi := min(tlo+searchTileQ, len(valid))
	tn := thi - tlo
	nsh := len(snaps)
	start := time.Now()

	ts := getTileScratch()
	defer putTileScratch(ts)
	ts.lists = grow(ts.lists, nsh*tn)
	ts.qerrs = grow(ts.qerrs, tn)
	for j := range ts.qerrs {
		ts.qerrs[j] = nil
	}
	// The translation arena is sized up front: growing it mid-loop
	// would invalidate earlier lists aliasing it.
	ts.trans = grow(ts.trans, 0)[:0]
	if cap(ts.trans) < nsh*tn*k {
		ts.trans = make([]Hit, 0, nsh*tn*k)
	}

	// A shard fails a tile whole — a deadline, a cancellation: every query
	// of the tile carries the error and none a partial answer.
	fail := func(err error) {
		for j := range ts.qerrs {
			if ts.qerrs[j] == nil {
				ts.qerrs[j] = err
			}
		}
	}
	// An alsh tile is hashed once, for every shard; one whose request
	// expired first fails before any shard sees it.
	keys, hashErr := c.hashQueries(ctx, &ts.keys, qst, tlo, thi, unsigned)
	if hashErr != nil {
		fail(hashErr)
	}
	topts := TopKOpts{Unsigned: unsigned, Rerank: opts.Rerank, Keys: keys}
	for si := 0; si < nsh && hashErr == nil; si++ {
		snap := snaps[si]
		var accs []flat.Acc
		var err error
		switch ix := snap.index.(type) {
		case *flatIndex:
			accs, err = ix.topKMulti(ctx, qst, tlo, thi, k, topts, ts)
		case *alshIndex:
			accs, err = ix.topKMulti(ctx, qst, tlo, thi, k, topts, ts)
		default:
			accs = ts.tile.Accs(tn, k) // the empty index answers nothing
		}
		if err != nil {
			fail(err)
			continue
		}
		for j := 0; j < tn; j++ {
			base := len(ts.trans)
			for _, h := range accs[j].Hits() {
				ts.trans = append(ts.trans, Hit{ID: snap.ids[h.Index], Score: h.Score})
			}
			hs := ts.trans[base:]
			sortHitsCanonical(hs)
			ts.lists[si*tn+j] = hs
		}
	}

	// Merge per query. Without the cache the merged hits live in one
	// arena per task; with it each query gets an exact-size slice,
	// since cached hits outlive the request.
	var arena []Hit
	if !cacheOn {
		arena = make([]Hit, 0, tn*k)
	}
	ts.per = grow(ts.per, nsh)
	for j := 0; j < tn; j++ {
		i := valid[tlo+j]
		if ts.qerrs[j] != nil {
			out[i] = SearchResult{Err: ts.qerrs[j]}
			c.countTimeout(ts.qerrs[j])
			continue
		}
		for si := 0; si < nsh; si++ {
			ts.per[si] = ts.lists[si*tn+j]
		}
		var hits []Hit
		if cacheOn {
			hits = mergeTopKInto(ts.per, k, make([]Hit, 0, k), &ts.heap)
			s.cache.put(name, bs.keys[tlo+j], hits)
		} else {
			hits = mergeTopKInto(ts.per, k, arena, &ts.heap)
			arena = arena[:len(arena)+len(hits)]
		}
		out[i] = SearchResult{Hits: hits}
		c.observeLatency(time.Since(start))
	}
}
