package server

// Online similarity joins. A join is a batch (runJoin): the query
// collection's live rows run as the search executor's query tiles against
// the data collection's shard snapshots, read through their dead sets and
// a structure each already keeps. An exact tile is a search tile with cs
// as every sweep's floor; an lsh tile walks the banding tables of every data
// shard a table step at a time — the LSH query algorithm (walkTile).
// Threshold mode reports one pair per satisfied query (Definition 1): the
// exact engines the best pair, lsh the best pair among the candidates up
// to the first table step that yields a witness. Top-k-pairs mode reports
// up to k pairs per query.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/join"
	"repro/internal/trace"
)

// JoinRequest asks for an approximate (cs, s) join: for each query
// vector in the Queries collection, report partners from the Data
// collection per Definition 1.
type JoinRequest struct {
	// Data and Queries name the two collections (P and Q). A self-join
	// names the same collection twice.
	Data    string `json:"data"`
	Queries string `json:"queries"`
	// Engine is "exact" (alias "tiled"), "normpruned" (alias "normscan")
	// or "lsh" (default "exact"). Every engine joins through a structure
	// the data collection already keeps: exact sweeps its f64 rows in
	// store order, normpruned the norm-sorted f64 view a normscan f64
	// collection serves from, and lsh the banding indexes of an alsh one.
	// An engine the collection keeps no structure for is refused, naming
	// the alternative.
	Engine string `json:"engine,omitempty"`
	// Variant is "signed" (default) or "unsigned".
	Variant string `json:"variant,omitempty"`
	// S is the promise threshold, C the approximation factor
	// (default 1).
	S float64 `json:"s"`
	C float64 `json:"c,omitempty"`
	// TopK switches to top-k-pairs mode: up to TopK pairs per query at
	// value ≥ c·s, in decreasing order. 0 (default) is threshold mode:
	// one pair per satisfied query. The exact engines report its best
	// pair; lsh reports the best pair among the candidates up to the first
	// table step that yields a witness (a pair ≥ c·s, not the identity
	// pair under ExcludeSelf) — the LSH query algorithm's stop.
	TopK int `json:"topk,omitempty"`
	// ExcludeSelf drops identity pairs (same record ID on both sides)
	// before merging — the useful default for self-joins, where every
	// record trivially matches itself. The self-join endpoint sets it.
	ExcludeSelf bool `json:"exclude_self,omitempty"`
	// TimeoutMS is the client's deadline in milliseconds, overriding
	// the server default (zero means use the default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// JoinPair is one reported pair, in record-ID space.
type JoinPair struct {
	DataID  int     `json:"data_id"`
	QueryID int     `json:"query_id"`
	Value   float64 `json:"value"`
}

// JoinResponse is the join outcome. Pairs are ordered by ascending
// query ID; within one query by decreasing value, ties toward the
// smaller data ID. Compared counts the pairs whose inner product was
// evaluated: the exact engines score whole 256-row blocks, so the
// tombstoned rows of a block that still holds a live row are counted;
// lsh counts the live candidates it verified — in threshold mode those
// up to each query's first table step that yields a witness, in top-k
// mode each query's whole candidate union.
type JoinResponse struct {
	Engine   string     `json:"engine"`
	TopK     int        `json:"topk,omitempty"`
	Pairs    []JoinPair `json:"pairs"`
	Compared int64      `json:"compared"`
	TookMS   float64    `json:"took_ms"`
}

// joinEngineName resolves a request's engine, on a data collection
// created under spec, to the name the response reports. Every served
// engine joins through what the data collection already keeps, so one
// that would have to build a structure per request is refused with the
// alternative: normpruned needs the norm-sorted f64 view of a normscan f64
// collection — exact returns its pairs from any other — and lsh the
// banding indexes of an alsh one.
func joinEngineName(engine string, spec IndexSpec) (string, error) {
	switch engine {
	case "", "exact", "tiled":
		return join.Tiled{}.Name(), nil
	case "normpruned", "normscan":
		if k, p := spec.kind(), spec.precision(); k != KindNormScan || p != PrecisionF64 {
			return "", fmt.Errorf("server: the normpruned engine sweeps the norm-sorted view of a %s %s data collection, and this one is %s %s: use engine exact, which returns the same pairs",
				KindNormScan, PrecisionF64, k, p)
		}
		return join.NormPruned{}.Name(), nil
	case "lsh":
		if k := spec.kind(); k != KindALSH {
			return "", fmt.Errorf("server: the lsh engine probes the banding index of an %s data collection, and this one is %s: use engine exact, or create the data collection with index kind %s",
				KindALSH, k, KindALSH)
		}
		return engine, nil
	case "sketch":
		return "", fmt.Errorf("server: the sketch join engine is no longer served (use exact, normpruned or lsh; the §4.3 sketch join is ips.SketchJoin or cmd/ipsjoin -engine sketch)")
	}
	return "", fmt.Errorf("server: unknown join engine %q", engine)
}

// joinOpts is what every tile of one join shares beyond its operands.
type joinOpts struct {
	cs       float64
	unsigned bool
	// topK is the request's (0: threshold mode); k the top-k a query keeps
	// in each data shard for it, max(topK, 1), one more under excludeSelf.
	topK, k     int
	excludeSelf bool
}

// newJoinOpts resolves a validated request. A query's top-k over-fetches
// by one under self-exclusion: the identity pair can displace the
// legitimate answer (IDs are shard-disjoint, so it appears at most once
// per query). k stops short of MaxInt so that the extra slot cannot wrap
// it; runJoin clamps it to the data rows.
func newJoinOpts(sp core.Spec, req JoinRequest) joinOpts {
	o := joinOpts{cs: sp.CS(), unsigned: sp.Variant == core.Unsigned, topK: req.TopK, k: min(max(req.TopK, 1), math.MaxInt-1), excludeSelf: req.ExcludeSelf}
	if o.excludeSelf {
		o.k++
	}
	return o
}

// joinSnap returns sn as a join of engine (by joinEngineName) reads it:
// lsh and normpruned through its serving index, exact through it too
// where that sweeps the f64 rows in store order. A normscan shard's exact
// sweep reads its norm-sorted runs whole — the same rows, which are its
// only copy, in their physical order with no norm bound
// (flat.View.Unpruned) and masked by the index's permuted dead set — so
// its pairs are the store-order sweep's, and compared counts the rows of
// the physical blocks not wholly dead. An alsh or int8 shard is swept
// through a store-order index over sn.fs, which copies nothing. An int8
// shard's codes would give the same pairs about five times faster at
// 40 000 × 32, but that compute-bound sweep's time spread between runs
// several times wider than the f64 sweep's, too wide to tell a regression
// from noise (ROADMAP item 18(d)).
func (sn *shardSnap) joinSnap(engine string) *shardSnap {
	ix, ok := sn.index.(*flatIndex)
	if engine != "tiled" || ok && !ix.view.Sorted() && !ix.rerank {
		return sn
	}
	rows := *sn
	if sn.fs == nil {
		rows.index = &flatIndex{view: ix.view.Unpruned(), dead: ix.dead}
	} else {
		rows.index = &flatIndex{fs: sn.fs, view: sn.fs.View(), dead: sn.dead}
	}
	return &rows
}

// runJoin runs the live rows of qsnaps as query tiles against dsnaps, each
// read as engine reads it (joinSnap), through runTiles. A tile loads by
// packing its queries (loadJoinTile); an exact tile's shard groups start
// from cs as every floor, and an lsh tile is one task that walks every
// data shard (walkTile). A tile finishes by cutting its pairs: the merge's
// hits ≥ cs, the identity pair dropped under excludeSelf. ssp sums every
// tile's work, a cancelled tile's included. A join neither reads nor fills
// the query cache, and leaves the search counters as they were.
func runJoin(ctx context.Context, pool *Pool, c *Collection, engine string, dsnaps, qsnaps []*shardSnap, o joinOpts, ssp *trace.Span) (pairs []JoinPair, compared int64, err error) {
	snaps := make([]*shardSnap, len(dsnaps))
	for si, sn := range dsnaps {
		snaps[si] = sn.joinSnap(engine)
	}
	o.k = clampK(o.k, dsnaps)
	// Tile t's queries start at row starts[t][1] of qsnaps[starts[t][0]].
	var starts [][2]int
	live := 0
	for s, sn := range qsnaps {
		for i := range sn.ids {
			if !sn.dead.Dead(i) {
				if live%searchTileQ == 0 {
					starts = append(starts, [2]int{s, i})
				}
				live++
			}
		}
	}
	tiles, nsh, groups := len(starts), len(snaps), len(snaps)
	if engine == "lsh" {
		groups = 1 // a walk takes every shard's table t before table t + 1
	}
	work := make([]flat.ScanStats, tiles)
	ex := make([]ShardExplain, tiles*nsh)
	errs := make([]error, tiles)
	parts := make([][]JoinPair, tiles)
	runTiles(ctx, pool, tiles, groups, func(t int, ts *tileScratch) error {
		ts.loadJoinTile(qsnaps, starts[t])
		ts.prepare(nsh, len(ts.qids), o.k)
		return nil
	}, func(t int, ts *tileScratch, lo, hi int, fl *floorState) error {
		if engine == "lsh" {
			return walkTile(ctx, c, snaps, ts, o, &work[t])
		}
		return scanInTurn(ctx, snaps, ts.q, ts, 0, len(ts.qids), o.k, lo, hi, fl, o.cs, TopKOpts{Unsigned: o.unsigned}, ex[t*nsh:(t+1)*nsh])
	}, func(t int, ts *tileScratch, err error) {
		w := &work[t]
		for _, e := range ex[t*nsh : (t+1)*nsh] {
			w.Add(flat.ScanStats{ScannedRows: e.RowsScanned, PrunedBlocks: e.CSPrunedBlocks, SkippedBlocks: e.TombstoneSkippedBlocks})
		}
		ssp.SetInt("rows_scanned", int64(w.ScannedRows))
		ssp.SetInt("candidates", int64(w.Candidates))
		ssp.SetInt("cs_pruned_blocks", int64(w.PrunedBlocks))
		ssp.SetInt("tombstone_skipped_blocks", int64(w.SkippedBlocks))
		if errs[t] = err; err != nil {
			return
		}
		hits := make([]Hit, 0, o.k)
		for j, qid := range ts.qids {
			n := 0
			for _, h := range ts.merge(j, len(ts.qids), o.k, hits) {
				if h.Score < o.cs || n == max(o.topK, 1) {
					break
				}
				if !o.excludeSelf || h.ID != qid {
					parts[t] = append(parts[t], JoinPair{DataID: h.ID, QueryID: qid, Value: h.Score})
					n++
				}
			}
		}
	})
	for _, w := range work {
		compared += int64(w.ScannedRows)
	}
	// A query's pairs are contiguous, in its tile; queries go by record ID.
	pairs = []JoinPair{}
	for _, part := range parts {
		pairs = append(pairs, part...)
	}
	slices.SortStableFunc(pairs, func(a, b JoinPair) int { return cmp.Compare(a.QueryID, b.QueryID) })
	return pairs, compared, cmp.Or(errs...)
}

// loadJoinTile packs into ts.q the next searchTileQ live rows of qsnaps
// (fewer at their end) from row at[1] of qsnaps[at[0]] on, and their
// record IDs into ts.qids.
func (ts *tileScratch) loadJoinTile(qsnaps []*shardSnap, at [2]int) {
	pack(&ts.q, qsnaps[0].dim(), 0, nil) // empty
	ts.qids = ts.qids[:0]
	for s, i := at[0], at[1]; s < len(qsnaps) && len(ts.qids) < searchTileQ; s, i = s+1, 0 {
		sn := qsnaps[s]
		for ; i < len(sn.ids) && len(ts.qids) < searchTileQ; i++ {
			if !sn.dead.Dead(i) {
				_ = ts.q.Append(sn.row(i))
				ts.qids = append(ts.qids, sn.ids[i])
			}
		}
	}
}

// walkTile answers ts's queries, record ts.qids[j] at row j of ts.q, by
// the LSH query algorithm (Indyk–Motwani; the paper's §4.1) over every
// data shard of an alsh collection at once, and lists each query's top k
// in every shard. The tile is hashed once under the collection's hash
// functions. Each query then walks the tables: at step t it takes table t
// under its probes in every data shard, in shard order, and verifies
// through the shard's store the ids that shard's walk has not yet named,
// dead ones dropped, into the shard's top-k. In threshold mode a query
// stops after the first step at which some shard holds a witness — a pair
// ≥ cs that is not the identity pair under excludeSelf; top-k mode walks
// all L steps, the whole union. Every shard extends the collection's one
// set of hash functions, so a row's bucket in table t does not depend on
// its shard, and the answer depends on neither the shard count nor the
// pool. The queries still walking take each (step, shard) together, so a
// shard's tables and rows stay in cache across the tile. ctx is polled
// between two of those; work counts the rows verified. ts is prepared
// (tileScratch.prepare) for its queries.
func walkTile(ctx context.Context, c *Collection, dsnaps []*shardSnap, ts *tileScratch, o joinOpts, work *flat.ScanStats) error {
	nq := len(ts.qids)
	keys, err := c.hashQueries(ctx, &ts.keys, ts.q, 0, nq, o.unsigned)
	if err != nil {
		return err
	}
	// Query j's walk and top-k in shard si are walks[si·nq+j], accs[si·nq+j].
	ts.walks = grow(ts.walks, len(dsnaps)*nq)
	ts.accs = grow(ts.accs, len(dsnaps)*nq)
	walking := ts.walking[:0]
	for j := range nq {
		walking = append(walking, j)
	}
	for i := range ts.walks {
		ts.walks[i].Reset()
		ts.accs[i].Reset(o.k)
		ts.accs[i].SetKeys(dsnaps[i/nq].ids)
	}
	witness := func(j int) bool {
		for si, sn := range dsnaps {
			for _, h := range ts.accs[si*nq+j].Hits() {
				if h.Score >= o.cs && (!o.excludeSelf || sn.ids[h.Index] != ts.qids[j]) {
					return true
				}
			}
		}
		return false
	}
	// Top-k mode verifies the whole union, so it takes all L steps at once.
	steps, per := dsnaps[0].index.(*alshIndex).ix.L, 1
	if o.topK > 0 {
		per = steps
	}
	done := ctx.Done()
	for t := 0; t < steps && len(walking) > 0; t += per {
		// Only a top-k offered a candidate this step can have gained a
		// witness: above records whether one of them holds a pair ≥ cs.
		above := false
		for si, sn := range dsnaps {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			ix := sn.index.(*alshIndex).ix
			for _, j := range walking {
				w, acc := &ts.walks[si*nq+j], &ts.accs[si*nq+j]
				from := len(w.IDs)
				for u := t; u < t+per; u++ {
					if err := ix.Step(w, keys, j, u); err != nil {
						return err
					}
				}
				if len(w.IDs) == from {
					continue
				}
				n, stopped := sn.fs.OfferRows(done, acc, ts.q.Row(j), w.IDs[from:], sn.dead, o.unsigned)
				work.Candidates += n
				if stopped {
					return ctx.Err()
				}
				if h := acc.Hits(); len(h) > 0 && h[0].Score >= o.cs {
					above = true
				}
			}
		}
		if o.topK > 0 || !above {
			continue
		}
		// A query whose union now holds a witness stops.
		still := walking[:0]
		for _, j := range walking {
			if !witness(j) {
				still = append(still, j)
			}
		}
		walking = still
	}
	ts.walking = walking
	work.ScannedRows = work.Candidates
	for si, sn := range dsnaps {
		ts.list(si, sn, ts.accs[si*nq:(si+1)*nq], o.k)
	}
	return nil
}

// joinSpec resolves and validates the (cs, s) specification.
func joinSpec(req JoinRequest) (core.Spec, error) {
	sp := core.Spec{S: req.S, C: req.C}
	if sp.C == 0 {
		sp.C = 1
	}
	switch req.Variant {
	case "", "signed":
		sp.Variant = core.Signed
	case "unsigned":
		sp.Variant = core.Unsigned
	default:
		return sp, fmt.Errorf("server: unknown variant %q", req.Variant)
	}
	return sp, sp.Validate()
}

// shardSnaps returns the shard snapshots of the collection's published
// view that hold a live row. The join engines read them as published —
// the snapshot's dead set goes to the engine, which leaves those rows
// out on either side — so a join copies nothing and can never report a
// deleted record. Each snapshot is immutable, so a join scans it safely
// while writes publish newer views.
func (c *Collection) shardSnaps() []*shardSnap {
	view := c.view.Load()
	snaps := make([]*shardSnap, 0, len(view.snaps))
	for _, snap := range view.snaps {
		if len(snap.ids) > snap.dead.Count() {
			snaps = append(snaps, snap)
		}
	}
	return snaps
}

// Join runs the requested join over current shard snapshots of the two
// collections and maps matches back to record IDs. The exact engines
// accept at c·s like the approximate ones (c = 1 recovers the strict
// exact join), so the same request shape drives every engine.
func (s *Server) Join(req JoinRequest) (*JoinResponse, error) {
	return s.JoinCtx(context.Background(), req)
}

// JoinCtx is Join with a request context: the join is one admission
// unit against the data collection's gate, the task fan-out stops
// feeding once ctx fires, and the tasks stop like a search does — within
// one row block of the scan (between two table steps for lsh). A
// cancelled join returns ctx's error and no pairs.
func (s *Server) JoinCtx(ctx context.Context, req JoinRequest) (*JoinResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	dataCol, ok := s.Collection(req.Data)
	if !ok {
		return nil, fmt.Errorf("server: unknown data collection %q", req.Data)
	}
	queryCol, ok := s.Collection(req.Queries)
	if !ok {
		return nil, fmt.Errorf("server: unknown queries collection %q", req.Queries)
	}
	sp, err := joinSpec(req)
	if err != nil {
		return nil, err
	}
	if req.TopK < 0 {
		return nil, fmt.Errorf("server: topk %d must be non-negative", req.TopK)
	}
	// Joins are reads: degraded collections keep serving their last
	// published snapshots, but quarantine on either side blocks.
	if err := dataCol.checkReadable(); err != nil {
		return nil, err
	}
	if err := queryCol.checkReadable(); err != nil {
		return nil, err
	}
	engine, err := joinEngineName(req.Engine, dataCol.spec)
	if err != nil {
		return nil, err
	}
	tr := trace.FromContext(ctx)
	tr.SetCollection(req.Data)
	asp := tr.StartSpan("admission")
	admErr := dataCol.adm.enter(ctx)
	asp.End()
	if admErr != nil {
		return nil, admErr
	}
	defer dataCol.adm.exit()
	dsnaps := dataCol.shardSnaps()
	qsnaps := dsnaps // a self-join pins one view for both sides
	if queryCol != dataCol {
		qsnaps = queryCol.shardSnaps()
	}
	if len(dsnaps) == 0 || len(qsnaps) == 0 {
		return nil, fmt.Errorf("server: join requires non-empty collections")
	}
	if dd, qd := dsnaps[0].dim(), qsnaps[0].dim(); dd != qd {
		return nil, fmt.Errorf("server: dimension mismatch: %q has %d, %q has %d",
			req.Data, dd, req.Queries, qd)
	}

	start := time.Now()
	ssp := tr.StartSpan("scan")
	pairs, compared, err := runJoin(ctx, s.pool, dataCol, engine, dsnaps, qsnaps, newJoinOpts(sp, req), ssp)
	ssp.End()
	if ctx.Err() != nil {
		// A tile abandoned mid-scan reports ctx's error itself; this also
		// catches a cancellation neither it nor the feed saw.
		err = ctx.Err()
	}
	if err != nil {
		dataCol.countTimeout(err)
		return nil, err
	}
	s.joins.Add(1)
	return &JoinResponse{
		Engine:   engine,
		TopK:     req.TopK,
		Pairs:    pairs,
		Compared: compared,
		TookMS:   float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

// selfJoinRequest resolves a request into the self-join of name:
// both sides the same collection, identity pairs excluded — the
// self-join route's policy.
func selfJoinRequest(name string, req JoinRequest) JoinRequest {
	req.Data, req.Queries = name, name
	req.ExcludeSelf = true
	return req
}
