package server

// Online similarity joins: the serving-layer face of the join Engine
// layer. A join runs directly over the two collections' per-shard
// columnar snapshots — no row materialisation — fanning the |P-shards| ×
// |Q-shards| pairs out on the server's worker pool, translating each
// pair's matches into record-ID space, and merging the partials per
// query through join.MergePerQuery. Threshold mode reports the single
// best partner per satisfied query (Definition 1); top-k-pairs mode
// reports up to k pairs per query.

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/join"
	"repro/internal/lsh"
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
	// Engine is "exact" (alias "tiled"), "normpruned" or "lsh" (default
	// "exact"). Every engine joins through the structure the data
	// collection serves from: lsh needs an alsh data collection and probes
	// its shards' banding indexes.
	Engine string `json:"engine,omitempty"`
	// Variant is "signed" (default) or "unsigned".
	Variant string `json:"variant,omitempty"`
	// S is the promise threshold, C the approximation factor
	// (default 1).
	S float64 `json:"s"`
	C float64 `json:"c,omitempty"`
	// TopK switches to top-k-pairs mode: up to TopK pairs per query at
	// value ≥ c·s, in decreasing order. 0 (default) is threshold mode:
	// the single best pair per satisfied query.
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
// evaluated (candidates verified, for lsh): the exact engines score
// whole 256-row blocks, so the tombstoned rows of a block that still
// holds a live row are counted.
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
// alternative.
func joinEngineName(engine string, spec IndexSpec) (string, error) {
	switch engine {
	case "", "exact", "tiled":
		return join.Tiled{}.Name(), nil
	case "normpruned", "normscan":
		return join.NormPruned{}.Name(), nil
	case "lsh":
		if k := spec.kind(); k != KindALSH {
			return "", fmt.Errorf("server: the lsh engine probes the banding index of an %s data collection, and this one is %s: use engine exact or normpruned, or create the data collection with index kind %s",
				KindALSH, k, KindALSH)
		}
		return engine, nil
	case "sketch":
		return "", fmt.Errorf("server: the sketch join engine is no longer served (use exact, normpruned or lsh; the §4.3 sketch join is ips.SketchJoin or cmd/ipsjoin -engine sketch)")
	}
	return "", fmt.Errorf("server: unknown join engine %q", engine)
}

// joinEngine returns the engine (by joinEngineName) that answers a join
// against this snapshot: the snapshot lends the structure it serves
// from. normpruned sweeps the norm view (see normPruned); lsh, on an
// alsh shard, probes the shard's banding index — the asymmetric SIMPLE
// construction, dead rows dropped before scoring — under keys, the query
// shard's rows hashed once by the collection's hash functions; exact
// sweeps the store itself.
func (sn *shardSnap) joinEngine(engine string, keys *lsh.QueryKeys) join.Engine {
	switch engine {
	case "normpruned":
		return sn.normPruned()
	case "lsh":
		ix := sn.index.(*alshIndex)
		return join.LSH{Index: ix.ix, Radius: ix.u, Keys: keys}
	}
	return join.Tiled{}
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

// shardSnaps returns the collection's current shard snapshots that hold
// a live row. The join engines read them as published — the snapshot's
// dead set goes to the engine, which leaves those rows out on either
// side — so a join copies nothing and can never report a deleted record.
// Each snapshot is immutable, so a join scans it safely while ingests
// publish newer ones.
func (c *Collection) shardSnaps() []*shardSnap {
	snaps := make([]*shardSnap, 0, len(c.shards))
	for _, sh := range c.shards {
		if snap := sh.snap.Load(); len(snap.ids) > snap.dead.Count() {
			snaps = append(snaps, snap)
		}
	}
	return snaps
}

// normPruned returns the norm-pruned join engine over this snapshot. A
// normscan f64 collection already serves from the descending-norm view,
// with the dead set in its order: the join sweeps that. Other kinds
// build the view lazily, once per snapshot — the store being immutable —
// so a join fan-out reuses one build across every query-shard pairing
// and across requests until the next write.
func (sn *shardSnap) normPruned() join.Engine {
	if ix, ok := sn.index.(*flatIndex); ok && ix.rerank == rerankNever && ix.view.Sorted() {
		return join.NormPruned{Sorted: &flat.NormSorted{View: ix.view}, SortedDead: ix.dead}
	}
	sn.npOnce.Do(func() {
		sn.np, _ = join.NormPruned{}.Prepare(sn.fs, sn.dead) // sorting a store cannot fail
	})
	return sn.np
}

// Join runs the requested join over current shard snapshots of the two
// collections and maps matches back to record IDs. The exact engines
// accept at c·s like the approximate ones (c = 1 recovers the strict
// exact join), so the same request shape drives every engine.
func (s *Server) Join(req JoinRequest) (*JoinResponse, error) {
	return s.JoinCtx(context.Background(), req)
}

// JoinCtx is Join with a request context: the join is one admission
// unit against the data collection's gate, the pair fan-out stops
// feeding once ctx fires, and the engines stop like a search does —
// within one row block of the scan (between two queries for lsh). A
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
	qsnaps := queryCol.shardSnaps()
	if len(dsnaps) == 0 || len(qsnaps) == 0 {
		return nil, fmt.Errorf("server: join requires non-empty collections")
	}
	if dd, qd := dsnaps[0].fs.Dim(), qsnaps[0].fs.Dim(); dd != qd {
		return nil, fmt.Errorf("server: dimension mismatch: %q has %d, %q has %d",
			req.Data, dd, req.Queries, qd)
	}

	// With self-exclusion the per-pair join must over-fetch by one: the
	// identity pair can displace the legitimate answer within its shard
	// pair (IDs are shard-disjoint, so it appears at most once per
	// query, and only on diagonal pairs).
	engineK := req.TopK
	if req.ExcludeSelf {
		engineK = max(engineK, 1) + 1
	}
	unsigned := sp.Variant == core.Unsigned

	start := time.Now()
	ssp := tr.StartSpan("scan")

	// An lsh join hashes each query shard once, on the pool, under the
	// data collection's hash functions, for every data shard it meets.
	keys := make([]*lsh.QueryKeys, len(qsnaps))
	if engine == "lsh" {
		for q := range keys {
			ts := getTileScratch()
			defer putTileScratch(ts)
			keys[q] = &ts.keys
		}
		hashErr := s.pool.ForEachCtx(ctx, len(qsnaps), func(q int) {
			// Hashing fails only as ctx does, which the check below catches.
			keys[q], _ = dataCol.hashQueries(ctx, keys[q], qsnaps[q].fs, 0, qsnaps[q].fs.Len(), unsigned)
		})
		if err := cmp.Or(hashErr, ctx.Err()); err != nil {
			ssp.End()
			dataCol.countTimeout(err)
			return nil, err
		}
	}

	type pair struct{ d, q int }
	pairs := make([]pair, 0, len(dsnaps)*len(qsnaps))
	for d := range dsnaps {
		for q := range qsnaps {
			pairs = append(pairs, pair{d, q})
		}
	}
	parts := make([]join.Result, len(pairs))
	errs := make([]error, len(pairs))
	run := func(i int) {
		pr := pairs[i]
		dsnap, qsnap := dsnaps[pr.d], qsnaps[pr.q]
		var work flat.ScanStats
		res, err := dsnap.joinEngine(engine, keys[pr.q]).Join(dsnap.fs, qsnap.fs, sp.S, sp.CS(), join.Opts{
			Unsigned: unsigned, TopK: engineK, Ctx: ctx,
			DeadP: dsnap.dead, DeadQ: qsnap.dead, Stats: &work})
		// The span sums its pairs' work, a cancelled pair's included.
		ssp.SetInt("rows_scanned", int64(work.ScannedRows))
		ssp.SetInt("candidates", int64(work.Candidates))
		ssp.SetInt("cs_pruned_blocks", int64(work.PrunedBlocks))
		ssp.SetInt("tombstone_skipped_blocks", int64(work.SkippedBlocks))
		if err != nil {
			errs[i] = err
			return
		}
		// Translate local row indices into record-ID space; the merge
		// below then operates on globally comparable matches.
		keep := res.Matches[:0]
		for _, m := range res.Matches {
			m.PIdx = dsnap.ids[m.PIdx]
			m.QIdx = qsnap.ids[m.QIdx]
			if req.ExcludeSelf && m.PIdx == m.QIdx {
				continue
			}
			keep = append(keep, m)
		}
		res.Matches = keep
		parts[i] = res
	}
	// The shard pairs are the join's only parallelism: each pair's engine
	// runs serially on its pool task.
	feedErr := s.pool.ForEachCtx(ctx, len(pairs), run)
	ssp.End()
	if feedErr == nil {
		// A pair the engine abandoned reports ctx's error itself; this
		// also catches a cancellation neither it nor the feed saw.
		feedErr = ctx.Err()
	}
	if feedErr != nil {
		dataCol.countTimeout(feedErr)
		return nil, feedErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	msp := tr.StartSpan("merge")
	merged := join.MergePerQuery(parts, req.TopK)
	msp.End()
	s.joins.Add(1)
	resp := &JoinResponse{
		Engine:   engine,
		TopK:     req.TopK,
		Pairs:    make([]JoinPair, len(merged.Matches)),
		Compared: merged.Compared,
		TookMS:   float64(time.Since(start)) / float64(time.Millisecond),
	}
	for i, m := range merged.Matches {
		resp.Pairs[i] = JoinPair{DataID: m.PIdx, QueryID: m.QIdx, Value: m.Value}
	}
	return resp, nil
}

// selfJoinRequest resolves a request into the self-join of name:
// both sides the same collection, identity pairs excluded. It is the
// single definition of the self-join policy, shared by the
// programmatic API and the HTTP route.
func selfJoinRequest(name string, req JoinRequest) JoinRequest {
	req.Data, req.Queries = name, name
	req.ExcludeSelf = true
	return req
}

// SelfJoin joins a collection with itself, excluding identity pairs.
func (s *Server) SelfJoin(name string, req JoinRequest) (*JoinResponse, error) {
	return s.Join(selfJoinRequest(name, req))
}

// SelfJoinCtx is SelfJoin with a request context (see JoinCtx).
func (s *Server) SelfJoinCtx(ctx context.Context, name string, req JoinRequest) (*JoinResponse, error) {
	return s.JoinCtx(ctx, selfJoinRequest(name, req))
}
