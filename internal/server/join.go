package server

// Online similarity joins: the serving-layer face of the join Engine
// layer. A join runs directly over the two collections' per-shard
// columnar snapshots — no row materialisation — as tasks on the server's
// worker pool, each translating its matches into record-ID space, and
// merges the partials per query through join.MergePerQuery. The exact
// engines run one task per (P-shard, Q-shard) pair. The lsh engine runs
// the LSH query algorithm instead, one task per query tile: each query
// walks the banding tables of every P-shard a table step at a time
// (walkTile). Threshold mode reports one pair per satisfied query
// (Definition 1): the exact engines the best pair, lsh the best pair
// among the candidates up to the first table step that yields a witness.
// Top-k-pairs mode reports up to k pairs per query.

import (
	"context"
	"fmt"
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

// joinOpts is what every task of one join shares beyond its operands.
type joinOpts struct {
	cs       float64
	unsigned bool
	// topK is the request's (0: threshold mode); k the per-data-shard
	// top-k a task keeps for it, at least one more under excludeSelf
	// (0 in threshold mode without it: the engines' single best pair).
	topK, k     int
	excludeSelf bool
}

// newJoinOpts resolves a validated request. A query's per-shard top-k
// over-fetches by one under self-exclusion: the identity pair can
// displace the legitimate answer within its data shard (IDs are
// shard-disjoint, so it appears at most once per query).
func newJoinOpts(sp core.Spec, req JoinRequest) joinOpts {
	o := joinOpts{cs: sp.CS(), unsigned: sp.Variant == core.Unsigned, topK: req.TopK, k: req.TopK, excludeSelf: req.ExcludeSelf}
	if o.excludeSelf {
		o.k = max(o.k, 1) + 1
	}
	return o
}

// keep appends to dst, as pairs of query record qid, the hits of acc —
// local rows of data snapshot sn — at value ≥ cs, the identity pair
// dropped under excludeSelf.
func (o *joinOpts) keep(dst []join.Match, acc *flat.Acc, sn *shardSnap, qid int) []join.Match {
	for _, h := range acc.Hits() {
		if h.Score < o.cs {
			break
		}
		if id := sn.ids[h.Index]; !o.excludeSelf || id != qid {
			dst = append(dst, join.Match{QIdx: qid, PIdx: id, Value: h.Score})
		}
	}
	return dst
}

// join is the task of one (data shard, query shard) pair of an exact
// join: engine (by joinEngineName) sweeps this snapshot — normpruned its
// norm view (see normPruned), exact the store itself — for the query
// snapshot's live rows, and its matches come back in record-ID space.
func (sn *shardSnap) join(ctx context.Context, engine string, qsnap *shardSnap, s float64, o joinOpts, work *flat.ScanStats) (join.Result, error) {
	var eng join.Engine = join.Tiled{}
	if engine == "normpruned" {
		eng = sn.normPruned()
	}
	res, err := eng.Join(sn.fs, qsnap.fs, s, o.cs, join.Opts{
		Unsigned: o.unsigned, TopK: o.k, Ctx: ctx,
		DeadP: sn.dead, DeadQ: qsnap.dead, Stats: work})
	if err != nil {
		return res, err
	}
	keep := res.Matches[:0]
	for _, m := range res.Matches {
		if m.PIdx, m.QIdx = sn.ids[m.PIdx], qsnap.ids[m.QIdx]; !o.excludeSelf || m.PIdx != m.QIdx {
			keep = append(keep, m)
		}
	}
	res.Matches = keep
	return res, nil
}

// walkTile answers query rows [lo, hi) of qsnap by the LSH query
// algorithm (Indyk–Motwani; the paper's §4.1) over every data shard of an
// alsh collection at once. The tile is hashed once under the collection's
// hash functions. Each live query then walks the tables: at step t it
// takes table t under its probes in every data shard, in shard order,
// and verifies through the shard's store the ids that shard's walk has
// not yet named, dead ones dropped, into the shard's top-k. In threshold
// mode a query stops after the first step at which some shard holds a
// witness — a pair ≥ cs that is not the identity pair under excludeSelf —
// and reports the pairs of the union verified so far; top-k mode walks
// all L steps, the whole union. Every shard extends the collection's one
// set of hash functions, so a row's bucket in table t does not depend on
// its shard, and the answer depends on neither the shard count nor the
// pool. The queries still walking take each (step, shard) together, so a
// shard's tables and rows stay in cache across the tile. ctx is polled
// between two of those; work counts the rows verified.
func walkTile(ctx context.Context, c *Collection, dsnaps []*shardSnap, qsnap *shardSnap, lo, hi int, o joinOpts, work *flat.ScanStats) (join.Result, error) {
	ts := getTileScratch()
	defer putTileScratch(ts)
	keys, err := c.hashQueries(ctx, &ts.keys, qsnap.fs, lo, hi, o.unsigned)
	if err != nil {
		return join.Result{}, err
	}
	// Query lo+j's walk and top-k in shard si are walks[si·nq+j], accs[si·nq+j].
	nq := hi - lo
	ts.walks = grow(ts.walks, len(dsnaps)*nq)
	ts.accs = grow(ts.accs, len(dsnaps)*nq)
	walking := ts.walking[:0]
	for j := range nq {
		if !qsnap.dead.Dead(lo + j) {
			walking = append(walking, j)
		}
	}
	for i := range ts.walks {
		ts.walks[i].Reset()
		ts.accs[i].Reset(max(o.k, 1))
	}
	var res join.Result
	report := func(j int) {
		for si, sn := range dsnaps {
			res.Matches = o.keep(res.Matches, &ts.accs[si*nq+j], sn, qsnap.ids[lo+j])
		}
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
				return join.Result{}, ctx.Err()
			default:
			}
			ix := sn.index.(*alshIndex).ix
			for _, j := range walking {
				w, acc := &ts.walks[si*nq+j], &ts.accs[si*nq+j]
				from := len(w.IDs)
				for u := t; u < t+per; u++ {
					if err := ix.Step(w, keys, lo+j, u); err != nil {
						return join.Result{}, err
					}
				}
				if len(w.IDs) == from {
					continue
				}
				n, stopped := sn.fs.OfferRows(done, acc, qsnap.fs.Row(lo+j), w.IDs[from:], sn.dead, o.unsigned)
				work.Candidates += n
				if stopped {
					return join.Result{}, ctx.Err()
				}
				if h := acc.Hits(); len(h) > 0 && h[0].Score >= o.cs {
					above = true
				}
			}
		}
		if o.topK > 0 || !above {
			continue
		}
		// A query whose union now holds a witness stops, its pairs reported.
		still := walking[:0]
		for _, j := range walking {
			base := len(res.Matches)
			if report(j); len(res.Matches) == base {
				still = append(still, j)
			}
		}
		walking = still
	}
	if o.topK > 0 {
		for _, j := range walking {
			report(j)
		}
	}
	ts.walking = walking
	work.ScannedRows = work.Candidates
	res.Compared = int64(work.Candidates)
	return res, nil
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
	qsnaps := queryCol.shardSnaps()
	if len(dsnaps) == 0 || len(qsnaps) == 0 {
		return nil, fmt.Errorf("server: join requires non-empty collections")
	}
	if dd, qd := dsnaps[0].fs.Dim(), qsnaps[0].fs.Dim(); dd != qd {
		return nil, fmt.Errorf("server: dimension mismatch: %q has %d, %q has %d",
			req.Data, dd, req.Queries, qd)
	}

	o := newJoinOpts(sp, req)
	start := time.Now()
	ssp := tr.StartSpan("scan")
	var tasks []func(work *flat.ScanStats) (join.Result, error)
	if engine == "lsh" {
		// One task per query tile, each walking every data shard.
		for _, qsnap := range qsnaps {
			for lo := 0; lo < qsnap.fs.Len(); lo += searchTileQ {
				hi := min(lo+searchTileQ, qsnap.fs.Len())
				tasks = append(tasks, func(work *flat.ScanStats) (join.Result, error) {
					return walkTile(ctx, dataCol, dsnaps, qsnap, lo, hi, o, work)
				})
			}
		}
	} else {
		// One task per (data shard, query shard) pair, its engine run
		// serially on it.
		for _, dsnap := range dsnaps {
			for _, qsnap := range qsnaps {
				tasks = append(tasks, func(work *flat.ScanStats) (join.Result, error) {
					return dsnap.join(ctx, engine, qsnap, sp.S, o, work)
				})
			}
		}
	}
	parts := make([]join.Result, len(tasks))
	errs := make([]error, len(tasks))
	feedErr := s.pool.ForEachCtx(ctx, len(tasks), func(i int) {
		var work flat.ScanStats
		parts[i], errs[i] = tasks[i](&work)
		// The span sums its tasks' work, a cancelled task's included.
		ssp.SetInt("rows_scanned", int64(work.ScannedRows))
		ssp.SetInt("candidates", int64(work.Candidates))
		ssp.SetInt("cs_pruned_blocks", int64(work.PrunedBlocks))
		ssp.SetInt("tombstone_skipped_blocks", int64(work.SkippedBlocks))
	})
	ssp.End()
	if feedErr == nil {
		// A task abandoned mid-scan reports ctx's error itself; this also
		// catches a cancellation neither it nor the feed saw.
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
