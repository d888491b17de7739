package server

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flat"
	"repro/internal/trace"
	"repro/internal/vec"
)

// shard owns one horizontal slice of a collection. All mutation happens
// on the shard's dedicated goroutine (the ops loop), so snapshot builds
// for different shards of one ingest proceed in parallel without locks;
// readers see a consistent (ids, vectors, index) triple through a
// single atomic snapshot pointer and never block on writers.
type shard struct {
	id   int
	seed uint64
	// overfetch is the resolved candidate-widening factor for re-ranked
	// queries on quantized indexes; fixed at collection construction.
	overfetch int
	snap      atomic.Pointer[shardSnap]
	ops       chan func()
	done      chan struct{}
	queries   atomic.Int64
}

// shardSnap is an immutable shard state: the id slice, the columnar
// vector store, and the index built over the store (local row i ↔
// global ID ids[i]). Snapshots are never mutated after publication, so
// readers holding one can scan the store without synchronization.
//
// Mutations extend the triple: rows maps a global ID to its local row,
// and dead marks tombstoned rows (nil until the first delete — the
// zero-tombstone fast paths key off that). An upsert tombstones the
// old row and appends the new one, so rows always points at the
// newest; a rows entry whose row is dead means the ID is not live
// (delete publication shares the map instead of copying it). rows is
// lazy — see rowIndex — so append-only shards never build or copy it.
type shardSnap struct {
	ids   []int
	fs    *flat.Store
	index ShardIndex
	rows  map[int]int
	dead  *flat.Tombstones

	nsOnce sync.Once
	ns     *flat.NormSorted

	liveOnce sync.Once
	live     *shardSnap
}

// rowIndex returns the id→row map, deriving it from ids on first use.
// ids can hold an id twice after an upsert (the tombstoned old row and
// the appended newest one); in-order iteration makes the last
// occurrence win, which is the newest row — the same invariant the
// eager updates below maintain. Accessed only on the shard's owner
// goroutine, so the lazy build needs no synchronization; append-only
// shards never pay for the map at all.
func (sn *shardSnap) rowIndex() map[int]int {
	if sn.rows == nil && len(sn.ids) > 0 {
		rows := make(map[int]int, len(sn.ids))
		for i, id := range sn.ids {
			rows[id] = i
		}
		sn.rows = rows
	}
	return sn.rows
}

// normSorted lazily builds — once per snapshot, the store being
// immutable — the descending-norm view used by norm-pruned joins, so
// a join fan-out reuses one build across every query-shard pairing
// and across requests until the next ingest.
func (sn *shardSnap) normSorted() *flat.NormSorted {
	sn.nsOnce.Do(func() { sn.ns = flat.NewNormSorted(sn.fs) })
	return sn.ns
}

// liveView returns a snapshot holding only the live rows — what the
// join engines iterate, so a join can never emit a tombstoned row.
// With no tombstones it is the snapshot itself (free); otherwise a
// compacted (ids, fs) pair is built once per snapshot and cached, so
// the cost is paid by the first join after a delete, not per request.
// The view carries no serving index (joins build their own structures
// over fs) and no rows/dead bookkeeping — it is read-only.
func (sn *shardSnap) liveView() *shardSnap {
	if sn.dead.Count() == 0 {
		return sn
	}
	sn.liveOnce.Do(func() {
		nfs, err := flat.New(sn.fs.Dim())
		if err != nil {
			// Unreachable: sn.fs exists, so its dim is positive.
			sn.live = &shardSnap{index: emptyIndex{}}
			return
		}
		ids := make([]int, 0, sn.fs.Len()-sn.dead.Count())
		for i := 0; i < sn.fs.Len(); i++ {
			if sn.dead.Dead(i) {
				continue
			}
			if err := nfs.Append(sn.fs.Row(i)); err != nil {
				sn.live = &shardSnap{index: emptyIndex{}}
				return
			}
			ids = append(ids, sn.ids[i])
		}
		sn.live = &shardSnap{ids: ids, fs: nfs, index: emptyIndex{}}
	})
	return sn.live
}

func newShard(id int, seed uint64, overfetch int) *shard {
	s := &shard{
		id:        id,
		seed:      seed,
		overfetch: overfetch,
		ops:       make(chan func()),
		done:      make(chan struct{}),
	}
	s.snap.Store(&shardSnap{index: emptyIndex{}})
	go s.loop()
	return s
}

// loop is the owner goroutine: it applies mutations one at a time.
func (s *shard) loop() {
	defer close(s.done)
	for fn := range s.ops {
		fn()
	}
}

// close stops the owner goroutine (idempotent callers must not race).
func (s *shard) close() {
	close(s.ops)
	<-s.done
}

// build runs fn against the current snapshot on the owner goroutine and
// returns what it built, unpublished: the current snapshot stays live
// for concurrent readers throughout, and builds for different shards of
// one mutation proceed in parallel. A panic inside fn comes back as an
// error — the owner goroutine serves the whole collection's writes, so
// one bad batch must not take it (and the process) down.
func (s *shard) build(fn func(old *shardSnap) (*shardSnap, error)) (snap *shardSnap, err error) {
	done := make(chan struct{})
	s.ops <- func() {
		defer func() {
			if p := recover(); p != nil {
				slog.Error("server: shard snapshot build panicked", "shard", s.id, "panic", p, "stack", string(debug.Stack()))
				snap, err = nil, fmt.Errorf("%w: shard %d: snapshot build panicked: %v", errInternal, s.id, p)
			}
			close(done)
		}()
		snap, err = fn(s.snap.Load())
	}
	<-done
	return snap, err
}

// prepare builds — but does not publish — the snapshot that results
// from appending (ids, vs): the store is copied once with room for the
// batch, and the index follows it — extended from the current one
// where the engine can (alsh hashes only the new rows), rebuilt over
// the grown store otherwise. sp, the mutation's index_build span,
// learns which. The caller publishes the result with commit only once
// every shard's prepare has succeeded, keeping a failed ingest free of
// side effects.
func (s *shard) prepare(spec IndexSpec, ids []int, vs []vec.Vector, sp *trace.Span) (*shardSnap, error) {
	return s.build(func(old *shardSnap) (*shardSnap, error) {
		nids := make([]int, 0, len(old.ids)+len(ids))
		nids = append(nids, old.ids...)
		nids = append(nids, ids...)
		// Extend the row index incrementally only when the shard has
		// already materialized one (i.e. it has seen mutations);
		// append-only shards keep rows nil and never copy a map here.
		var rows map[int]int
		if old.rows != nil {
			rows = make(map[int]int, len(old.rows)+len(ids))
			for id, r := range old.rows {
				rows[id] = r
			}
			for i, id := range ids {
				rows[id] = len(old.ids) + i
			}
		}
		nfs, err := appendStore(old.fs, vs)
		if err != nil {
			return nil, err
		}
		var dead *flat.Tombstones
		if old.dead.Count() > 0 {
			dead = old.dead.Grow(nfs.Len())
		}
		index, err := s.nextIndex(spec, old, nfs, dead, sp)
		if err != nil {
			return nil, err
		}
		return &shardSnap{ids: nids, fs: nfs, index: index, rows: rows, dead: dead}, nil
	})
}

// nextIndex returns the index over nfs — old's store plus appended
// rows — masked by dead: an extension of old's index where the engine
// can grow (alsh), a fresh build otherwise.
func (s *shard) nextIndex(spec IndexSpec, old *shardSnap, nfs *flat.Store, dead *flat.Tombstones, sp *trace.Span) (ShardIndex, error) {
	var index ShardIndex
	if prev, ok := old.index.(*alshIndex); ok {
		// spec is unused here: a collection's spec never changes, so prev
		// was built under it with this shard's seed and extend inherits both.
		sp.SetInt("extend", 1)
		index = prev.extend(nfs)
	} else {
		sp.SetInt("rebuild", 1)
		var err error
		if index, err = buildShardIndex(spec, nfs, s.seed, s.overfetch); err != nil {
			return nil, err
		}
	}
	return maskIndex(index, dead)
}

// maskIndex applies a tombstone set to an index (no-op when empty).
func maskIndex(index ShardIndex, dead *flat.Tombstones) (ShardIndex, error) {
	if dead.Count() == 0 {
		return index, nil
	}
	dm, ok := index.(deadMasker)
	if !ok {
		return nil, fmt.Errorf("server: index %T does not support deletions", index)
	}
	return dm.withDead(dead), nil
}

// prepareUpsert builds — but does not publish — the snapshot that
// results from insert-or-replace of (ids, vs): replaced IDs have their
// old row tombstoned and every record lands in a fresh appended row,
// so the store stays append-only and the index follows it exactly as
// in prepare. Runs on the owner goroutine; the caller commits.
func (s *shard) prepareUpsert(spec IndexSpec, ids []int, vs []vec.Vector, sp *trace.Span) (*shardSnap, error) {
	return s.build(func(old *shardSnap) (*shardSnap, error) {
		base := 0
		if old.fs != nil {
			base = old.fs.Len()
		}
		nids := make([]int, 0, len(old.ids)+len(ids))
		nids = append(nids, old.ids...)
		nids = append(nids, ids...)
		orows := old.rowIndex()
		rows := make(map[int]int, len(orows)+len(ids))
		for id, r := range orows {
			rows[id] = r
		}
		nfs, err := appendStore(old.fs, vs)
		if err != nil {
			return nil, err
		}
		dead := old.dead.Grow(nfs.Len())
		for i, id := range ids {
			if r, ok := rows[id]; ok && !dead.Dead(r) {
				dead.Kill(r)
			}
			rows[id] = base + i
		}
		if dead.Count() == 0 {
			dead = nil // keep the zero-tombstone fast paths
		}
		index, err := s.nextIndex(spec, old, nfs, dead, sp)
		if err != nil {
			return nil, err
		}
		return &shardSnap{ids: nids, fs: nfs, index: index, rows: rows, dead: dead}, nil
	})
}

// prepareDelete builds — but does not publish — the snapshot with the
// given IDs tombstoned, returning how many were live. A delete-only
// snapshot is cheap: it shares the store, id slice and rows map with
// the old one; only the bitmap is copied and the index re-masked.
// IDs that are unknown or already dead are no-ops. Returns (nil, 0)
// when nothing changed so the caller can skip the commit.
func (s *shard) prepareDelete(ids []int) (*shardSnap, int, error) {
	removed := 0
	snap, err := s.build(func(old *shardSnap) (*shardSnap, error) {
		if old.fs == nil {
			return nil, nil
		}
		dead := old.dead.Grow(old.fs.Len())
		rows := old.rowIndex()
		for _, id := range ids {
			if r, ok := rows[id]; ok && !dead.Dead(r) {
				dead.Kill(r)
				removed++
			}
		}
		if removed == 0 {
			return nil, nil
		}
		index, err := maskIndex(old.index, dead)
		if err != nil {
			return nil, err
		}
		return &shardSnap{ids: old.ids, fs: old.fs, index: index, rows: rows, dead: dead}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	return snap, removed, nil
}

// prepareCompact builds — but does not publish — the fully-compacted
// snapshot: live rows repacked into a fresh contiguous store, a fresh
// rows map, no tombstones, and the index rebuilt over the compact
// store (row numbers change, so this is the one write that cannot
// extend). Returns nil when the shard has no tombstones.
func (s *shard) prepareCompact(spec IndexSpec) (*shardSnap, error) {
	return s.build(func(old *shardSnap) (*shardSnap, error) {
		if old.dead.Count() == 0 {
			return nil, nil
		}
		nfs, err := flat.New(old.fs.Dim())
		if err != nil {
			return nil, err
		}
		nids := make([]int, 0, old.fs.Len()-old.dead.Count())
		rows := make(map[int]int, old.fs.Len()-old.dead.Count())
		for i := 0; i < old.fs.Len(); i++ {
			if old.dead.Dead(i) {
				continue
			}
			if err := nfs.Append(old.fs.Row(i)); err != nil {
				return nil, err
			}
			rows[old.ids[i]] = len(nids)
			nids = append(nids, old.ids[i])
		}
		index, err := buildShardIndex(spec, nfs, s.seed, s.overfetch)
		if err != nil {
			return nil, err
		}
		return &shardSnap{ids: nids, fs: nfs, index: index, rows: rows}, nil
	})
}

// appendStore builds the columnar store for the next snapshot: a deep
// copy of the current store (which must stay live for readers) plus
// the new rows. A nil old store adopts the batch's dimension.
func appendStore(old *flat.Store, vs []vec.Vector) (*flat.Store, error) {
	if len(vs) == 0 {
		return old, nil
	}
	var nfs *flat.Store
	var err error
	if old == nil {
		nfs, err = flat.New(len(vs[0]))
		if err != nil {
			return nil, err
		}
	} else {
		// Reserve the batch's rows up front so the existing data is
		// copied exactly once per snapshot rebuild.
		nfs = old.CloneGrow(len(vs))
	}
	if err := nfs.AppendAll(vs); err != nil {
		return nil, err
	}
	return nfs, nil
}

// commit publishes a prepared snapshot on the owner goroutine.
func (s *shard) commit(snap *shardSnap) {
	done := make(chan struct{})
	s.ops <- func() {
		s.snap.Store(snap)
		close(done)
	}
	<-done
}

// topK answers a query against the current snapshot, translating local
// hit indices to global record IDs. workers is the intra-shard scan
// parallelism hint passed through to the index. rerank asks engines
// that support it (f32 quantized) for exact re-ranked scores; engines
// without the capability — including those already exact — ignore it.
// ex, when non-nil, receives this shard's explain accounting (see
// explain.go); a traced request additionally gets one shard_scan span.
// The returned list keeps the canonical (score descending, global ID
// ascending) order so the k-way merge's tie-breaking is exact even when
// the ID-to-shard assignment does not preserve ID order within a shard.
func (s *shard) topK(ctx context.Context, q vec.Vector, k int, unsigned bool, workers int, rerank bool, ex *ShardExplain) ([]Hit, error) {
	snap := s.snap.Load()
	s.queries.Add(1)
	sp := trace.FromContext(ctx).StartSpan("shard_scan")
	sp.SetInt("shard", int64(s.id))
	defer sp.End()
	var start time.Time
	if ex != nil {
		start = time.Now()
		ex.Shard = s.id
		ex.Records = len(snap.ids)
		ex.Live = len(snap.ids) - snap.dead.Count()
	}
	local, err := indexTopKEx(ctx, snap.index, q, k, unsigned, workers, rerank, ex)
	if err != nil {
		return nil, err
	}
	out := make([]Hit, len(local))
	for i, h := range local {
		out[i] = Hit{ID: snap.ids[h.ID], Score: h.Score}
	}
	sortHitsCanonical(out)
	if ex != nil {
		ex.Micros = time.Since(start).Microseconds()
		sp.SetInt("rows_scanned", int64(ex.RowsScanned))
	}
	return out, nil
}

// indexTopK dispatches one query to an index, routing through the
// exact re-rank pipeline when asked for and available. Shared by the
// per-query shard path and the batch executor's per-query fallback, so
// both honor rerank identically.
func indexTopK(ctx context.Context, index ShardIndex, q vec.Vector, k int, unsigned bool, workers int, rerank bool) ([]Hit, error) {
	if rerank {
		if ri, ok := index.(rerankIndex); ok {
			return ri.TopKRerank(ctx, q, k, unsigned, workers)
		}
	}
	return index.TopK(ctx, q, k, unsigned, workers)
}

// sortHitsCanonical sorts hits into the canonical (score descending,
// ID ascending) order without allocating (slices.SortFunc, unlike
// sort.Slice, needs no reflection). All (score, ID) keys within one
// shard are distinct — IDs are unique — so the non-stable sort is
// deterministic.
func sortHitsCanonical(hs []Hit) {
	slices.SortFunc(hs, func(a, b Hit) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// size returns the current record count.
func (s *shard) size() int { return len(s.snap.Load().ids) }

// scanParallelism returns how many workers the current snapshot's
// index can actually spend on one scan (1 when the engine ignores the
// hint or the shard is too small — large flat-backed exact shards
// only).
func (s *shard) scanParallelism() int {
	if p, ok := s.snap.Load().index.(parallelScanner); ok {
		if w := p.maxScanWorkers(); w > 1 {
			return w
		}
	}
	return 1
}
