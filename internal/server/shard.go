package server

import (
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/trace"
	"repro/internal/vec"
)

// shard owns one horizontal slice of a collection. All mutation happens
// on the shard's dedicated goroutine (the ops loop), so snapshot builds
// for different shards of one write proceed in parallel without locks.
// snap is the newest committed snapshot, which the next build extends;
// readers pin the collection's published view (Collection.publish)
// instead, a consistent (ids, vectors, index) triple per shard, and
// never block on writers.
type shard struct {
	id      int
	snap    atomic.Pointer[shardSnap]
	ops     chan func()
	done    chan struct{}
	queries atomic.Int64
	// builds, the owning collection's, counts what each write's index
	// work came to (see nextIndex); nil for a shard without a collection.
	builds *indexBuilds
	// rows maps a global ID to its newest local row in the published
	// snapshot. It belongs to the owner goroutine alone — writers are
	// the only ones who ask "where does this ID live" — so it is one
	// map updated in place at commit, not a copy per snapshot. Lazy: see
	// rowIndex.
	rows map[int]int
}

// shardSnap is an immutable shard state: the id slice, the columnar
// vector store, and the index over the store (local row i ↔ global ID
// ids[i]). Snapshots are never mutated after publication, so readers
// holding one can scan the store without synchronization.
//
// A write extends the triple rather than copying it: the next
// snapshot's ids and store share every row the current one holds and
// append the batch behind them — in place where the backing memory has
// room, which readers of the current snapshot, bounded by its length,
// never see (one writer per shard; publication is the atomic pointer
// swap). dead marks tombstoned rows (nil until the first delete — the
// zero-tombstone fast paths key off that). An upsert tombstones the old
// row and appends the new one, so an ID can appear in ids twice; the
// later row is the live one. A normscan shard keeps no store: fs is nil,
// and its index's norm-sorted view holds the rows, the only copy (see
// row).
type shardSnap struct {
	ids   []int
	fs    *flat.Store
	index ShardIndex
	dead  *flat.Tombstones
}

// rowIndex returns the id→row map of the published snapshot sn,
// deriving it from sn.ids on first use. ids can hold an id twice after
// an upsert (the tombstoned old row and the appended newest one);
// in-order iteration makes the last occurrence win, which is the newest
// row — the same invariant commit maintains. An entry whose row is dead
// means the ID is not live. Owner goroutine only; append-only shards
// never pay for the map at all.
func (s *shard) rowIndex(sn *shardSnap) map[int]int {
	if s.rows == nil {
		s.rows = make(map[int]int, len(sn.ids))
		for i, id := range sn.ids {
			s.rows[id] = i
		}
	}
	return s.rows
}

// row returns the snapshot's row i (a local, store-order index): from fs,
// or on a normscan shard through its norm-sorted view's inverse
// permutation. Rows are immutable once published, so the view aliases
// them and callers must not mutate it.
func (sn *shardSnap) row(i int) vec.Vector {
	if sn.fs == nil {
		return sn.index.(*flatIndex).view.Row(i)
	}
	return sn.fs.Row(i)
}

// dim returns the snapshot's row dimension; a snapshot holding no rows
// may report 0.
func (sn *shardSnap) dim() int {
	switch ix, ok := sn.index.(*flatIndex); {
	case sn.fs != nil:
		return sn.fs.Dim()
	case ok:
		return ix.view.Dim()
	}
	return 0
}

// compacted returns the snapshot with its dead rows dropped and the live
// ones renumbered in row order, unpublished, its index built anew — an
// alsh one as an extend of hashes, so it hashes as before. A normscan
// shard's norm-sorted runs drop their dead rows in one merge (no sort);
// every other kind repacks its live rows into a fresh store sized for
// exactly them.
func (sn *shardSnap) compacted(spec IndexSpec, hashes *lsh.Index) (*shardSnap, error) {
	ids := make([]int, 0, len(sn.ids)-sn.dead.Count())
	var rows []vec.Vector
	for i, id := range sn.ids {
		if !sn.dead.Dead(i) {
			ids = append(ids, id)
			if sn.fs != nil {
				rows = append(rows, sn.fs.Row(i))
			}
		}
	}
	if sn.fs == nil {
		var index ShardIndex = emptyIndex{}
		if len(ids) > 0 {
			index = &flatIndex{view: sn.index.(*flatIndex).view.Compact(sn.dead)}
		}
		return &shardSnap{ids: ids, index: index}, nil
	}
	fs, err := flat.New(sn.fs.Dim())
	if err != nil {
		return nil, err
	}
	if err := fs.AppendAll(rows); err != nil {
		return nil, err
	}
	index, err := buildShardIndex(spec, fs, hashes)
	if err != nil {
		return nil, err
	}
	return &shardSnap{ids: ids, fs: fs, index: index}, nil
}

func newShard(id int, builds *indexBuilds) *shard {
	s := &shard{
		id:     id,
		builds: builds,
		ops:    make(chan func()),
		done:   make(chan struct{}),
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

// shardWrite is one shard's part of a write: the IDs whose live rows it
// tombstones, then the records (ids, vs) it appends. An ingest only
// appends, a delete only tombstones, an upsert that replaces a live
// record does both.
type shardWrite struct {
	kill []int
	ids  []int
	vs   []vec.Vector
}

// prepare builds — but does not publish — the snapshot that results
// from w: the live rows of w.kill are tombstoned, then (w.ids, w.vs) is
// appended. ids and store grow from the current ones, sharing their
// rows, and the index follows — extended by the batch where the engine
// can (see nextIndex), rebuilt over the grown store otherwise — an alsh
// one under hashes, the collection's hash functions; a normscan shard has
// no store, and its index grows by the batch alone. sp, the write's
// index_build span, learns which, and how many rows the write had to
// copy. A write that appends nothing shares the store and ids and only
// re-masks the index; one that changes nothing returns nil. Only a kill
// consults the id→row map (rowIndex), so an append-only shard never
// builds one. The caller publishes the result with commit only once
// every shard's prepare has succeeded and the write is in the WAL; a
// prepared snapshot that is dropped instead leaves nothing behind but
// unreachable bytes past the current snapshot's length.
func (s *shard) prepare(spec IndexSpec, hashes *lsh.Index, w shardWrite, sp *trace.Span) (*shardSnap, error) {
	return s.build(func(old *shardSnap) (*shardSnap, error) {
		dead := old.dead
		if len(w.kill) > 0 || dead.Count() > 0 {
			dead = old.dead.Grow(len(old.ids) + len(w.ids)) // the next snapshot's rows
		}
		for _, id := range w.kill {
			if r, ok := s.rowIndex(old)[id]; ok {
				dead.Kill(r) // a no-op on a row already dead
			}
		}
		if len(w.vs) == 0 {
			if dead.Count() == old.dead.Count() {
				return nil, nil
			}
			return &shardSnap{ids: old.ids, fs: old.fs, index: old.index.withDead(dead, old), dead: dead}, nil
		}
		if dead.Count() == 0 {
			dead = nil // keep the zero-tombstone fast paths
		}
		index, nfs, err := s.nextIndex(spec, hashes, old, w.vs, dead, sp)
		if err != nil {
			return nil, err
		}
		return &shardSnap{ids: append(old.ids, w.ids...), fs: nfs, index: index, dead: dead}, nil
	})
}

// nextIndex returns the index over old's rows and vs appended behind
// them, masked by dead, and the store it keeps them in — nil on a
// normscan shard, whose norm-sorted view is the only copy of its rows.
// Engines whose structure over the old rows stays valid extend it by the
// new rows (exact at every precision: the store is the index, and the
// int8 mirror converts only what it lacks; alsh hashes only the new rows;
// normscan sorts the batch's keys and merges its rows, in one copy, with
// the newest runs of its stack — a bulk batch, a 64th of the shard or
// more, while those are of a smaller size class, ⌊log₄ rows⌋, or three
// of its own; a smaller one while the run below holds under 4× the
// merged rows — and once the merge takes in the base run merges every
// run and the batch into one — a rebuild, but no sort). The mask is derived from old's where the engine
// can: a normscan shard patches its permuted dead set (see
// flatIndex.dead). sp counts the shard under extend or rebuild and
// records rows_copied: the rows of the next snapshot, in whichever tier
// copied most, that do not share memory with the current one — on
// normscan, the merged run's. The collection's counters get the same two facts,
// traced or not.
func (s *shard) nextIndex(spec IndexSpec, hashes *lsh.Index, old *shardSnap, vs []vec.Vector, dead *flat.Tombstones, sp *trace.Span) (ShardIndex, *flat.Store, error) {
	// spec and hashes are only read on the rebuild path: a collection's
	// spec and hash functions never change once a row is in, so an index
	// being extended was built under them and inherits them.
	var index ShardIndex
	var nfs *flat.Store
	var copied int
	rebuilt := false
	if spec.kind() == KindNormScan {
		index, copied, rebuilt = extendNormScan(old.index, vs)
	} else {
		var err error
		if nfs, err = appendStore(old.fs, vs); err != nil {
			return nil, nil, err
		}
		copied = nfs.Len() - nfs.SharedRows(old.fs)
		switch prev := old.index.(type) {
		case *flatIndex:
			next, tierCopied := prev.extend(nfs)
			index, copied = next, max(copied, tierCopied)
		case *alshIndex:
			index, copied = prev.extend(nfs)
		default:
			rebuilt, copied = true, nfs.Len()
			if index, err = buildShardIndex(spec, nfs, hashes); err != nil {
				return nil, nil, err
			}
		}
	}
	how := "extend"
	if rebuilt {
		how = "rebuild"
	}
	sp.SetInt(how, 1)
	sp.SetInt("rows_copied", int64(copied))
	s.builds.record(how, copied)
	if dead.Count() > 0 {
		index = index.withDead(dead, old)
	}
	return index, nfs, nil
}

// prepareCompact builds — but does not publish — the fully-compacted
// snapshot (shardSnap.compacted): no tombstones, the live rows
// renumbered and the index built anew (row numbers change, so this is
// the one write that cannot extend). Returns nil when the shard has no
// tombstones.
func (s *shard) prepareCompact(spec IndexSpec, hashes *lsh.Index) (*shardSnap, error) {
	return s.build(func(old *shardSnap) (*shardSnap, error) {
		if old.dead.Count() == 0 {
			return nil, nil
		}
		return old.compacted(spec, hashes)
	})
}

// appendStore builds the columnar store for the next snapshot: the
// current store's rows — shared with it, which must stay live for
// readers, not copied — plus the new ones. A nil old store adopts the
// batch's dimension.
func appendStore(old *flat.Store, vs []vec.Vector) (*flat.Store, error) {
	var nfs *flat.Store
	var err error
	if old == nil {
		nfs, err = flat.New(len(vs[0]))
		if err != nil {
			return nil, err
		}
	} else {
		nfs = old.CloneGrow(len(vs))
	}
	if err := nfs.AppendAll(vs); err != nil {
		return nil, err
	}
	return nfs, nil
}

// commit makes a prepared snapshot the shard's newest, on the owner
// goroutine — a write's phase 2 (Collection.apply) or a compaction's;
// readers see it once the collection publishes its view — and brings
// the id→row map, if the shard keeps one, in step: the rows snap
// appended behind the current snapshot's are indexed (O(batch)), or —
// renumbered, after a compaction — the map is dropped for rowIndex to
// rebuild on the next write that tombstones a row: an upsert that
// replaces a live record, or a delete. Nothing is touched before this
// point, so an abandoned prepare has nothing to roll back.
func (s *shard) commit(snap *shardSnap, renumbered bool) {
	done := make(chan struct{})
	s.ops <- func() {
		if renumbered {
			s.rows = nil
		} else if s.rows != nil {
			for i := len(s.snap.Load().ids); i < len(snap.ids); i++ {
				s.rows[snap.ids[i]] = i
			}
		}
		s.snap.Store(snap)
		close(done)
	}
	<-done
}
