package server

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errfs"
	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/persist"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/vec"
)

// Collection is a named, sharded vector set. The shards hold the only
// copy of the rows: each publishes immutable snapshots of its columnar
// store and the index over it, and a write's snapshots become visible
// together, as one published view; the collection itself keeps just the
// counters readers need (dimension, live count) and the records'
// attributes. Ingest, upsert and delete take one path (apply): every
// touched shard builds its next snapshot on its owner goroutine — rows
// appended, rows tombstoned, the index extended, rebuilt or re-masked —
// then, when the server is durable, the write's one frame is appended
// to the collection's write-ahead log, and only then does any of it
// become visible. A background checkpoint compacts the log into segment
// snapshots read back out of the shards.
type Collection struct {
	name   string
	spec   IndexSpec
	shards []*shard
	// dim is the vector dimension, fixed by the first record ingested
	// (0 until then) and kept even if every record is deleted; live
	// counts live records. Written under ingestMu, read lock-free.
	dim  atomic.Int64
	live atomic.Int64
	// view is what every reader pins: the shards' snapshots and the
	// version they make up, stored whole under ingestMu after a write's
	// last shard commit (publish), so a reader sees a write on every
	// shard or on none.
	view atomic.Pointer[collView]
	// gen is the collection's incarnation number, unique within the
	// owning server's lifetime; it namespaces cache keys so entries
	// from a dropped collection can never serve a same-name successor.
	gen uint64
	// keepNotes, set by a server whose cache is on for an exact or
	// normscan collection before it takes a write, makes each write
	// publish a note (see writeNote).
	keepNotes bool
	// seed is the collection's hashing seed, kept in its manifest.
	seed uint64
	// hashes is an alsh collection's one set of hash functions: an empty
	// banding index, sampled from spec and seed once a write brings the
	// dimension (see sampleHashes), that every shard's index extends. A
	// query hashed once under it probes every shard (hashQueries). Nil on
	// other kinds; set under ingestMu before any shard indexes a row, read
	// lock-free.
	hashes atomic.Pointer[lsh.Index]

	ingestMu sync.Mutex
	// seenIDs is the currently-live ID set: deletes remove from it, so
	// AutoID assignment may reuse an ID after its record is deleted.
	seenIDs map[int]struct{}
	// attrs holds the attributes of the live records that carry any, by
	// ID (under ingestMu). A record's map is replaced whole, never
	// edited, so checkpoints may keep reading one after the lock drops.
	attrs  map[int]map[string]string
	nextID int
	closed bool
	log    *persist.Log // nil on an in-memory server
	// notes is the published chain of write notes, oldest first, and
	// noteUnits what they hold (writeNote.units), for the horizon cut.
	notes     []*writeNote
	noteUnits int

	// compactFrac and compactMin gate background compaction: it runs
	// when tombstoned rows reach compactMin and the given fraction of
	// all rows. compacting is the single-flight latch; compactions
	// counts completed runs for /stats.
	compactFrac float64
	compactMin  int
	compacting  atomic.Bool
	compactions atomic.Int64

	// builds counts the shards' index extends and rebuilds and the rows
	// they copied, for /metrics.
	builds indexBuilds

	queries atomic.Int64
	lat     *latencyRing
	// hist is the cumulative fixed-bucket query latency histogram
	// behind /metrics (the ring above serves /stats' windowed
	// percentiles; Prometheus wants monotone counters it can rate()).
	hist *latencyHist
	// timeouts counts queries abandoned because their deadline fired
	// mid-scan (or before it started).
	timeouts atomic.Int64
	// adm is the per-collection admission gate; nil means unlimited.
	adm *gate
	// stageObs, when set by the owning server, receives per-stage
	// durations (index_build, wal_append, wal_fsync, checkpoint) for the
	// ipsd_stage_seconds histograms. Nil-safe via observeStage.
	stageObs func(stage string, d time.Duration)

	// Failure-domain state (see health.go): health holds a HealthState,
	// healthReason (under healthMu) the human-readable cause. repairing
	// is the repair probe's single-flight latch; bg closes at shutdown
	// to stop the probe and the scrubber.
	health       atomic.Int32
	healthMu     sync.Mutex
	healthReason string
	repairing    atomic.Bool
	repairs      atomic.Int64
	scrubs       atomic.Int64
	scrubErrors  atomic.Int64
	lastScrub    atomic.Int64 // unix seconds of the last completed scrub
	scrubEvery   time.Duration
	bg           chan struct{}
	bgOnce       sync.Once
	// quarDir and fsys let Drop delete a quarantined placeholder's data
	// directory even though it never got a log attached.
	quarDir string
	fsys    errfs.FS
}

// Default compaction trigger: rewrite a collection's shards once a
// quarter of the rows are tombstones, but never churn over a handful
// of dead rows — rebuilding indexes costs more than scanning past
// them until the dead set has real size.
const (
	defaultCompactFraction = 0.25
	defaultCompactMinDead  = 1024
)

// walAppendFailed wraps a WAL append error for the mutation that hit it.
// A latched log failure degrades the collection here, before the caller
// sees the error — the log's fault hook does the same, but on its own
// goroutine, and a client told "unavailable" must not find the
// collection still claiming to be active.
func (c *Collection) walAppendFailed(err error) error {
	if c.log.Failed() != nil {
		c.degrade(fmt.Sprintf("wal/checkpoint fault: %v", err))
	}
	return fmt.Errorf("%w: collection %q: wal append: %w", ErrUnavailable, c.name, err)
}

// attachLog makes later ingests durable through lg. It is called once,
// before the collection starts serving ingests (at creation, or after
// boot-time replay so recovered records are not re-appended). The
// collection's storage precision is stamped onto the log here so every
// checkpoint segment carries the matching payload encoding.
func (c *Collection) attachLog(lg *persist.Log) {
	lg.SetPrecision(persist.Precision(c.spec.precision()))
	// Any latched WAL failure or failed background checkpoint degrades
	// this collection (read-only until the repair probe succeeds)
	// instead of surfacing one mutation at a time. The hook runs on its
	// own goroutine, so no lock ordering couples persist to the server.
	lg.SetFaultHook(func(err error) {
		c.degrade(fmt.Sprintf("wal/checkpoint fault: %v", err))
	})
	// The log's observer feeds fsync and checkpoint durations into the
	// per-stage histograms. It runs with the log's mutex held, and
	// observeStage only touches atomics, honoring the record-only rule.
	lg.SetObserver(c.observeStage)
	c.ingestMu.Lock()
	c.log = lg
	c.ingestMu.Unlock()
	c.startScrubber()
}

// closeLog flushes and closes the WAL, if any. Callers hold the
// server's collection map lock only; the log serializes internally.
func (c *Collection) closeLog() error {
	if c.log == nil {
		return nil
	}
	return c.log.Close()
}

// removeLog closes the WAL and deletes the collection's data
// directory, if any. A quarantined placeholder has no log but still
// owns its (damaged) directory, which DELETE must be able to discard.
func (c *Collection) removeLog() error {
	if c.log != nil {
		return c.log.Remove()
	}
	if c.quarDir != "" {
		fsys := c.fsys
		if fsys == nil {
			fsys = errfs.OS
		}
		return fsys.RemoveAll(c.quarDir)
	}
	return nil
}

// persistSnapshot is the checkpointer's coherent view: taking ingestMu
// means no ingest is mid-flight, so the shards' live rows correspond
// exactly to the WAL prefix through LastSeq.
func (c *Collection) persistSnapshot() ([]store.Record, uint64) {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	return c.liveRecords(), c.log.LastSeq()
}

// liveRecords assembles the live records, shard by shard in row order,
// as views: each Vec aliases its row in the shard's store, or a normscan
// shard's norm-sorted view (immutable once published), and each Attrs is
// the stored map, so nothing but the record headers is allocated.
// Callers hold ingestMu and must treat the result as read-only.
func (c *Collection) liveRecords() []store.Record {
	recs := make([]store.Record, 0, c.live.Load())
	for _, sh := range c.shards {
		sn := sh.snap.Load()
		for i, id := range sn.ids {
			if !sn.dead.Dead(i) {
				recs = append(recs, store.Record{ID: id, Vec: sn.row(i), Attrs: c.attrs[id]})
			}
		}
	}
	return recs
}

// admit is the check every write passes under ingestMu before it
// touches any state: the collection is open and mutable, and the
// records, if the write carries any, fit it — every vector has the
// collection's dimension, or, on a collection that has never held a
// record, the first record's, which must be positive; on an alsh
// collection every vector lies in the unit ball, since §4.1's SIMPLE map
// is only defined on ‖p‖ ≤ 1, and the hash functions are sampled for
// the dimension (sampleHashes). It returns that dimension.
func (c *Collection) admit(recs []store.Record) (int, error) {
	if c.closed {
		return 0, fmt.Errorf("%w: collection %q is closed", ErrUnavailable, c.name)
	}
	if err := c.checkMutable(); err != nil || len(recs) == 0 {
		return 0, err
	}
	dim := int(c.dim.Load())
	if dim == 0 {
		if dim = len(recs[0].Vec); dim == 0 {
			return 0, fmt.Errorf("server: collection %q: zero-dimensional record", c.name)
		}
	}
	for i, r := range recs {
		if len(r.Vec) != dim {
			return 0, fmt.Errorf("server: collection %q: record %d has dimension %d, want %d",
				c.name, i, len(r.Vec), dim)
		}
	}
	if c.spec.kind() == KindALSH {
		for i, r := range recs {
			if !transform.InUnitBall(r.Vec) {
				who := fmt.Sprintf("record %d", i)
				if r.ID != AutoID {
					who += fmt.Sprintf(" (id %d)", r.ID)
				}
				return 0, fmt.Errorf("server: collection %q: %s: norm %.6g exceeds 1, the data bound of the %s index",
					c.name, who, vec.Norm(r.Vec), KindALSH)
			}
		}
	}
	return dim, c.sampleHashes(dim)
}

// collView is one published state of a collection: a snapshot per shard
// and the version they make up — the count of applied mutations, which
// a cached answer is tagged with. Immutable once published, but for the
// notes' prev links, which a later write may cut.
type collView struct {
	snaps   []*shardSnap
	version uint64
	// epoch counts compactions, which renumber the shards' rows (and
	// leave the version be).
	epoch uint64
	// writes is the note of the write that made this version, chained
	// newest first to those before it, back to the note horizon or the
	// epoch's start; nil on a collection that keeps no notes.
	writes *writeNote
}

// writeNote is what a cached exact answer needs of one write to be
// brought forward across it (collView.bringForward): the rows it appended
// (a row it tombstoned is dead in the view). Kept only by exact and
// normscan collections of a server whose cache is on (Collection.keepNotes).
type writeNote struct {
	version uint64
	// spans[si] is the store rows shard si appended, [lo, hi).
	spans []rowSpan
	// units is the rows tombstoned and appended: what the horizon counts.
	units int
	prev  atomic.Pointer[writeNote]

	// rows, built on first use (appended), is every appended row, by
	// descending norm.
	once sync.Once
	rows []noteRow
}

type rowSpan struct{ lo, hi int }

// noteRow is an appended row: its norm (flat.RowNorm) and where it lives.
type noteRow struct {
	norm float64
	hitRow
}

// appended returns the rows the write appended, by descending norm,
// read on first use out of snaps — any view of the note's epoch from its
// version on, all of which hold them at the same store rows. A row with a
// NaN norm (a NaN element, so it scores NaN) sorts last.
func (n *writeNote) appended(snaps []*shardSnap) []noteRow {
	n.once.Do(func() {
		var rows []noteRow
		for si, sp := range n.spans {
			rows = slices.Grow(rows, sp.hi-sp.lo)
			for r := sp.lo; r < sp.hi; r++ {
				rows = append(rows, noteRow{flat.RowNorm(snaps[si].row(r)), hitRow{int32(si), int32(r)}})
			}
		}
		slices.SortFunc(rows, func(a, b noteRow) int { return cmp.Compare(b.norm, a.norm) })
		n.rows = rows
	})
	return n.rows
}

// publish makes the shards' committed snapshots, at version, the view
// readers pin, with writes as its notes. Callers hold ingestMu, after a
// write's last shard commit.
func (c *Collection) publish(version, epoch uint64, writes *writeNote) {
	v := &collView{snaps: make([]*shardSnap, len(c.shards)), version: version, epoch: epoch, writes: writes}
	for i, sh := range c.shards {
		v.snaps[i] = sh.snap.Load()
	}
	c.view.Store(v)
}

// applied records a write that every shard has committed and the WAL
// holds: the change in live records, then the next version's view, with
// the write's note when the collection keeps them — killed counts the
// rows it tombstoned. A durable collection then compacts its WAL into a
// segment snapshot once the log's tail outgrows the threshold, in the
// background (the snapshot callback re-takes ingestMu for a coherent
// view). Callers hold ingestMu.
func (c *Collection) applied(liveDelta, killed int) uint64 {
	c.live.Add(int64(liveDelta))
	old := c.view.Load()
	version := old.version + 1
	c.publish(version, old.epoch, c.note(old, version, killed))
	if c.log != nil {
		c.log.MaybeCheckpoint(c.persistSnapshot)
	}
	return version
}

// note returns the note of the write that takes old to version, chained
// to old's, or nil when the collection keeps none. Bringing an answer
// across notes that tombstoned and appended more rows than the collection
// has live would cost more than a scan, so the oldest notes are cut off
// the chain until they do not: that is the note horizon. Callers hold
// ingestMu, after the write's shard commits.
func (c *Collection) note(old *collView, version uint64, killed int) *writeNote {
	if !c.keepNotes {
		return nil
	}
	n := &writeNote{version: version, spans: make([]rowSpan, len(c.shards)), units: killed}
	for si, sh := range c.shards {
		n.spans[si] = rowSpan{len(old.snaps[si].ids), len(sh.snap.Load().ids)}
		n.units += n.spans[si].hi - n.spans[si].lo
	}
	n.prev.Store(old.writes)
	c.notes = append(c.notes, n)
	c.noteUnits += n.units
	drop := 0
	for ; drop < len(c.notes) && c.noteUnits > int(c.live.Load()); drop++ {
		c.noteUnits -= c.notes[drop].units
	}
	if drop > 0 {
		clear(c.notes[:drop])
		if c.notes = c.notes[drop:]; len(c.notes) == 0 {
			return nil
		}
		c.notes[0].prev.Store(nil)
	}
	return n
}

// release drops the IDs a failed write reserved from the live set.
// Callers hold ingestMu.
func (c *Collection) release(reserved []int) {
	for _, id := range reserved {
		delete(c.seenIDs, id)
	}
}

// setAttrs makes recs' attributes the stored ones for their IDs: a
// record with none clears whatever its ID carried before.
func (c *Collection) setAttrs(recs []store.Record) {
	for _, r := range recs {
		if len(r.Attrs) > 0 {
			c.attrs[r.ID] = r.Attrs
		} else {
			delete(c.attrs, r.ID)
		}
	}
}

func newCollection(name string, spec IndexSpec, nshards int, seed uint64) (*Collection, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if nshards <= 0 {
		return nil, fmt.Errorf("server: collection %q: shard count %d must be positive", name, nshards)
	}
	c := &Collection{
		name:        name,
		spec:        spec,
		shards:      make([]*shard, nshards),
		seenIDs:     make(map[int]struct{}),
		attrs:       make(map[int]map[string]string),
		compactFrac: defaultCompactFraction,
		compactMin:  defaultCompactMinDead,
		lat:         newLatencyRing(),
		hist:        newLatencyHist(),
		bg:          make(chan struct{}),
		seed:        seed,
	}
	for i := range c.shards {
		c.shards[i] = newShard(i, &c.builds)
	}
	c.publish(0, 0, nil)
	return c, nil
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Spec returns the index spec the collection was created with.
func (c *Collection) Spec() IndexSpec { return c.spec }

// Shards returns the shard count.
func (c *Collection) Shards() int { return len(c.shards) }

// Len returns the current record count.
func (c *Collection) Len() int { return int(c.live.Load()) }

// Version returns the published view's version.
func (c *Collection) Version() uint64 { return c.view.Load().version }

// shardFor maps a record ID to its home shard.
func (c *Collection) shardFor(id int) int {
	n := len(c.shards)
	return ((id % n) + n) % n
}

// Ingest validates and appends records, assigns IDs to records that
// carry the sentinel AutoID, partitions the batch by ID across the
// shards, and builds every touched shard's next snapshot in parallel
// on the shard-owner goroutines. The batch is all-or-nothing: records
// and new indexes become visible only after every shard's build has
// succeeded, and a rejected batch leaves no trace (IDs reserved for
// it are released). A touched shard's next store shares the current
// one's rows and adds the batch, and an exact (any precision), alsh or
// normscan index is extended by the batch alone (normscan, which keeps
// no store, merging the sorted batch into at most one chunk of rows, and
// into the whole shard once per chunk appended to it; alsh hashing the
// batch but copying every bucket table's ids), so a write hashes,
// converts and sorts O(batch) rows. Returns the new version.
func (c *Collection) Ingest(recs []store.Record) (uint64, error) {
	return c.ingest(context.Background(), recs)
}

// ingest is Ingest under the caller's context, which is read only for
// its trace: a traced request gets an index_build span.
func (c *Collection) ingest(ctx context.Context, recs []store.Record) (uint64, error) {
	if len(recs) == 0 {
		return c.Version(), nil
	}
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	dim, err := c.admit(recs)
	if err != nil {
		return 0, err
	}

	// Assign and reserve IDs; any later failure releases the whole
	// batch's reservations.
	assigned := make([]store.Record, len(recs))
	copy(assigned, recs)
	reserved := make([]int, 0, len(assigned))
	for i := range assigned {
		if assigned[i].ID == AutoID {
			for {
				if _, dup := c.seenIDs[c.nextID]; !dup {
					break
				}
				c.nextID++
			}
			assigned[i].ID = c.nextID
			c.nextID++
		}
		if _, dup := c.seenIDs[assigned[i].ID]; dup {
			c.release(reserved)
			return 0, fmt.Errorf("server: collection %q: duplicate record ID %d", c.name, assigned[i].ID)
		}
		c.seenIDs[assigned[i].ID] = struct{}{}
		reserved = append(reserved, assigned[i].ID)
	}

	if err := c.apply(ctx, c.split(assigned, nil), func() (uint64, error) { return c.log.Append(assigned) }); err != nil {
		c.release(reserved)
		return 0, err
	}
	c.dim.Store(int64(dim)) // fixed by the first write, the same ever after
	c.setAttrs(assigned)
	return c.applied(len(assigned), 0), nil
}

// sampleHashes samples an alsh collection's hash functions for vectors
// of dimension dim while no write has fixed the dimension yet — a write
// that then fails leaves no shard indexing a row, so the next one may
// sample afresh — and leaves them alone ever after. Callers hold
// ingestMu.
func (c *Collection) sampleHashes(dim int) error {
	if c.spec.kind() != KindALSH || c.dim.Load() != 0 {
		return nil
	}
	hashes, err := newALSHHashes(c.spec, dim, c.seed)
	if err != nil {
		return fmt.Errorf("server: collection %q: %w", c.name, err)
	}
	c.hashes.Store(hashes)
	return nil
}

// hashQueries hashes query rows [lo, hi) of qs into qk once, under the
// alsh hash functions every shard shares, and returns qk — or nil keys
// when the collection has none (another kind, or no row yet). qs must
// have the collection's dimension. ctx is polled first, so an expired
// request hashes nothing.
func (c *Collection) hashQueries(ctx context.Context, qk *lsh.QueryKeys, qs *flat.Store, lo, hi int, unsigned bool) (*lsh.QueryKeys, error) {
	hashes := c.hashes.Load()
	if hashes == nil {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hashes.HashQueries(qk, qs, lo, hi, c.spec.probe(unsigned))
	return qk, nil
}

// split partitions a write by home shard: each record of recs is
// appended, and each ID of kill tombstoned, on the shard its ID maps to.
func (c *Collection) split(recs []store.Record, kill []int) []shardWrite {
	parts := make([]shardWrite, len(c.shards))
	for _, id := range kill {
		w := &parts[c.shardFor(id)]
		w.kill = append(w.kill, id)
	}
	for _, r := range recs {
		w := &parts[c.shardFor(r.ID)]
		w.ids = append(w.ids, r.ID)
		w.vs = append(w.vs, r.Vec)
	}
	return parts
}

// apply is the write step ingest, upsert and delete share, under
// ingestMu. Phase 1 prepares the next snapshot of every shard parts
// touches, in parallel on the shard-owner goroutines, publishing
// nothing. The phase is the write's index work — an append's extend or
// rebuild, a tombstone's re-mask — so it is timed as the index_build
// stage, and a traced request gets an index_build span whose extend and
// rebuild attributes count the shards that grew their index and those
// that rebuilt it (a re-mask is neither). Then logWrite appends the
// write's one frame to the WAL, if the collection has one: the write
// must be durable (per the fsync policy) before any of it becomes
// visible, so a crash can never lose a write that a reader — or the
// response — has observed. Phase 2 commits every prepared snapshot,
// which the caller publishes together (applied). A failed build or WAL
// append commits nothing, so the write leaves no trace.
func (c *Collection) apply(ctx context.Context, parts []shardWrite, logWrite func() (uint64, error)) error {
	start := time.Now()
	sp := trace.FromContext(ctx).StartSpan("index_build")
	hashes := c.hashes.Load()
	snaps := make([]*shardSnap, len(c.shards))
	err := c.eachShard(func(si int) (err error) {
		if w := parts[si]; len(w.kill) > 0 || len(w.ids) > 0 {
			snaps[si], err = c.shards[si].prepare(c.spec, hashes, w, sp)
		}
		return err
	})
	sp.End()
	c.observeStage("index_build", time.Since(start))
	if err != nil {
		return fmt.Errorf("server: collection %q: index build: %w", c.name, err)
	}
	if c.log != nil {
		wstart := time.Now()
		if _, err := logWrite(); err != nil {
			return c.walAppendFailed(err)
		}
		c.observeStage("wal_append", time.Since(wstart))
	}
	for si, snap := range snaps {
		if snap != nil {
			c.shards[si].commit(snap, false)
		}
	}
	return nil
}

// eachShard runs fn for every shard index, in parallel, and returns the
// first shard's error.
func (c *Collection) eachShard(fn func(si int) error) error {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for si := range c.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[si] = fn(si)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// AutoID marks a record whose ID the collection assigns at ingest.
const AutoID = -1 << 62

// Upsert inserts or replaces records by ID: a live ID gets its vector
// and attributes overwritten, an unknown (or deleted) ID is inserted.
// Every record must carry an explicit ID — AutoID has nothing to
// address — and a batch must not name the same ID twice (the intended
// final state would be ambiguous). Replacement tombstones the old row
// in its shard and appends the new one, so the change is one WAL
// frame, an index extension (or, on normscan once per chunk appended,
// rebuild) per touched shard as in Ingest, and one atomic
// snapshot swap; the space held by replaced rows is reclaimed by
// background compaction. All-or-nothing like Ingest. Returns the new
// version.
func (c *Collection) Upsert(recs []store.Record) (uint64, error) {
	return c.upsert(context.Background(), recs)
}

// upsert is Upsert under the caller's context (see ingest).
func (c *Collection) upsert(ctx context.Context, recs []store.Record) (uint64, error) {
	if len(recs) == 0 {
		return c.Version(), nil
	}
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	dim, err := c.admit(recs)
	if err != nil {
		return 0, err
	}
	inBatch := make(map[int]struct{}, len(recs))
	for _, r := range recs {
		if r.ID == AutoID {
			return 0, fmt.Errorf("server: collection %q: upsert requires explicit record IDs", c.name)
		}
		if _, dup := inBatch[r.ID]; dup {
			return 0, fmt.Errorf("server: collection %q: duplicate record ID %d in upsert batch", c.name, r.ID)
		}
		inBatch[r.ID] = struct{}{}
	}

	// A live ID's row is tombstoned and the record appended anew; an ID
	// new to the collection is reserved, and a failed batch releases
	// exactly those (IDs that were already live stay live).
	var kill, reserved []int
	for _, r := range recs {
		if _, ok := c.seenIDs[r.ID]; ok {
			kill = append(kill, r.ID)
		} else {
			c.seenIDs[r.ID] = struct{}{}
			reserved = append(reserved, r.ID)
		}
	}
	if err := c.apply(ctx, c.split(recs, kill), func() (uint64, error) { return c.log.AppendUpsert(recs) }); err != nil {
		c.release(reserved)
		return 0, err
	}
	c.dim.Store(int64(dim))
	c.setAttrs(recs)
	version := c.applied(len(reserved), len(kill))
	c.maybeCompact()
	return version, nil
}

// Delete removes records by ID. Unknown IDs are no-ops (the count of
// actually-removed records is returned alongside the version, which
// only advances when something was removed). The rows are tombstoned
// — scans skip them block-wise immediately — and their space is
// reclaimed by background compaction.
func (c *Collection) Delete(ids []int) (uint64, int, error) {
	if len(ids) == 0 {
		return c.Version(), 0, nil
	}
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	if _, err := c.admit(nil); err != nil {
		return 0, 0, err
	}
	// Keep only IDs that are currently live, deduplicated, in request
	// order: the WAL frame then records exactly what changed.
	present := make([]int, 0, len(ids))
	seen := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		if _, ok := c.seenIDs[id]; ok {
			present = append(present, id)
		}
	}
	if len(present) == 0 {
		return c.Version(), 0, nil
	}

	if err := c.apply(context.Background(), c.split(nil, present), func() (uint64, error) { return c.log.AppendDelete(present) }); err != nil {
		return 0, 0, err
	}
	for _, id := range present {
		delete(c.seenIDs, id)
		delete(c.attrs, id)
	}
	version := c.applied(-len(present), len(present))
	c.maybeCompact()
	return version, len(present), nil
}

// deadTotal sums tombstoned and total rows across the shards.
func (c *Collection) deadTotal() (dead, rows int) {
	for _, sh := range c.shards {
		sn := sh.snap.Load()
		dead += sn.dead.Count()
		rows += len(sn.ids)
	}
	return dead, rows
}

// maybeCompact starts a background compaction when tombstoned rows
// exceed the trigger (compactMin dead rows and compactFrac of all
// rows) and none is already running. Reports whether one was started.
func (c *Collection) maybeCompact() bool {
	if c.compactFrac < 0 {
		return false
	}
	dead, rows := c.deadTotal()
	if dead < c.compactMin || dead == 0 || float64(dead) < c.compactFrac*float64(rows) {
		return false
	}
	if !c.compacting.CompareAndSwap(false, true) {
		return false
	}
	go func() {
		defer c.compacting.Store(false)
		if err := c.compact(); err != nil {
			slog.Error("server: compaction failed", "collection", c.name, "error", err)
		}
	}()
	return true
}

// compact rewrites every tombstone-carrying shard to live rows only —
// fresh store, rebuilt index, no bitmap — and then
// checkpoints the WAL into a segment, so the on-disk state is rewritten
// without the deleted rows too. Searches never block: they keep
// reading the old snapshots until the atomic swap. Writers are held
// out (ingestMu) during the rebuild, exactly like an ingest of
// comparable size.
func (c *Collection) compact() error {
	c.ingestMu.Lock()
	if c.closed {
		c.ingestMu.Unlock()
		return nil
	}
	hashes := c.hashes.Load()
	snaps := make([]*shardSnap, len(c.shards))
	if err := c.eachShard(func(si int) (err error) {
		snaps[si], err = c.shards[si].prepareCompact(c.spec, hashes)
		return err
	}); err != nil {
		c.ingestMu.Unlock()
		return err
	}
	for si, snap := range snaps {
		if snap != nil {
			c.shards[si].commit(snap, true)
		}
	}
	// The same records: the version stands, the rows are renumbered, so
	// the notes go.
	old := c.view.Load()
	c.notes, c.noteUnits = nil, 0
	c.publish(old.version, old.epoch+1, nil)
	c.ingestMu.Unlock()
	c.compactions.Add(1)
	// The segment write reuses the checkpointer's rotate/retain
	// machinery; persistSnapshot re-takes ingestMu itself, which is why
	// the lock must be released first. It gathers only live rows, so the
	// new segment sheds every tombstoned one.
	if c.log != nil {
		return c.log.Checkpoint(c.persistSnapshot)
	}
	return nil
}

// walFsyncLag reports the collection WAL's fsync lag for /metrics;
// zero for an in-memory collection.
func (c *Collection) walFsyncLag() time.Duration {
	c.ingestMu.Lock()
	lg := c.log
	c.ingestMu.Unlock()
	if lg == nil {
		return 0
	}
	return lg.FsyncLag()
}

// observeLatency records one served query's wall time in both latency
// sinks: the windowed ring behind /stats and the cumulative histogram
// behind /metrics.
func (c *Collection) observeLatency(d time.Duration) {
	c.lat.observe(d)
	c.hist.observe(d)
}

// indexBuilds is a collection's write amplification as counters: how
// many shard index builds extended the previous snapshot's index, how
// many rebuilt it, and the rows they copied — what a traced write's
// index_build span says, summed, and fed whether or not anything is
// traced.
type indexBuilds struct {
	extend, rebuild, rowsCopied atomic.Int64
}

// record counts one shard's index build; how is "extend" or "rebuild".
// A nil receiver drops it.
func (b *indexBuilds) record(how string, copied int) {
	if b == nil {
		return
	}
	if how == "rebuild" {
		b.rebuild.Add(1)
	} else {
		b.extend.Add(1)
	}
	b.rowsCopied.Add(int64(copied))
}

// observeStage forwards one write-path stage duration (index_build,
// wal_append, wal_fsync, checkpoint) to the server's per-stage
// histograms; a collection without an owner drops it. Only touches
// atomics, so it is safe under the persist log's mutex.
func (c *Collection) observeStage(stage string, d time.Duration) {
	if c.stageObs != nil {
		c.stageObs(stage, d)
	}
}

// SearchOne answers a single top-k query: the search executor's tile of
// one (see batch.go), with no cache and no admission gate. pool is
// required: the shards are scanned on it in as many groups as it has
// workers, at most one a shard, each group's shards in turn; a shard's scan
// runs on one core, so a one-shard collection answers on one core.
//
// ctx carries the request deadline; the shard scans poll it per row
// block, so a cancelled query stops within one block and returns ctx's
// error. A nil ctx means no deadline.
func (c *Collection) SearchOne(ctx context.Context, pool *Pool, q vec.Vector, k int, unsigned bool) ([]Hit, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var res [1]SearchResult
	c.search(ctx, pool, nil, []vec.Vector{q}, SearchOpts{K: k, Unsigned: unsigned}, res[:])
	return res[0].Hits, res[0].Err
}

// vectorBytes reports the resident vector payload per storage
// precision as the shards hold it allocated — chunk capacity, so
// tombstoned rows and the unused tail of each store's open chunk
// count: the f64 rows once per shard — the store, or a normscan shard's
// norm-sorted runs, which are its only copy — and a quantized tier's
// compact mirror beside them.
func (c *Collection) vectorBytes() map[string]int64 {
	vb := map[string]int64{PrecisionF64: 0}
	mirror := c.spec.precision()
	if mirror != PrecisionF64 {
		vb[mirror] = 0
	}
	for _, sn := range c.view.Load().snaps {
		if sn.fs != nil {
			vb[PrecisionF64] += sn.fs.AllocatedBytes()
		}
		// An exact f64 shard scans sn.fs itself, and a normscan shard,
		// which has no fs, its view: each holds its rows once.
		if ix, ok := sn.index.(*flatIndex); ok && (mirror != PrecisionF64 || sn.fs == nil) {
			vb[mirror] += ix.view.AllocatedBytes()
		}
	}
	return vb
}

// statsSnapshot renders the collection for /stats: its shard rows and
// version from one pinned view.
func (c *Collection) statsSnapshot() CollectionStats {
	health, reason := c.healthInfo()
	view := c.view.Load()
	cs := CollectionStats{
		Dim:           int(c.dim.Load()),
		Records:       c.Len(),
		Compactions:   c.compactions.Load(),
		Compacting:    c.compacting.Load(),
		Version:       view.version,
		Index:         c.spec.kind(),
		Precision:     c.spec.precision(),
		VectorBytes:   c.vectorBytes(),
		Queries:       c.queries.Load(),
		Latency:       c.lat.summary(),
		Health:        health.String(),
		HealthReason:  reason,
		Repairs:       c.repairs.Load(),
		Scrubs:        c.scrubs.Load(),
		ScrubErrors:   c.scrubErrors.Load(),
		LastScrubUnix: c.lastScrub.Load(),
		Shards:        make([]ShardStats, len(c.shards)),
	}
	for i, sh := range c.shards {
		sn := view.snaps[i]
		dead := sn.dead.Count()
		size := len(sn.ids)
		cs.Shards[i] = ShardStats{
			ID:         i,
			Records:    size,
			Live:       size - dead,
			Tombstoned: dead,
			Queries:    sh.queries.Load(),
		}
		if ix, ok := sn.index.(*flatIndex); ok && ix.view.Sorted() {
			cs.Shards[i].Runs = ix.view.Runs()
		}
		cs.Tombstoned += dead
	}
	return cs
}

// close stops the shard-owner goroutines. It serializes with Ingest
// through ingestMu, so an in-flight ingest finishes before the ops
// channels close and later ingests fail cleanly instead of panicking.
// Searches keep working against the final snapshots.
func (c *Collection) close() {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	// Stop the repair probe and the scrubber. Neither holds ingestMu
	// while waiting on bg, so closing it under the lock cannot deadlock;
	// an in-flight repair checkpoint finishes against the still-open log
	// (closeLog/removeLog run after close and drain it on ckptMu).
	c.bgOnce.Do(func() { close(c.bg) })
	for _, sh := range c.shards {
		sh.close()
	}
}
