package persist

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errfs"
	"repro/internal/store"
)

// Log is one collection's durable write-ahead log plus its segment
// snapshots. Appends are safe for concurrent use; checkpoints run on a
// background goroutine and never block appends beyond one file
// rotation.
type Log struct {
	dir string
	pol Policy
	// fs is the filesystem every operation goes through (pol.FS after
	// defaulting): the real OS in production, a fault injector in tests.
	fs errfs.FS

	mu       sync.Mutex
	f        errfs.File // active WAL file
	active   string     // base name of f
	buf      []byte     // frame scratch, reused across appends
	lastSeq  uint64
	walBytes int64
	// prec selects the segment payload encoding (zero value = f64, the
	// legacy format-1 layout). The owning collection sets it right after
	// Create/Open, before the first checkpoint can run.
	prec Precision
	// segBytes is the newest segment's size. A checkpoint rewrites the
	// whole collection, so the trigger scales with it (see
	// ShouldCheckpoint) to keep write amplification bounded instead of
	// re-serializing a huge collection every CheckpointBytes of WAL.
	segBytes int64
	dirty    bool  // unsynced appends (interval/never modes)
	failed   error // sticky write/sync failure: all later appends fail
	closed   bool
	// dirtySince is when the oldest currently-unsynced append landed;
	// zero while clean. FsyncLag exposes it so operators can watch the
	// window of acknowledged-but-not-yet-durable writes.
	dirtySince time.Time

	// ckptBusy gives MaybeCheckpoint its non-blocking single-flight
	// skip; ckptMu serializes the checkpoint body itself and lets
	// Close drain an in-flight checkpoint before the caller deletes
	// the directory out from under writeSegment.
	ckptBusy atomic.Bool
	ckptMu   sync.Mutex
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// lock is the exclusive advisory lock on the directory, held for
	// the Log's lifetime so a second process (e.g. an old server still
	// draining during a restart) can never truncate or interleave
	// writes into the active WAL.
	lock *os.File

	// faultHook, when set (SetFaultHook), is invoked on its own
	// goroutine whenever a failure latches or a background checkpoint
	// fails — the serving layer's signal to degrade the collection
	// instead of discovering the breakage on the next mutation.
	faultHook atomic.Value // func(error)

	// observer, when set (SetObserver), receives the duration of every
	// WAL fsync and completed checkpoint — the serving layer feeds them
	// into its per-stage latency histograms. Synchronous and cheap:
	// called with mu held, so implementations must only record.
	observer atomic.Value // func(stage string, d time.Duration)
}

// Recovered is what Open rebuilt from disk.
type Recovered struct {
	Manifest Manifest
	// Recs is the longest durable prefix of acknowledged writes:
	// the newest valid segment's records followed by the replayed WAL
	// tail, in original ingest order.
	Recs []store.Record
	// LastSeq is the WAL sequence number of the last recovered batch.
	LastSeq uint64
}

// Create initializes a fresh collection directory: manifest + empty
// WAL. It refuses a directory that already holds a collection.
func Create(dir string, m Manifest, pol Policy) (*Log, error) {
	pol.withDefaults()
	if err := pol.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Log, error) {
		unlockDir(lock)
		return nil, err
	}
	if HasManifest(dir) {
		return fail(fmt.Errorf("persist: %s already holds a collection", dir))
	}
	// A manifest-less directory can still hold WAL/segment leftovers
	// from an interrupted removal (Create writes the manifest before
	// the first WAL, so a crashed Create cannot leave them). A stale
	// high-seq segment adopted into a fresh collection would shadow
	// every new WAL frame at recovery — serving the dropped
	// collection's data — so scrub leftovers before creating.
	if err := removeLogFiles(pol.FS, dir); err != nil {
		return fail(err)
	}
	if err := writeManifest(pol.FS, dir, m); err != nil {
		return fail(err)
	}
	l := &Log{dir: dir, pol: pol, fs: pol.FS, lock: lock}
	if err := l.startWAL(1); err != nil {
		// Don't leave a manifest behind: it would make every retry of
		// this collection name fail with "already holds a collection"
		// even after the (possibly transient) cause clears.
		if rerr := pol.FS.Remove(filepath.Join(dir, manifestName)); rerr != nil {
			slog.Warn("persist: removing manifest after failed create", "dir", dir, "error", rerr)
		}
		return fail(err)
	}
	l.startSyncer()
	return l, nil
}

// startWAL creates (or truncates) the WAL file whose first frame will
// carry firstSeq and makes it the active file. Callers hold mu or have
// exclusive access.
func (l *Log) startWAL(firstSeq uint64) error {
	name := walName(firstSeq)
	f, err := l.fs.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		return err
	}
	// The file and — crucially — its directory entry must be durable in
	// every mode: the interval syncer only fsyncs the file, so without
	// a dirent fsync here a power failure could drop the whole WAL
	// file, losing far more than the mode's documented window. File
	// creation is rare (collection create + checkpoint rotation), so
	// the two fsyncs are not on the ingest path.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.active = name
	l.walBytes = int64(len(walMagic))
	l.dirty = false
	return nil
}

// Open recovers a collection directory written by Create/Append and
// reopens its WAL for appending. Recovery loads the newest segment
// whose checksum verifies, replays WAL frames above it until the first
// truncated/corrupt/out-of-sequence frame, and truncates the active
// WAL back to the last good frame so new appends extend the durable
// prefix. It never returns records from a frame or segment that failed
// verification.
func Open(dir string, pol Policy) (*Log, *Recovered, error) {
	pol.withDefaults()
	m, err := readManifest(pol.FS, dir)
	if err != nil {
		return nil, nil, err
	}
	// The lock must be held before recovery mutates anything (tail
	// truncation, header rewrites): a second process opening the same
	// directory while the first still appends would corrupt
	// acknowledged writes.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Log, *Recovered, error) {
		unlockDir(lock)
		return nil, nil, err
	}

	// Newest valid segment wins; older ones are fallbacks kept for
	// exactly this case (a torn newest segment).
	segs, err := listSeqFiles(pol.FS, dir, segPrefix, segSuffix)
	if err != nil {
		return fail(err)
	}
	var (
		segSeq   uint64
		segBytes int64
		recs     []store.Record
	)
	for i := len(segs) - 1; i >= 0; i-- {
		seq, srecs, n, err := readSegment(pol.FS, dir, segs[i])
		if err != nil {
			slog.Warn("persist: skipping unreadable segment", "dir", dir, "segment", segs[i], "error", err)
			continue
		}
		segSeq, recs, segBytes = seq, srecs, n
		break
	}

	// Replay WAL files in order. Frames at or below segSeq are already
	// covered by the segment; above it they must arrive consecutively.
	wals, err := listSeqFiles(pol.FS, dir, walPrefix, walSuffix)
	if err != nil {
		return fail(err)
	}
	lastSeq := segSeq
	state := newReplayState(recs)
	appendTo := ""        // WAL file new appends should extend
	appendOff := int64(0) // truncation point within appendTo

	for i, first := range wals {
		lastFile := i == len(wals)-1
		name := walName(first)
		if first > lastSeq+1 {
			// The file name pins its first frame's sequence (rotation
			// names the fresh WAL lastSeq+1). A first-seq beyond the
			// recovered prefix is the same unbridgeable gap as a
			// mid-log jump — e.g. a corrupt newest segment whose WAL
			// was already rotated away — even when the file holds no
			// decodable frames yet.
			return fail(fmt.Errorf(
				"persist: %s: wal %s starts at sequence %d but only %d is recovered (a covering segment is missing or corrupt)",
				dir, name, first, lastSeq))
		}
		data, err := pol.FS.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fail(err)
		}
		sc := scanWAL(data)
		good := int64(0)
		if sc.magicOK {
			good = int64(len(walMagic))
		}
		for _, b := range sc.batches {
			if b.seq > segSeq && b.seq != lastSeq+1 {
				// A sequence gap means acknowledged batches are missing
				// — e.g. the segment that covered them failed its
				// checksum and an older one was loaded instead. Refuse
				// to open rather than silently serving (and truncating
				// away) a state no client ever observed; the operator
				// can restore the missing segment and reopen.
				return fail(fmt.Errorf(
					"persist: %s: wal sequence gap: frame %d follows %d (a covering segment is missing or corrupt)",
					dir, b.seq, lastSeq))
			}
			if b.seq > segSeq {
				state.apply(b)
				lastSeq = b.seq
			}
			// Frames at or below segSeq are already compacted into the
			// segment; replaying them would double-apply. Either way
			// the frame itself is well-formed, so the truncation point
			// moves past it.
			good = b.end
		}
		if sc.err != nil && !lastFile {
			// Only the newest WAL file may have a torn tail (rotation
			// syncs a file before it stops being the append target).
			// Damage in an older file means frames beyond it exist but
			// are unreachable — same refusal as a sequence gap, and
			// nothing on disk is modified.
			return fail(fmt.Errorf("persist: %s: %s is damaged mid-log: %w", dir, name, sc.err))
		}
		appendTo, appendOff = name, good
	}

	l := &Log{dir: dir, pol: pol, fs: pol.FS, lastSeq: lastSeq, segBytes: segBytes, lock: lock}
	if appendTo == "" {
		if err := l.startWAL(lastSeq + 1); err != nil {
			return fail(err)
		}
	} else if err := l.reopenWAL(appendTo, appendOff); err != nil {
		return fail(err)
	}
	l.startSyncer()
	return l, &Recovered{Manifest: m, Recs: state.finish(), LastSeq: lastSeq}, nil
}

// reopenWAL opens an existing WAL file for appending, truncating any
// torn or corrupt tail (everything past goodOffset).
func (l *Log) reopenWAL(name string, goodOffset int64) error {
	path := filepath.Join(l.dir, name)
	f, err := l.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if goodOffset < int64(len(walMagic)) {
		// Header itself was torn: rewrite it.
		goodOffset = int64(len(walMagic))
		if err := f.Truncate(0); err != nil {
			f.Close()
			return err
		}
		if _, err := f.Write(walMagic[:]); err != nil {
			f.Close()
			return err
		}
	} else if err := f.Truncate(goodOffset); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(goodOffset, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.active = name
	l.walBytes = goodOffset
	return nil
}

// Append writes one ingest batch as a single WAL frame and returns its
// sequence number. Under FsyncAlways the frame is durable when Append
// returns; under FsyncInterval within Policy.Interval; under FsyncNever
// whenever the OS flushes it. A write or sync failure is sticky: the
// log refuses further appends so the in-memory state can never run
// ahead of a broken disk.
func (l *Log) Append(recs []store.Record) (uint64, error) {
	return l.appendFrame(func(buf []byte, seq uint64) []byte {
		return encodeBatch(buf, seq, opAppend, recs)
	})
}

// AppendUpsert writes one insert-or-replace batch as a single upsert
// frame, with Append's durability contract.
func (l *Log) AppendUpsert(recs []store.Record) (uint64, error) {
	return l.appendFrame(func(buf []byte, seq uint64) []byte {
		return encodeBatch(buf, seq, opUpsert, recs)
	})
}

// AppendDelete writes one id-removal batch as a single delete frame,
// with Append's durability contract.
func (l *Log) AppendDelete(ids []int) (uint64, error) {
	return l.appendFrame(func(buf []byte, seq uint64) []byte {
		return encodeDelete(buf, seq, ids)
	})
}

// appendFrame writes one frame whose payload encode appends to buf.
func (l *Log) appendFrame(encode func(buf []byte, seq uint64) []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, fmt.Errorf("persist: log failed earlier: %w", l.failed)
	}
	seq := l.lastSeq + 1
	buf := append(l.buf[:0], make([]byte, frameHeaderSize)...)
	buf = encode(buf, seq)
	buf, err := finishFrame(buf, frameHeaderSize)
	if err != nil {
		return 0, err
	}
	l.buf = buf[:0]
	if _, err := l.f.Write(buf); err != nil {
		l.fail(err)
		return 0, err
	}
	if l.pol.Mode == FsyncAlways {
		if err := l.timedSync(); err != nil {
			l.fail(err)
			return 0, err
		}
	} else {
		if !l.dirty {
			l.dirtySince = time.Now()
		}
		l.dirty = true
	}
	l.lastSeq = seq
	l.walBytes += int64(len(buf))
	return seq, nil
}

// fail marks the log broken after a failed append write/sync and
// best-effort truncates the file back to the last committed frame:
// the caller reports the batch as rejected (its IDs are rolled back),
// so leaving a complete frame in the page cache would let the "failed"
// batch silently resurrect at the next recovery. Callers hold mu.
func (l *Log) fail(err error) {
	l.failed = err
	l.notifyFault(err)
	if terr := l.f.Truncate(l.walBytes); terr != nil {
		slog.Error("persist: truncating torn append failed", "dir", l.dir, "error", terr)
		return
	}
	if _, serr := l.f.Seek(l.walBytes, 0); serr != nil {
		slog.Error("persist: seeking after torn append failed", "dir", l.dir, "error", serr)
	}
}

// SetFaultHook installs fn to be called — on a fresh goroutine, so no
// lock ordering binds the callee — whenever a write/sync failure
// latches or a checkpoint fails. Install it before the log
// starts serving appends.
func (l *Log) SetFaultHook(fn func(error)) {
	l.faultHook.Store(fn)
}

// SetObserver installs fn to receive the duration of every WAL fsync
// ("wal_fsync") and completed checkpoint ("checkpoint"). fn is called
// synchronously, possibly with the log's mutex held — it must only
// record (an atomic histogram update) and return.
func (l *Log) SetObserver(fn func(stage string, d time.Duration)) {
	l.observer.Store(fn)
}

// observe reports one stage duration to the observer, if installed.
func (l *Log) observe(stage string, d time.Duration) {
	if fn, ok := l.observer.Load().(func(string, time.Duration)); ok && fn != nil {
		fn(stage, d)
	}
}

// timedSync runs l.f.Sync() and reports its duration to the observer.
func (l *Log) timedSync() error {
	start := time.Now()
	err := l.f.Sync()
	if err == nil {
		l.observe("wal_fsync", time.Since(start))
	}
	return err
}

// notifyFault fans a failure out to the fault hook. Safe to call with
// mu held (the hook runs on its own goroutine).
func (l *Log) notifyFault(err error) {
	if h, ok := l.faultHook.Load().(func(error)); ok && h != nil {
		go h(err)
	}
}

// Failed reports the latched write/sync failure, if any.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Sync forces any buffered appends to disk (used at shutdown and by
// the interval syncer).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed || l.f == nil {
		return nil
	}
	if l.failed != nil {
		return l.failed
	}
	if !l.dirty {
		return nil
	}
	if err := l.timedSync(); err != nil {
		l.failed = err
		l.notifyFault(err)
		return err
	}
	l.dirty = false
	l.dirtySince = time.Time{}
	return nil
}

// Repair attempts to clear a latched write/sync failure so the log can
// accept appends again: it provably removes any torn frame beyond the
// committed prefix (truncate + seek + sync of the active file — each
// must succeed, or a complete-but-rejected frame could resurrect at
// recovery), then rotates to a fresh WAL file, leaving the committed
// frames behind in the old one. Returns nil when the latch is clear;
// a non-nil error means the disk is still refusing writes and the
// caller should back off and retry.
func (l *Log) Repair() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed == nil {
		return nil
	}
	// After a failed rotation (checkpoint) there is no active file to trim.
	if l.f != nil {
		if err := l.f.Truncate(l.walBytes); err != nil {
			return err
		}
		if _, err := l.f.Seek(l.walBytes, 0); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	// Rotation gives appends a fresh file — the safe choice after an
	// EIO that may be pinned to bad blocks under the old one. The old
	// file keeps frames <= lastSeq and the new file's name pins its
	// first frame to lastSeq+1, exactly like a checkpoint rotation, so
	// recovery replays them in order. A failed rotation leaves the
	// (now provably clean) old file active and the latch set.
	old := l.f
	if err := l.startWAL(l.lastSeq + 1); err != nil {
		return err
	}
	if old != nil && old != l.f {
		if err := old.Close(); err != nil {
			slog.Warn("persist: closing rotated wal after repair failed", "dir", l.dir, "error", err)
		}
	}
	l.failed = nil
	l.dirty = false
	l.dirtySince = time.Time{}
	return nil
}

// FsyncLag returns how long the oldest acknowledged-but-unsynced
// append has been waiting for an fsync, or zero when everything
// acknowledged is durable. Under FsyncAlways it is always zero; under
// the interval policy it normally stays below Policy.Interval — a
// growing lag means the disk is not keeping up.
func (l *Log) FsyncLag() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dirty || l.dirtySince.IsZero() {
		return 0
	}
	return time.Since(l.dirtySince)
}

// SetPrecision selects the storage precision for segments this log
// writes from now on. Decoding is self-describing (the segment header
// carries the precision), so changing it never invalidates existing
// segments — but the serving layer keeps it fixed per collection.
func (l *Log) SetPrecision(p Precision) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.prec = p
}

// LastSeq returns the sequence number of the last appended batch.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// WALBytes returns the active WAL file's current size.
func (l *Log) WALBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.walBytes
}

// ShouldCheckpoint reports whether the WAL tail has outgrown the
// checkpoint threshold. Because a checkpoint re-serializes the whole
// collection, the effective threshold is max(CheckpointBytes,
// newest-segment-size/4): on a collection far larger than the
// configured threshold, compaction waits for a WAL tail worth ≥ 25%
// of a full rewrite, bounding steady-state write amplification at
// ~5× while small collections keep the configured responsiveness.
func (l *Log) ShouldCheckpoint() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	threshold := l.pol.CheckpointBytes
	if scaled := l.segBytes / 4; scaled > threshold {
		threshold = scaled
	}
	return l.walBytes >= threshold && l.lastSeq > 0
}

// MaybeCheckpoint starts a background checkpoint when the WAL tail
// exceeds the policy threshold and no checkpoint is already running.
// snapshot must return a coherent (records, lastSeq) pair: every batch
// with sequence <= lastSeq included, nothing else. Reports whether a
// checkpoint was started.
func (l *Log) MaybeCheckpoint(snapshot func() ([]store.Record, uint64)) bool {
	if !l.ShouldCheckpoint() {
		return false
	}
	if !l.ckptBusy.CompareAndSwap(false, true) {
		return false
	}
	go func() {
		defer l.ckptBusy.Store(false)
		if err := l.Checkpoint(snapshot); err != nil && !errors.Is(err, ErrClosed) {
			slog.Error("persist: background checkpoint failed", "dir", l.dir, "error", err)
		}
	}()
	return true
}

// Checkpoint compacts the WAL into a segment: rotate to a fresh WAL
// file, snapshot the published records, write them as a segment, then
// delete the rotated WAL files (now fully covered by the segment) and
// all but the two newest segments. Concurrent checkpoints serialize
// on ckptMu. A failure goes to the fault hook: it may not have latched
// the append path (e.g. the segment write ran out of disk), but the
// collection's durability contract is broken either way.
func (l *Log) Checkpoint(snapshot func() ([]store.Record, uint64)) error {
	start := time.Now()
	err := l.checkpoint(snapshot)
	if err == nil {
		l.observe("checkpoint", time.Since(start))
	} else if !errors.Is(err, ErrClosed) {
		l.notifyFault(err)
	}
	return err
}

func (l *Log) checkpoint(snapshot func() ([]store.Record, uint64)) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	// Make the rotated file durable before it becomes deletable, then
	// swap in a fresh one. Appends continue into the new file while
	// the segment is being written; replay skips any of their
	// sequences the segment happens to cover.
	if err := l.f.Sync(); err != nil {
		l.failed = err
		l.mu.Unlock()
		return err
	}
	err := l.f.Close()
	if err == nil {
		err = l.startWAL(l.lastSeq + 1)
	}
	if err != nil {
		l.f = nil // synced and closed whole: Repair starts the next file
		l.failed = err
		l.mu.Unlock()
		return err
	}
	active := l.active
	prec := l.prec
	l.mu.Unlock()

	// snapshot acquires the owner's ingest lock, so it observes every
	// batch appended before the rotation (appenders hold that lock
	// across Append and publish) — its lastSeq is >= the rotated
	// file's last frame, making the rotated file safe to delete.
	recs, seq := snapshot()
	if seq == 0 {
		return nil
	}
	// Re-check after the (potentially slow) snapshot: a Close that
	// landed in between means the caller may be about to delete the
	// directory (Drop), so don't rename a fresh segment into it.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.mu.Unlock()
	n, err := writeSegment(l.fs, l.dir, seq, recs, prec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.segBytes = n
	l.mu.Unlock()
	return l.cleanup(active)
}

// cleanup removes WAL files other than the active one (all fully
// covered by the just-written segment) and prunes segments beyond the
// two newest.
func (l *Log) cleanup(active string) error {
	wals, err := listSeqFiles(l.fs, l.dir, walPrefix, walSuffix)
	if err != nil {
		return err
	}
	var first error
	for _, w := range wals {
		if name := walName(w); name != active {
			if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil && first == nil {
				first = err
			}
		}
	}
	segs, err := listSeqFiles(l.fs, l.dir, segPrefix, segSuffix)
	if err != nil {
		if first == nil {
			first = err
		}
		return first
	}
	for i := 0; i+2 < len(segs); i++ {
		if err := l.fs.Remove(filepath.Join(l.dir, segName(segs[i]))); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ScrubSegments re-reads every segment file and verifies its magic and
// trailing whole-file CRC, reporting how many were checked and the
// first mismatch. Segment files are immutable once renamed into place,
// so a scrub mismatch means on-disk corruption (bit rot, torn rename
// surfaced by a crashy filesystem) — the serving layer degrades the
// collection on it. A file that vanishes mid-scrub was pruned by a
// concurrent checkpoint and is skipped.
func (l *Log) ScrubSegments() (checked int, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	l.mu.Unlock()
	segs, err := listSeqFiles(l.fs, l.dir, segPrefix, segSuffix)
	if err != nil {
		return 0, err
	}
	for _, seq := range segs {
		data, err := l.fs.ReadFile(filepath.Join(l.dir, segName(seq)))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return checked, err
		}
		if err := verifySegmentData(data); err != nil {
			return checked, fmt.Errorf("persist: %s: segment %d: %w", l.dir, seq, err)
		}
		checked++
	}
	return checked, nil
}

// DropCorruptSegments removes segment files that fail verification and
// are older than the newest valid segment — they are worthless as
// recovery fallbacks (their checksum already refuses them) and keeping
// them around keeps the scrubber red forever. The newest segment is
// never removed here even when corrupt: recovery's fallback chain owns
// that case. Serializes with checkpoints so a concurrent cleanup never
// races the removals.
func (l *Log) DropCorruptSegments() (removed int, err error) {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	l.mu.Unlock()
	segs, err := listSeqFiles(l.fs, l.dir, segPrefix, segSuffix)
	if err != nil {
		return 0, err
	}
	newestValid := -1
	for i := len(segs) - 1; i >= 0; i-- {
		data, rerr := l.fs.ReadFile(filepath.Join(l.dir, segName(segs[i])))
		if rerr == nil && verifySegmentData(data) == nil {
			newestValid = i
			break
		}
	}
	var first error
	for i := 0; i < newestValid; i++ {
		data, rerr := l.fs.ReadFile(filepath.Join(l.dir, segName(segs[i])))
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue
			}
			if first == nil {
				first = rerr
			}
			continue
		}
		if verifySegmentData(data) == nil {
			continue
		}
		slog.Warn("persist: dropping corrupt segment", "dir", l.dir, "segment", segs[i], "superseded_by", segs[newestValid])
		if err := l.fs.Remove(filepath.Join(l.dir, segName(segs[i]))); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		removed++
	}
	return removed, first
}

// startSyncer runs the background fsync loop for FsyncInterval.
func (l *Log) startSyncer() {
	if l.pol.Mode != FsyncInterval {
		return
	}
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	go func() {
		defer close(l.done)
		t := time.NewTicker(l.pol.Interval)
		defer t.Stop()
		var lastErr string
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
				// Keep ticking through failures: Repair can clear the
				// latch at any time and appends then need the interval
				// fsync again. Log only on state change to avoid a
				// 10Hz error spray while the latch is set.
				err := l.Sync()
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				if msg != lastErr && msg != "" {
					slog.Error("persist: background fsync failed", "dir", l.dir, "error", err)
				}
				lastErr = msg
			}
		}
	}()
}

func (l *Log) stopSyncer() {
	if l.stop == nil {
		return
	}
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}

// Close flushes and fsyncs the WAL (regardless of mode — shutdown is
// the one moment "never" still deserves durability) and closes the
// file. Idempotent.
func (l *Log) Close() error {
	l.stopSyncer()
	l.mu.Lock()
	alreadyClosed := l.closed
	l.closed = true
	var err error
	if !alreadyClosed {
		// A latched failure means acknowledged writes may never have
		// been fsynced: shutdown must not report success for a log
		// that was silently broken.
		err = l.failed
		if l.f != nil {
			if err == nil {
				err = l.f.Sync()
			}
			if cerr := l.f.Close(); err == nil {
				err = cerr
			}
			l.f = nil
		}
	}
	l.mu.Unlock()
	// Drain any in-flight checkpoint: it re-checks closed before
	// writing its segment, so once this barrier is passed no new
	// files can appear in the directory (Remove relies on this).
	l.ckptMu.Lock()
	l.ckptMu.Unlock()
	if uerr := unlockDir(l.lock); uerr != nil && err == nil {
		err = uerr
	}
	l.lock = nil
	return err
}

// Remove closes the log and deletes the whole collection directory.
func (l *Log) Remove() error {
	err := l.Close()
	if rerr := l.fs.RemoveAll(l.dir); err == nil {
		err = rerr
	}
	return err
}

// Dir returns the collection directory path.
func (l *Log) Dir() string { return l.dir }

// removeLogFiles deletes every WAL, segment and temp file in dir.
func removeLogFiles(fsys errfs.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		_, isWAL := parseSeqName(name, walPrefix, walSuffix)
		_, isSeg := parseSeqName(name, segPrefix, segSuffix)
		if !isWAL && !isSeg && !strings.HasSuffix(name, tmpSuffix) {
			continue
		}
		slog.Info("persist: removing stale file", "dir", dir, "file", name)
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}
