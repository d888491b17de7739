package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errfs"
	"repro/internal/persist"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vec"
)

// Config configures a Server. Zero values select sensible defaults.
type Config struct {
	// DefaultShards is the shard count for collections created without
	// an explicit one (default 4).
	DefaultShards int
	// CacheCapacity bounds the query-result LRU (default 4096 entries;
	// negative disables caching).
	CacheCapacity int
	// Workers sizes the pool that a search's or join's (tile, shard
	// group) tasks run on (default GOMAXPROCS); it also sets how many
	// groups a tile's shards split into.
	Workers int
	// Seed derives per-collection hashing seeds.
	Seed uint64

	// DataDir enables durability: every collection gets a directory
	// under it holding a manifest, a write-ahead log and segment
	// snapshots (see internal/persist). Empty keeps the server purely
	// in-memory. Use Open — not New — for a durable server, so
	// existing collections are recovered before serving starts.
	DataDir string
	// Fsync is the WAL fsync policy: "always", "interval" (default)
	// or "never".
	Fsync string
	// FsyncInterval is the background fsync period for the "interval"
	// policy (default 100ms).
	FsyncInterval time.Duration
	// CheckpointBytes is the WAL size above which a collection's log
	// is compacted into a segment snapshot (default 64 MiB).
	CheckpointBytes int64
	// RecoverMode decides what a boot-time recovery failure does:
	// "strict" (default) fails the whole boot; "quarantine" keeps
	// booting and serves the damaged collection as a 503-with-reason
	// placeholder, its data directory untouched.
	RecoverMode string
	// ScrubInterval is the per-collection background integrity
	// scrubber's period (re-verify segment whole-file CRCs, degrade on
	// mismatch). Zero disables scrubbing.
	ScrubInterval time.Duration
	// FS routes every filesystem operation the server and its
	// collections perform. Nil means the real filesystem; tests and
	// chaos harnesses install an errfs.Faulty to inject disk faults.
	FS errfs.FS

	// CompactFraction triggers background compaction of a collection
	// once tombstoned rows exceed this fraction of all rows (default
	// 0.25; negative disables compaction).
	CompactFraction float64
	// CompactMinDead is the minimum tombstone count before compaction
	// is considered at all (default 1024; negative means any count).
	CompactMinDead int

	// DefaultTimeout bounds queries that arrive without their own
	// deadline (zero means unbounded). Requests carrying an explicit
	// timeout_ms use that instead, even when longer.
	DefaultTimeout time.Duration
	// MaxInflight caps concurrently executing queries per collection;
	// zero or negative disables admission control.
	MaxInflight int
	// MaxQueue caps queries waiting for an admission slot once
	// MaxInflight are running; beyond it queries are shed with
	// ErrOverloaded (HTTP 429). Negative means an unbounded queue.
	MaxQueue int
	// MaxBodyBytes caps the HTTP request body on every endpoint that
	// reads one (default 32 MiB; negative disables the limit).
	MaxBodyBytes int64

	// Tracing enables the per-request tracing plane: every instrumented
	// HTTP request gets a trace (adopting an incoming W3C traceparent),
	// spans are recorded through the pipeline stages, finished traces
	// land in the /debug/requests ring, and trace spans feed the
	// ipsd_stage_seconds histograms. Off (the zero value) the request
	// path carries a nil trace handle, which costs zero allocations.
	Tracing bool
	// TraceBuffer is how many finished traces each route's debug ring
	// retains (default 32).
	TraceBuffer int
	// SlowQueryMS, when positive, logs one structured line — with the
	// full span tree — for every traced request slower than this many
	// milliseconds.
	SlowQueryMS int
}

func (c *Config) defaults() {
	if c.DefaultShards == 0 {
		c.DefaultShards = 4
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 4096
	}
}

// persistPolicy translates the config's durability knobs. The fsync
// mode string must have been validated (Open does; New falls back to
// the default interval mode on a bad string).
func (c *Config) persistPolicy() persist.Policy {
	mode, _ := persist.ParseFsyncMode(c.Fsync)
	return persist.Policy{
		Mode:            mode,
		Interval:        c.FsyncInterval,
		CheckpointBytes: c.CheckpointBytes,
		FS:              c.FS,
	}
}

// fsys returns the filesystem the server itself uses (data-dir
// enumeration, quarantined-directory removal).
func (s *Server) fsys() errfs.FS {
	if s.cfg.FS != nil {
		return s.cfg.FS
	}
	return errfs.OS
}

// ErrUnavailable marks failures that are the server's fault — a WAL
// or disk error, shutdown in progress, or a concurrent drop — rather
// than a malformed request. The HTTP layer maps it to 503 so clients
// and load balancers retry instead of treating it as a 4xx.
var ErrUnavailable = errors.New("server unavailable")

// errInternal marks a failure that is a bug in the server — a panic
// recovered while building a snapshot — rather than anything about the
// request or the disk. The HTTP layer maps it to 500.
var errInternal = errors.New("internal error")

// Server owns the collections, the shared worker pool and the query
// cache. It is safe for concurrent use.
type Server struct {
	cfg  Config
	mu   sync.RWMutex
	cols map[string]*Collection
	// dropping holds names whose Drop is tearing down state outside
	// s.mu; EnsureCollection refuses them so a racing re-create cannot
	// build a fresh data directory that the in-flight Drop then
	// deletes out from under it.
	dropping map[string]struct{}
	// creating holds names being built outside s.mu (collection
	// construction fsyncs the manifest and WAL on a durable server,
	// which must not stall unrelated requests); the channel closes
	// when the attempt finishes, successfully or not.
	creating map[string]chan struct{}
	// created counts creation attempts, feeding per-collection seeds.
	created int
	// gens hands out collection incarnation numbers for cache keys.
	gens   atomic.Uint64
	closed bool
	cache  *queryCache
	pool   *Pool
	joins  atomic.Int64
	start  time.Time
	// traces is the debug-plane registry behind /debug/requests and
	// /debug/trace/{id}; nil when Config.Tracing is off (the nil
	// registry is inert, so call sites never branch).
	traces *trace.Registry
	// stages holds the ipsd_stage_seconds{stage,collection} histograms,
	// fed from trace spans at request finish and from the persist
	// observer (wal_append/wal_fsync/checkpoint, tracing or not).
	stages *stageMetrics
	// slowQuery is the slow-query log threshold (0 disables).
	slowQuery time.Duration
}

// New creates a server. For a durable server (Config.DataDir set) use
// Open instead, so collections persisted by earlier runs are recovered
// before anything is served.
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:       cfg,
		cols:      make(map[string]*Collection),
		dropping:  make(map[string]struct{}),
		creating:  make(map[string]chan struct{}),
		cache:     newQueryCache(cfg.CacheCapacity),
		pool:      NewPool(cfg.Workers),
		start:     time.Now(),
		stages:    newStageMetrics(),
		slowQuery: time.Duration(cfg.SlowQueryMS) * time.Millisecond,
	}
	if cfg.Tracing {
		s.traces = trace.NewRegistry(cfg.TraceBuffer)
	}
	return s
}

// Open creates a server and, when cfg.DataDir is set, recovers every
// collection persisted under it: for each collection directory the
// newest valid segment snapshot is loaded, the WAL tail replayed, the
// index rebuilt from the manifest's spec, and the log reopened so new
// ingests append to it. Under RecoverMode "strict" (the default) boot
// fails — rather than silently serving a subset — if any collection
// directory cannot be recovered; under "quarantine" the damaged
// collection is served as a 503-with-reason placeholder, its directory
// untouched, and the rest of the server boots normally.
func Open(cfg Config) (*Server, error) {
	if _, err := persist.ParseFsyncMode(cfg.Fsync); err != nil {
		return nil, err
	}
	mode, err := ParseRecoverMode(cfg.RecoverMode)
	if err != nil {
		return nil, err
	}
	cfg.RecoverMode = mode
	s := New(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	if err := s.recoverDataDir(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// seedStride spaces per-collection hashing seeds.
const seedStride = 0x100000001b3

// collectionSeed derives the hashing seed for the ordinal-th created
// collection. Durable collections persist the result in their manifest
// so recovery rebuilds approximate (alsh) indexes with the
// original seed no matter what order the data dir enumerates in.
func (s *Server) collectionSeed(ordinal int) uint64 {
	return s.cfg.Seed + uint64(ordinal)*seedStride
}

// noteRecoveredSeed advances the creation counter past a recovered
// manifest's seed, so collections created after this boot never reuse
// a seed a recovered collection pinned (collections dropped in earlier
// lives leave ordinal holes the naive count would refill). Callers
// hold s.mu.
func (s *Server) noteRecoveredSeed(seed uint64) {
	s.created++
	if diff := seed - s.cfg.Seed; diff%seedStride == 0 {
		if ordinal := int(diff / seedStride); ordinal+1 > s.created {
			s.created = ordinal + 1
		}
	}
}

// recoverDataDir rebuilds all collections from cfg.DataDir.
func (s *Server) recoverDataDir() error {
	if err := s.fsys().MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return err
	}
	entries, err := s.fsys().ReadDir(s.cfg.DataDir)
	if err != nil {
		return err
	}
	quarantine := s.cfg.RecoverMode == RecoverQuarantine
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.cfg.DataDir, e.Name())
		if !persist.HasManifest(dir) {
			continue
		}
		lg, rec, err := persist.Open(dir, s.cfg.persistPolicy())
		if err != nil {
			if quarantine {
				s.adoptQuarantined(dir, e.Name(), err)
				continue
			}
			return fmt.Errorf("server: recovering %s: %w", dir, err)
		}
		if err := s.adoptRecovered(lg, rec); err != nil {
			lg.Close()
			if quarantine {
				s.adoptQuarantined(dir, e.Name(), err)
				continue
			}
			return fmt.Errorf("server: recovering %s: %w", dir, err)
		}
	}
	return nil
}

// adoptQuarantined registers a 503-serving placeholder for a
// collection directory that failed recovery. The directory is left
// exactly as recovery found it (forensics, or a fixed binary/disk may
// recover it on the next boot); only an explicit DELETE removes it.
// The collection name comes from the manifest when it is readable,
// else the directory name.
func (s *Server) adoptQuarantined(dir, dirName string, cause error) {
	name := dirName
	if m, err := persist.ReadManifest(dir); err == nil && m.Name != "" {
		name = m.Name
	}
	slog.Warn("server: quarantining collection", "collection", name, "dir", dir, "error", cause)
	c := newQuarantined(name, dir, s.fsys(), cause.Error())
	c.gen = s.gens.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if _, ok := s.cols[name]; ok {
		// Two directories claiming one collection name: keep the one
		// that recovered (or quarantined) first, leave this directory on
		// disk for the operator.
		slog.Warn("server: collection already registered; leaving directory unserved", "collection", name, "dir", dir)
		return
	}
	s.cols[name] = c
}

// adoptRecovered builds one collection from a recovered log: create it
// under the manifest's spec/shards, replay the recovered records as a
// single batch (the log is attached only afterwards, so the replay
// does not re-append to the WAL), then attach the log for new ingests.
func (s *Server) adoptRecovered(lg *persist.Log, rec *persist.Recovered) error {
	var spec IndexSpec
	if len(rec.Manifest.Index) > 0 {
		if err := json.Unmarshal(rec.Manifest.Index, &spec); err != nil {
			return fmt.Errorf("manifest index spec: %w", err)
		}
	}
	if spec.Precision == legacyF32 {
		// The f32 tier stored its rows rounded to binary32, which f64
		// holds exactly: its collections reopen as f64 of the same kind.
		spec.Precision = PrecisionF64
	}
	name := rec.Manifest.Name
	if name == "" {
		return fmt.Errorf("manifest has no collection name")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("server: closed")
	}
	if _, ok := s.cols[name]; ok {
		s.mu.Unlock()
		return fmt.Errorf("collection %q recovered twice", name)
	}
	// The manifest pins the seed the collection was created with, so an
	// alsh collection samples the same hash functions across restarts
	// even though recovery enumerates the data dir in name order.
	c, err := newCollection(name, spec, rec.Manifest.Shards, rec.Manifest.Seed)
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("collection %q: %w", name, err)
	}
	c.gen = s.gens.Add(1)
	s.configureCompaction(c)
	s.noteRecoveredSeed(rec.Manifest.Seed)
	s.cols[name] = c
	s.mu.Unlock()
	if len(rec.Recs) > 0 {
		if _, err := c.Ingest(rec.Recs); err != nil {
			return fmt.Errorf("replaying %d records: %w", len(rec.Recs), err)
		}
	}
	c.attachLog(lg)
	return nil
}

// Close stops every collection's shard goroutines, flushes and closes
// their write-ahead logs, and marks the server closed: later
// EnsureCollection/Ingest calls fail instead of silently respawning
// collections whose goroutines nothing would ever stop. Existing
// collection handles stay searchable (final snapshots). The first log
// flush/close error is returned.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var first error
	for _, c := range s.cols {
		c.close()
		if err := c.closeLog(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Drop removes the named collection: it disappears from the map (new
// requests 404), its shard goroutines stop, and its data directory —
// WAL, segments, manifest — is deleted. In-flight searches holding the
// collection keep reading its final immutable snapshots. The returned
// bool reports whether the collection existed.
func (s *Server) Drop(name string) (bool, error) {
	s.mu.Lock()
	c, ok := s.cols[name]
	if ok {
		delete(s.cols, name)
		// Block re-creation until the teardown below (which runs
		// outside s.mu) has finished deleting the data directory, so
		// a racing PUT cannot build a fresh directory that this Drop
		// then destroys.
		s.dropping[name] = struct{}{}
	}
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	defer func() {
		s.mu.Lock()
		delete(s.dropping, name)
		s.mu.Unlock()
	}()
	// Dropping invalidates cached results: a same-name successor never
	// reads them (its incarnation keys its own), but they would sit in
	// the LRU until evicted.
	s.cache.invalidate(name)
	c.close()
	return true, c.removeLog()
}

// safeDirName matches collection names that can be used verbatim as a
// directory name. Anything else (path separators, "..", control
// bytes…) is mapped through a hash; the manifest carries the real name
// so recovery never depends on the directory spelling.
var safeDirName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,200}$`)

func collectionDirName(name string) string {
	if safeDirName.MatchString(name) {
		return name
	}
	sum := sha256.Sum256([]byte(name))
	return "x-" + hex.EncodeToString(sum[:16])
}

// Closed reports whether Close has run: the liveness signal behind
// /healthz (a closed server cannot serve, so it must stop advertising
// itself as alive).
func (s *Server) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Readiness reports whether the server should receive traffic: nil
// when it is open and every collection is active. A degraded or
// quarantined collection makes the whole process unready — a load
// balancer should prefer replicas that can serve everything — while
// /healthz stays green so the orchestrator does not restart a process
// that is busy repairing itself.
func (s *Server) Readiness() error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return fmt.Errorf("server is closed")
	}
	cols := make(map[string]*Collection, len(s.cols))
	for n, c := range s.cols {
		cols[n] = c
	}
	s.mu.RUnlock()
	var unready []string
	for n, c := range cols {
		if st := c.healthState(); st != HealthActive {
			unready = append(unready, fmt.Sprintf("%s (%s)", n, st))
		}
	}
	if len(unready) == 0 {
		return nil
	}
	sort.Strings(unready)
	return fmt.Errorf("collections not active: %s", strings.Join(unready, ", "))
}

// Collection returns the named collection, if it exists.
func (s *Server) Collection(name string) (*Collection, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.cols[name]
	return c, ok
}

// Collections returns the collection names in sorted order.
func (s *Server) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.cols))
	for n := range s.cols {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EnsureCollection returns the named collection, creating it with the
// given spec and shard count on first use. A nil spec or zero shard
// count defaults; on an existing collection a non-nil spec must match
// the one it was created with.
func (s *Server) EnsureCollection(name string, spec *IndexSpec, shards int) (*Collection, error) {
	if name == "" {
		return nil, fmt.Errorf("server: empty collection name")
	}
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: server is closed", ErrUnavailable)
		}
		if c, ok := s.cols[name]; ok {
			s.mu.Unlock()
			if st, reason := c.healthInfo(); st == HealthQuarantined {
				// The placeholder's zero spec must not be compared against
				// the request's: the real spec lives in the unreadable
				// directory. 503 (not 400/409) so the client knows this is
				// the server's problem and a retry after repair can work.
				return nil, fmt.Errorf("%w: collection %q is quarantined: %s", ErrUnavailable, name, reason)
			}
			if spec != nil && *spec != c.spec {
				return nil, fmt.Errorf("server: collection %q already exists with index %q", name, c.spec.kind())
			}
			if shards != 0 && shards != len(c.shards) {
				return nil, fmt.Errorf("server: collection %q already exists with %d shards", name, len(c.shards))
			}
			return c, nil
		}
		if _, busy := s.dropping[name]; busy {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: collection %q is being dropped; retry", ErrUnavailable, name)
		}
		if ch, busy := s.creating[name]; busy {
			// Another request is building this collection; wait for it
			// and re-check (it may have succeeded or failed).
			s.mu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		s.creating[name] = ch
		s.created++
		seed := s.collectionSeed(s.created - 1)
		s.mu.Unlock()

		// Construction runs outside s.mu: on a durable server it
		// fsyncs the manifest and the fresh WAL, which must not stall
		// requests against other collections. The reservation above
		// keeps this single-flight per name.
		c, err := s.buildCollection(name, specOrDefault(spec), shardsOrDefault(shards, s.cfg.DefaultShards), seed)

		s.mu.Lock()
		delete(s.creating, name)
		close(ch)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if s.closed {
			s.mu.Unlock()
			// Lost the race with Close: tear the never-published
			// collection down (no records were acknowledged, so
			// removing its fresh data dir loses nothing).
			c.close()
			c.removeLog()
			return nil, fmt.Errorf("%w: server is closed", ErrUnavailable)
		}
		s.cols[name] = c
		s.mu.Unlock()
		return c, nil
	}
}

// configureCompaction applies the server's compaction and admission
// knobs to a freshly built collection (both the create and the
// recovery path), and has it keep write notes where the cache brings
// answers forward.
func (s *Server) configureCompaction(c *Collection) {
	c.keepNotes = s.cache.enabled() && c.spec.kind() != KindALSH
	if s.cfg.CompactFraction != 0 {
		c.compactFrac = s.cfg.CompactFraction
	}
	if s.cfg.CompactMinDead > 0 {
		c.compactMin = s.cfg.CompactMinDead
	} else if s.cfg.CompactMinDead < 0 {
		c.compactMin = 0
	}
	c.adm = newGate(s.cfg.MaxInflight, s.cfg.MaxQueue)
	c.scrubEvery = s.cfg.ScrubInterval
	c.fsys = s.fsys()
	name := c.name
	c.stageObs = func(stage string, d time.Duration) {
		s.stages.observe(stage, name, d)
	}
}

func specOrDefault(spec *IndexSpec) IndexSpec {
	if spec != nil {
		return *spec
	}
	return IndexSpec{}
}

func shardsOrDefault(shards, def int) int {
	if shards == 0 {
		return def
	}
	return shards
}

// buildCollection validates a request's spec and constructs its collection
// and (on a durable server) its data directory. On any failure nothing is
// left running: the shard-owner goroutines newCollection spawned are stopped.
func (s *Server) buildCollection(name string, spec IndexSpec, shards int, seed uint64) (*Collection, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c, err := newCollection(name, spec, shards, seed)
	if err != nil {
		return nil, err
	}
	c.gen = s.gens.Add(1)
	s.configureCompaction(c)
	if s.cfg.DataDir != "" {
		lg, err := s.createLog(name, spec, shards, seed)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("%w: collection %q: %w", ErrUnavailable, name, err)
		}
		c.attachLog(lg)
	}
	return c, nil
}

// createLog initializes a new collection's data directory.
func (s *Server) createLog(name string, sp IndexSpec, shards int, seed uint64) (*persist.Log, error) {
	specJSON, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	return persist.Create(
		filepath.Join(s.cfg.DataDir, collectionDirName(name)),
		persist.Manifest{Name: name, Shards: shards, Seed: seed, Index: specJSON},
		s.cfg.persistPolicy(),
	)
}

// Ingest appends records into the named collection (creating it on
// first use). It returns the new version and the number of cache
// entries dropped: an exact or normscan collection's cached answers are
// brought forward across the write when next looked up, so only an alsh
// write drops any (see queryCache).
func (s *Server) Ingest(name string, spec *IndexSpec, shards int, recs []store.Record) (version uint64, invalidated int, err error) {
	return s.IngestCtx(context.Background(), name, spec, shards, recs)
}

// IngestCtx is Ingest for a traced request: the trace ctx carries gets
// the write path's spans. ctx is not a deadline — once validated, a
// batch runs to completion.
func (s *Server) IngestCtx(ctx context.Context, name string, spec *IndexSpec, shards int, recs []store.Record) (version uint64, invalidated int, err error) {
	c, err := s.EnsureCollection(name, spec, shards)
	if err != nil {
		return 0, 0, err
	}
	version, err = c.ingest(ctx, recs)
	if err != nil {
		return 0, 0, err
	}
	return version, s.invalidateALSH(c), nil
}

// invalidateALSH drops an alsh collection's cached answers after a write
// and returns how many; other kinds keep theirs.
func (s *Server) invalidateALSH(c *Collection) int {
	if c.spec.kind() != KindALSH {
		return 0
	}
	return s.cache.invalidate(c.name)
}

// Upsert inserts or replaces records by ID in the named collection
// (creating it on first use). Returns the new version and the number of
// cache entries dropped, as Ingest: a cached exact answer holding a
// record this batch replaced is rescanned when next looked up.
func (s *Server) Upsert(name string, spec *IndexSpec, shards int, recs []store.Record) (version uint64, invalidated int, err error) {
	return s.UpsertCtx(context.Background(), name, spec, shards, recs)
}

// UpsertCtx is Upsert for a traced request (see IngestCtx).
func (s *Server) UpsertCtx(ctx context.Context, name string, spec *IndexSpec, shards int, recs []store.Record) (version uint64, invalidated int, err error) {
	c, err := s.EnsureCollection(name, spec, shards)
	if err != nil {
		return 0, 0, err
	}
	version, err = c.upsert(ctx, recs)
	if err != nil {
		return 0, 0, err
	}
	return version, s.invalidateALSH(c), nil
}

// Delete removes records by ID from the named collection. A cached
// answer never returns a tombstoned ID: an exact one holding a deleted
// record is rescanned when next looked up, and an alsh write drops its
// collection's entries (invalidated counts them, as Ingest). Unknown IDs
// are no-ops; deleted reports how many records were actually removed.
// Deleting from an unknown collection is an error.
func (s *Server) Delete(name string, ids []int) (version uint64, deleted, invalidated int, err error) {
	c, ok := s.Collection(name)
	if !ok {
		return 0, 0, 0, fmt.Errorf("server: unknown collection %q", name)
	}
	version, deleted, err = c.Delete(ids)
	if err != nil {
		return 0, 0, 0, err
	}
	return version, deleted, s.invalidateALSH(c), nil
}

// SearchResult is one query's outcome within a batch.
type SearchResult struct {
	Hits   []Hit
	Cached bool
	Err    error
	// Explain carries the per-shard execution detail when the request
	// asked for it (single-query requests only).
	Explain *QueryExplain
}

// Search answers top-k queries — one or a batch — against the named
// collection. Every request runs through one executor (see batch.go):
// cache misses are packed into one columnar query store and answered a
// tile of up to 32 queries at a time, each tile scanning every shard
// snapshot once through the multi-query kernels; a single query is the
// tile of one. A request of one tile scans its shards in parallel on the
// worker pool, a larger one runs its tiles there. A query's answer does
// not depend on the batch it came in. Results are served from / stored
// into the LRU cache at the collection version pinned at entry; an exact
// answer cached at an earlier version is brought forward to it.
func (s *Server) Search(name string, queries []vec.Vector, k int, unsigned bool) ([]SearchResult, error) {
	return s.SearchCtx(context.Background(), name, queries, k, unsigned)
}

// SearchCtx is Search with a request context: the whole batch is one
// admission unit against the collection's gate (ErrOverloaded when
// shed), and ctx's deadline/cancellation propagates through the pool
// into the block-level scan kernels, so an expired query stops within
// one row block. Queries abandoned mid-scan carry ctx's error in
// their SearchResult.Err; a pre-admission failure is returned as the
// call error instead.
func (s *Server) SearchCtx(ctx context.Context, name string, queries []vec.Vector, k int, unsigned bool) ([]SearchResult, error) {
	return s.SearchWithOpts(ctx, name, queries, SearchOpts{K: k, Unsigned: unsigned})
}

// SearchOpts carries one search request's parameters beyond the query
// vectors themselves.
type SearchOpts struct {
	// K is the number of hits per query (must be positive).
	K int
	// Unsigned ranks by |pᵀq| instead of pᵀq.
	Unsigned bool
	// Explain collects per-shard execution detail (rows scanned, blocks
	// pruned or skipped, rerank candidates, timings) into
	// SearchResult.Explain. Single-query requests only; the hits are
	// bit-identical to an unexplained query.
	Explain bool
}

// SearchWithOpts is SearchCtx with the full option set (notably the
// explain breakdown).
func (s *Server) SearchWithOpts(ctx context.Context, name string, queries []vec.Vector, opts SearchOpts) ([]SearchResult, error) {
	c, ok := s.Collection(name)
	if !ok {
		return nil, fmt.Errorf("server: unknown collection %q", name)
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("server: empty query batch")
	}
	if opts.Explain && len(queries) > 1 {
		return nil, fmt.Errorf("server: explain supports single-query requests only")
	}
	tr := trace.FromContext(ctx)
	tr.SetCollection(name)
	asp := tr.StartSpan("admission")
	err := c.adm.enter(ctx)
	asp.End()
	if err != nil {
		return nil, err
	}
	defer c.adm.exit()
	out := make([]SearchResult, len(queries))
	c.search(ctx, s.pool, s.cache, queries, opts, out)
	return out, nil
}

// countTimeout bumps the collection's deadline-miss counter when err
// is a context error.
func (c *Collection) countTimeout(err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		c.timeouts.Add(1)
	}
}

// recordTrace feeds a finished trace's spans into the per-stage
// histograms. Requests that never resolved a collection are skipped, so
// the stage label cardinality stays bounded by (stages × collections).
func (s *Server) recordTrace(tr *trace.Trace) {
	col := tr.Collection()
	if col == "" {
		return
	}
	tr.SpanDurations(func(stage string, d time.Duration) {
		s.stages.observe(stage, col, d)
	})
}

// maybeLogSlow emits one structured slow-query line — the full exported
// span tree included — when the finished trace overran the threshold.
func (s *Server) maybeLogSlow(tr *trace.Trace) {
	if s.slowQuery <= 0 || tr == nil || tr.Duration() < s.slowQuery {
		return
	}
	e := tr.Export()
	slog.Warn("slow request",
		"trace_id", e.TraceID,
		"route", e.Route,
		"collection", e.Collection,
		"status", e.Status,
		"duration_micros", e.DurationUS,
		"spans", e.Spans)
}

// Stats snapshots the whole server for /stats.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	cols := make(map[string]*Collection, len(s.cols))
	for n, c := range s.cols {
		cols[n] = c
	}
	s.mu.RUnlock()
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.pool.Workers(),
		Cache: CacheStats{
			Capacity:           s.cfg.CacheCapacity,
			Size:               s.cache.len(),
			Hits:               s.cache.hits.Load(),
			Misses:             s.cache.misses.Load(),
			Invalidations:      s.cache.invalidations.Load(),
			Revalidated:        s.cache.revalidated.Load(),
			RevalidationMisses: s.cache.touched.Load() + s.cache.expired.Load(),
		},
		Collections: make(map[string]CollectionStats, len(cols)),
		Joins:       s.joins.Load(),
	}
	for n, c := range cols {
		st.Collections[n] = c.statsSnapshot()
	}
	return st
}
