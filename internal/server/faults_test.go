package server

// Failure-domain tests: disk faults injected through the errfs VFS
// must degrade exactly one collection (reads keep serving, mutations
// fail closed with 503), the background repair probe must restore it
// once the fault heals, and a restart must recover the acknowledged
// state bit-identically — never a rejected batch, never a panic.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/errfs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// faultyConfig is durableConfig routed through a fault injector.
func faultyConfig(dir string, f *errfs.Faulty) Config {
	cfg := durableConfig(dir)
	cfg.FS = f
	return cfg
}

// TestWALFaultDegradesServing: a latched WAL fsync failure turns the
// collection read-only — the failed ingest is reported, reads keep
// answering from the last snapshots, mutations 503 — and the repair
// probe restores active service once the disk heals. A restart then
// recovers exactly the acknowledged batches.
func TestWALFaultDegradesServing(t *testing.T) {
	dir := t.TempDir()
	f := errfs.NewFaulty(nil, 1)
	s, err := Open(faultyConfig(dir, f))
	if err != nil {
		t.Fatal(err)
	}
	const n, d, q, k = 900, 6, 20, 3
	recs := randRecords(n, d, 1)
	queries := randQueries(q, d, 2)

	if _, _, err := s.Ingest("c", nil, 2, recs[:600]); err != nil {
		t.Fatal(err)
	}
	want := searchAll(t, s, "c", queries, k)
	c, _ := s.Collection("c")

	f.Inject(errfs.Rule{Op: errfs.OpSync, Path: "wal-"})
	if _, _, err := s.Ingest("c", nil, 0, recs[600:700]); err == nil {
		t.Fatal("ingest succeeded while WAL fsync faults")
	}
	waitFor(t, "collection to degrade", func() bool { return c.healthState() == HealthDegraded })

	// Reads keep serving the pre-fault state; the rejected batch is
	// invisible (its IDs were rolled back).
	if got := searchAll(t, s, "c", queries, k); !reflect.DeepEqual(got, want) {
		t.Fatal("degraded reads differ from the pre-fault snapshot")
	}
	if c.Len() != 600 {
		t.Fatalf("len %d while degraded, want 600", c.Len())
	}
	// Mutations fail closed with the retryable class.
	if _, _, err := s.Ingest("c", nil, 0, recs[600:700]); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("degraded ingest err=%v, want ErrUnavailable", err)
	}
	if _, _, err := s.Upsert("c", nil, 0, recs[:10]); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("degraded upsert err=%v, want ErrUnavailable", err)
	}
	if _, _, _, err := s.Delete("c", []int{0}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("degraded delete err=%v, want ErrUnavailable", err)
	}
	// Readiness names the degraded collection so the orchestrator
	// drains traffic without restarting the process.
	if err := s.Readiness(); err == nil || !strings.Contains(err.Error(), "c (degraded)") {
		t.Fatalf("Readiness() = %v, want degraded collection named", err)
	}

	f.Clear()
	waitFor(t, "repair probe to reactivate", func() bool { return c.healthState() == HealthActive })
	if c.repairs.Load() == 0 {
		t.Fatal("repair counter did not advance")
	}
	if err := s.Readiness(); err != nil {
		t.Fatalf("Readiness() after repair: %v", err)
	}
	if _, _, err := s.Ingest("c", nil, 0, recs[600:]); err != nil {
		t.Fatalf("ingest after repair: %v", err)
	}
	wantAll := searchAll(t, s, "c", queries, k)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2, _ := s2.Collection("c")
	if c2.Len() != n {
		t.Fatalf("recovered %d records, want %d (600 pre-fault + 300 post-repair)", c2.Len(), n)
	}
	if got := searchAll(t, s2, "c", queries, k); !reflect.DeepEqual(got, wantAll) {
		t.Fatal("post-restart answers differ from pre-restart")
	}
}

// TestENOSPCMidCheckpointDegradesNotPanics is the satellite scenario at
// the serving layer: ENOSPC kills a background checkpoint's segment
// write. The collection degrades (no panic, no 5xx on reads), the old
// segment and WAL still recover bit-identically, and once space frees
// a successful checkpoint re-activates the collection.
func TestENOSPCMidCheckpointDegradesNotPanics(t *testing.T) {
	dir := t.TempDir()
	f := errfs.NewFaulty(nil, 1)
	cfg := faultyConfig(dir, f)
	cfg.CheckpointBytes = 1 // checkpoint after every ingest batch
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n, d, q, k = 800, 5, 20, 3
	recs := randRecords(n, d, 5)
	queries := randQueries(q, d, 6)

	if _, _, err := s.Ingest("c", nil, 2, recs[:400]); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Collection("c")
	colDir := filepath.Join(dir, "c")
	hasSegment := func() bool {
		ents, err := os.ReadDir(colDir)
		if err != nil {
			return false
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "segment-") && strings.HasSuffix(e.Name(), ".seg") {
				return true
			}
		}
		return false
	}
	waitFor(t, "first clean checkpoint segment", hasSegment)

	// Disk "fills": every segment write now dies half-way.
	f.Inject(errfs.Rule{Op: errfs.OpWrite, Path: "segment-", Kind: errfs.KindShortWrite})
	if _, _, err := s.Ingest("c", nil, 0, recs[400:]); err != nil {
		t.Fatalf("ingest (WAL path is healthy): %v", err)
	}
	waitFor(t, "checkpoint failure to degrade the collection", func() bool {
		return c.healthState() == HealthDegraded
	})
	// Reads never see a 5xx: the full acknowledged state keeps serving.
	want := searchAll(t, s, "c", queries, k)
	if c.Len() != n {
		t.Fatalf("len %d while degraded, want %d", c.Len(), n)
	}

	// Space frees; the probe's retried checkpoint must succeed and
	// re-activate the collection.
	f.Clear()
	waitFor(t, "repair probe to reactivate", func() bool { return c.healthState() == HealthActive })

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := searchAll(t, s2, "c", queries, k); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered answers differ from the degraded-but-serving state")
	}
}

// TestScrubberDetectsCorruptionAndSelfHeals: the background scrubber
// finds a flipped bit in a segment, degrades the collection, and the
// repair probe — fresh checkpoint, drop the corrupt file, clean scrub —
// brings it back to active without operator action.
func TestScrubberDetectsCorruptionAndSelfHeals(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.CheckpointBytes = 1
	cfg.ScrubInterval = 20 * time.Millisecond
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := randRecords(500, 5, 7)
	if _, _, err := s.Ingest("c", nil, 2, recs); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Collection("c")
	colDir := filepath.Join(dir, "c")
	newestSegment := func() string {
		ents, _ := os.ReadDir(colDir)
		newest := ""
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "segment-") && strings.HasSuffix(e.Name(), ".seg") {
				newest = e.Name() // ReadDir sorts; last wins
			}
		}
		return newest
	}
	waitFor(t, "checkpoint segment", func() bool { return newestSegment() != "" })
	waitFor(t, "a clean scrub pass", func() bool { return c.scrubs.Load() > 0 })

	// Bit rot.
	seg := filepath.Join(colDir, newestSegment())
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "scrubber to degrade the collection", func() bool { return c.healthState() == HealthDegraded })
	if _, reason := c.healthInfo(); !strings.Contains(reason, "scrub") {
		t.Fatalf("degrade reason %q does not name the scrub", reason)
	}
	if c.scrubErrors.Load() == 0 {
		t.Fatal("scrub error counter did not advance")
	}
	waitFor(t, "self-heal back to active", func() bool { return c.healthState() == HealthActive })
	if c.repairs.Load() == 0 {
		t.Fatal("repair counter did not advance")
	}
	// The healed directory scrubs clean.
	if _, err := c.logHandle().ScrubSegments(); err != nil {
		t.Fatalf("scrub after self-heal: %v", err)
	}
}

// TestQuarantineBoot: with -recover=quarantine an unrecoverable
// collection becomes a 503-serving placeholder — boot succeeds, the
// damaged directory is left byte-for-byte untouched, reads (a single
// query, and batches of one tile and of two) and writes all fail with the
// retryable class, nothing is cached, and DELETE discards it. Strict mode
// (the default) still refuses the boot.
func TestQuarantineBoot(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	recs := randRecords(300, 4, 9)
	if _, _, err := s1.Ingest("bad", nil, 2, recs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Ingest("good", nil, 2, recs); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt one collection's manifest so recovery cannot trust the
	// directory at all.
	manifest := filepath.Join(dir, "bad", "manifest.json")
	if err := os.WriteFile(manifest, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Strict: the boot fails loudly.
	if _, err := Open(durableConfig(dir)); err == nil {
		t.Fatal("strict boot succeeded over a corrupt manifest")
	}

	cfg := durableConfig(dir)
	cfg.RecoverMode = RecoverQuarantine
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("quarantine boot: %v", err)
	}
	defer s2.Close()
	// The healthy sibling recovered fully.
	g, ok := s2.Collection("good")
	if !ok || g.Len() != 300 || g.healthState() != HealthActive {
		t.Fatalf("sibling collection: ok=%v len=%d state=%v", ok, g.Len(), g.healthState())
	}
	// The damaged one is present, quarantined, and 503s both ways.
	b, ok := s2.Collection("bad")
	if !ok || b.healthState() != HealthQuarantined {
		t.Fatalf("quarantined collection: ok=%v state=%v", ok, b.healthState())
	}
	cached := s2.cache.len()
	for _, width := range []int{1, 2, searchTileQ + 1} {
		results, err := s2.Search("bad", randQueries(width, 4, 1), 1, false)
		if err != nil {
			t.Fatalf("width %d: search on quarantined collection: top-level %v", width, err)
		}
		for i, r := range results {
			if !errors.Is(r.Err, ErrUnavailable) || r.Hits != nil {
				t.Fatalf("width %d query %d on quarantined collection: err=%v hits=%v, want ErrUnavailable and none", width, i, r.Err, r.Hits)
			}
		}
	}
	if got := s2.cache.len(); got != cached {
		t.Fatalf("searches of the quarantined collection grew the cache %d → %d", cached, got)
	}
	if _, _, err := s2.Ingest("bad", nil, 0, recs[:10]); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ingest on quarantined collection err=%v, want ErrUnavailable", err)
	}
	// A PUT that would re-create it is refused too — shadowing the
	// damaged directory would orphan the operator's forensics.
	if _, err := s2.EnsureCollection("bad", &IndexSpec{Kind: KindExact}, 2); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("EnsureCollection on quarantined err=%v, want ErrUnavailable", err)
	}
	if err := s2.Readiness(); err == nil || !strings.Contains(err.Error(), "bad (quarantined)") {
		t.Fatalf("Readiness() = %v, want quarantined collection named", err)
	}
	// /stats and /metrics render it: no shards, no rows, version 0.
	if st := s2.Stats().Collections["bad"]; st.Health != "quarantined" || st.Version != 0 || len(st.Shards) != 0 {
		t.Fatalf("/stats of the quarantined collection: %+v", st)
	}
	mrec := httptest.NewRecorder()
	NewHandler(s2).ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if mrec.Code != http.StatusOK || !strings.Contains(mrec.Body.String(), `collection="bad"`) {
		t.Fatalf("/metrics with a quarantined collection: status %d", mrec.Code)
	}
	// Untouched for forensics: the corrupt manifest is byte-identical.
	got, err := os.ReadFile(manifest)
	if err != nil || string(got) != "{torn" {
		t.Fatalf("quarantined directory was modified: %q %v", got, err)
	}

	// DELETE discards the placeholder and its directory; the name is
	// then free for a fresh collection.
	dropped, err := s2.Drop("bad")
	if !dropped || err != nil {
		t.Fatalf("Drop(quarantined) = %v, %v", dropped, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "bad")); !os.IsNotExist(err) {
		t.Fatalf("quarantined directory survived Drop: %v", err)
	}
	if err := s2.Readiness(); err != nil {
		t.Fatalf("Readiness() after dropping the quarantined collection: %v", err)
	}
	if _, _, err := s2.Ingest("bad", nil, 2, recs[:50]); err != nil {
		t.Fatalf("re-creating the dropped name: %v", err)
	}
}

// TestSketchCollectionUpgrade: a data directory holding a collection of
// the sketch kind, which is no longer served, fails a strict boot with
// an error that names the collection and says so. Under
// -recover=quarantine the collection is quarantined with that reason, its
// directory left byte-identical, and /readyz names it.
func TestSketchCollectionUpgrade(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Ingest("sk", nil, 2, randRecords(100, 4, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// The manifest an earlier server wrote for a sketch collection.
	manifest := filepath.Join(dir, "sk", "manifest.json")
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["index"] = map[string]any{"kind": "sketch", "kappa": 2, "copies": 9}
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	files := func() map[string]string {
		t.Helper()
		out := map[string]string{}
		entries, err := os.ReadDir(filepath.Join(dir, "sk"))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, "sk", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(b)
		}
		return out
	}
	before := files()

	_, err = Open(durableConfig(dir))
	if err == nil || !strings.Contains(err.Error(), `collection "sk"`) || !strings.Contains(err.Error(), "no longer served") {
		t.Fatalf("strict boot over a sketch collection: err = %v, want one naming the collection and the retired kind", err)
	}
	cfg := durableConfig(dir)
	cfg.RecoverMode = RecoverQuarantine
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("quarantine boot: %v", err)
	}
	defer s2.Close()
	c, ok := s2.Collection("sk")
	if _, reason := c.healthInfo(); !ok || c.healthState() != HealthQuarantined || !strings.Contains(reason, "no longer served") {
		t.Fatalf("sketch collection: ok=%v state=%v reason %q", ok, c.healthState(), reason)
	}
	rec := httptest.NewRecorder()
	NewHandler(s2).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "sk (quarantined)") {
		t.Fatalf("readyz: %d %q, want 503 naming the quarantined collection", rec.Code, rec.Body)
	}
	if after := files(); !reflect.DeepEqual(after, before) {
		t.Fatal("quarantining the sketch collection modified its directory")
	}
}

// TestDropWhileDegradedDoesNotDeadlock races DELETE against the repair
// probe of a collection whose disk is still broken: Drop must complete
// promptly (the probe exits on the closed bg channel / ErrClosed), the
// directory must be gone, and the name reusable. Run under -race this
// also pins the probe/close lock ordering.
func TestDropWhileDegradedDoesNotDeadlock(t *testing.T) {
	dir := t.TempDir()
	f := errfs.NewFaulty(nil, 1)
	s, err := Open(faultyConfig(dir, f))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := randRecords(400, 4, 11)
	if _, _, err := s.Ingest("c", nil, 2, recs[:300]); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Collection("c")

	// Latch the WAL and keep the disk broken, so the repair probe is
	// mid-backoff/mid-failing-repair when Drop lands.
	f.Inject(errfs.Rule{Op: errfs.OpSync, Path: "wal-"})
	if _, _, err := s.Ingest("c", nil, 0, recs[300:310]); err == nil {
		t.Fatal("ingest succeeded under WAL sync fault")
	}
	waitFor(t, "collection to degrade", func() bool { return c.healthState() == HealthDegraded })

	done := make(chan error, 1)
	go func() {
		// The latched log reports its failure at close; the directory
		// must be removed regardless.
		_, err := s.Drop("c")
		done <- err
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drop deadlocked against the repair probe")
	}
	if _, err := os.Stat(filepath.Join(dir, "c")); !os.IsNotExist(err) {
		t.Fatalf("data directory survived Drop: %v", err)
	}
	if _, ok := s.Collection("c"); ok {
		t.Fatal("dropped collection still registered")
	}
	// The name is immediately reusable on the healed disk.
	f.Clear()
	if _, _, err := s.Ingest("c", nil, 2, recs[:50]); err != nil {
		t.Fatalf("re-create after drop: %v", err)
	}
}

// TestHealthzReadyzSplit pins the liveness/readiness contract over
// HTTP: a degraded collection fails readiness but NOT liveness (a
// restart would lose repair progress), /stats and /metrics expose the
// state, and a closed server fails /healthz — the satellite fix for
// the old 200-after-Close bug.
func TestHealthzReadyzSplit(t *testing.T) {
	s := New(Config{DefaultShards: 2})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	if _, _, err := s.Ingest("c", nil, 0, randRecords(50, 4, 13)); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, sb.String()
	}

	if st, _ := get("/healthz"); st != http.StatusOK {
		t.Fatalf("healthz on live server: %d", st)
	}
	if st, _ := get("/readyz"); st != http.StatusOK {
		t.Fatalf("readyz on ready server: %d", st)
	}

	c, _ := s.Collection("c")
	c.setHealth(HealthDegraded, "test fault")
	if st, _ := get("/healthz"); st != http.StatusOK {
		t.Fatalf("healthz on degraded server: %d, want 200 (liveness must not restart a repairing process)", st)
	}
	st, body := get("/readyz")
	if st != http.StatusServiceUnavailable || !strings.Contains(body, "c (degraded)") {
		t.Fatalf("readyz on degraded server: %d %q", st, body)
	}
	if _, body := get("/stats"); !strings.Contains(body, `"health":"degraded"`) || !strings.Contains(body, "test fault") {
		t.Fatalf("stats does not expose health: %s", body)
	}
	if _, body := get("/metrics"); !strings.Contains(body, `ipsd_collection_health{collection="c",state="degraded"} 1`) {
		t.Fatalf("metrics missing health series:\n%s", body)
	}

	c.setHealth(HealthActive, "")
	if st, _ := get("/readyz"); st != http.StatusOK {
		t.Fatalf("readyz after reactivation: %d", st)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, body = get("/healthz")
	if st != http.StatusServiceUnavailable || !strings.Contains(body, "closed") {
		t.Fatalf("healthz on closed server: %d %q, want 503", st, body)
	}
	if st, _ := get("/readyz"); st != http.StatusServiceUnavailable {
		t.Fatalf("readyz on closed server: %d, want 503", st)
	}
}

// TestDegradedMutation503WithRetryAfter pins the wire contract the
// loadgen retry client consumes: a mutation against a degraded
// collection answers 503 with a Retry-After hint and an error body.
func TestDegradedMutation503WithRetryAfter(t *testing.T) {
	s := New(Config{DefaultShards: 2})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	if _, _, err := s.Ingest("c", nil, 0, randRecords(50, 4, 13)); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Collection("c")
	c.setHealth(HealthDegraded, "test fault")

	id := 7
	body, _ := json.Marshal(IngestRequest{Records: []RecordJSON{{ID: &id, Vec: []float64{1, 2, 3, 4}}}})
	resp, err := http.Post(ts.URL+"/collections/c/vectors", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upsert on degraded collection: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
	}
	// Reads still answer 200.
	q, _ := json.Marshal(SearchRequest{Q: []float64{1, 0, 0, 0}, K: 1})
	resp2, err := http.Post(ts.URL+"/collections/c/search", "application/json", strings.NewReader(string(q)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("search on degraded collection: %d, want 200", resp2.StatusCode)
	}
}
