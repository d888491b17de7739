package server

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func durableConfig(dir string) Config {
	return Config{
		DataDir:         dir,
		Fsync:           "always",
		CheckpointBytes: 1 << 30, // tests trigger checkpoints explicitly via size overrides
	}
}

func randRecords(n, d int, seed uint64) []store.Record {
	rng := xrand.New(seed)
	recs := make([]store.Record, n)
	for i := range recs {
		v := make(vec.Vector, d)
		for j := range v {
			v[j] = rng.Normal()
		}
		recs[i] = store.Record{ID: i, Vec: v}
		if i%5 == 0 {
			recs[i].Attrs = map[string]string{"tag": fmt.Sprintf("t%d", i)}
		}
	}
	return recs
}

func randQueries(q, d int, seed uint64) []vec.Vector {
	rng := xrand.New(seed)
	out := make([]vec.Vector, q)
	for i := range out {
		out[i] = vec.Vector(rng.NormalVec(d))
	}
	return out
}

// searchAll answers every query, failing the test on errors.
func searchAll(t *testing.T, s *Server, name string, queries []vec.Vector, k int) [][]Hit {
	t.Helper()
	results, err := s.Search(name, queries, k, false)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]Hit, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		out[i] = r.Hits
	}
	return out
}

// TestRestartRecoversCollections is the core durability contract: a
// closed durable server reopens with every collection — spec, shard
// count, records — intact, and serves bit-identical search results.
func TestRestartRecoversCollections(t *testing.T) {
	dir := t.TempDir()
	const n, d, q, k = 3000, 8, 40, 5
	recs := randRecords(n, d, 1)
	queries := randQueries(q, d, 2)

	s1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Two collections with different specs/shard counts, ingested in
	// several batches.
	for lo := 0; lo < n; lo += 700 {
		hi := min(lo+700, n)
		if _, _, err := s1.Ingest("exact", &IndexSpec{Kind: KindExact}, 4, recs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s1.Ingest("pruned", &IndexSpec{Kind: KindNormScan}, 2, recs[:1000]); err != nil {
		t.Fatal(err)
	}
	wantExact := searchAll(t, s1, "exact", queries, k)
	wantPruned := searchAll(t, s1, "pruned", queries, k)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Collections(); !reflect.DeepEqual(got, []string{"exact", "pruned"}) {
		t.Fatalf("recovered collections %v", got)
	}
	c, _ := s2.Collection("exact")
	if c.Len() != n || c.Spec().Kind != KindExact || c.Shards() != 4 {
		t.Fatalf("exact recovered wrong: len=%d spec=%+v shards=%d", c.Len(), c.Spec(), c.Shards())
	}
	if got := searchAll(t, s2, "exact", queries, k); !reflect.DeepEqual(got, wantExact) {
		t.Fatal("exact search results differ after restart")
	}
	if got := searchAll(t, s2, "pruned", queries, k); !reflect.DeepEqual(got, wantPruned) {
		t.Fatal("pruned search results differ after restart")
	}

	// The recovered server keeps ingesting durably: auto-IDs must not
	// collide with recovered IDs.
	v := make(vec.Vector, d)
	version, _, err := s2.Ingest("exact", nil, 0, []store.Record{{ID: AutoID, Vec: v}})
	if err != nil {
		t.Fatal(err)
	}
	if version == 0 {
		t.Fatal("ingest after recovery did not bump the version")
	}
	c, _ = s2.Collection("exact")
	if c.Len() != n+1 {
		t.Fatalf("len %d after post-recovery ingest, want %d", c.Len(), n+1)
	}
}

// TestCrashRecoversAcknowledgedWrites simulates kill -9: the first
// server is never closed; a second server opens a copy of its data
// directory and must see every acknowledged (fsync=always) write,
// bit-identical to an in-memory reference collection fed the same
// batches.
func TestCrashRecoversAcknowledgedWrites(t *testing.T) {
	dir := t.TempDir()
	const n, d, q, k = 2000, 6, 25, 3
	recs := randRecords(n, d, 3)
	queries := randQueries(q, d, 4)

	s1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ref := New(Config{}) // in-memory reference run
	defer ref.Close()
	for lo := 0; lo < n; lo += 333 {
		hi := min(lo+333, n)
		if _, _, err := s1.Ingest("col", nil, 4, recs[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ref.Ingest("col", nil, 4, recs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: copy the directory out from under the live server,
	// exactly what a kill -9 leaves behind (fsync=always means every
	// acknowledged frame is already on disk).
	crashed := t.TempDir()
	copyTree(t, dir, crashed)

	s2, err := Open(durableConfig(crashed))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := searchAll(t, s2, "col", queries, k)
	want := searchAll(t, ref, "col", queries, k)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovered search results differ from the in-memory reference")
	}
	s1.Close()
}

// copyTree copies a live data directory the way kill -9 would freeze
// it. The walk is not atomic: when a background checkpoint deletes a
// file between the walk listing it and reading it, the copy is a state
// the directory was never in, so it is thrown away and taken again.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(src, path)
			if err != nil {
				return err
			}
			target := filepath.Join(dst, rel)
			if info.IsDir() {
				return os.MkdirAll(target, 0o755)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(target, data, 0o644)
		})
		if err == nil {
			return
		}
		if !errors.Is(err, fs.ErrNotExist) || attempt == 20 {
			t.Fatal(err)
		}
		if err := os.RemoveAll(dst); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointDuringIngest drives enough batches through a tiny
// checkpoint threshold that WAL compaction runs while ingest continues,
// then verifies a restart still recovers everything.
func TestCheckpointDuringIngest(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Fsync = "interval"
	cfg.FsyncInterval = time.Millisecond
	cfg.CheckpointBytes = 4 << 10
	const n, d = 5000, 4
	recs := randRecords(n, d, 5)

	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += 100 {
		if _, _, err := s1.Ingest("col", nil, 2, recs[lo:lo+100]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// At least one segment must exist (the threshold is tiny), and the
	// restart must see all records.
	colDir := filepath.Join(dir, "col")
	entries, err := os.ReadDir(colDir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "segment-") {
			segs++
		}
	}
	if segs == 0 {
		t.Fatal("no segment written despite a 4KiB checkpoint threshold")
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c, ok := s2.Collection("col")
	if !ok || c.Len() != n {
		t.Fatalf("recovered %d records, want %d", c.Len(), n)
	}
	for i, r := range c.records() {
		if r.ID != recs[i].ID {
			t.Fatalf("record %d has ID %d, want %d", i, r.ID, recs[i].ID)
		}
		for j := range r.Vec {
			if r.Vec[j] != recs[i].Vec[j] {
				t.Fatalf("record %d vector differs", i)
			}
		}
	}
}

// TestRestartKeepsApproxIndexSeeds: alsh is approximate, but its
// hashing is seeded — the manifest pins the seed, so a restarted
// server must answer alsh queries identically to the original (even
// though recovery enumerates collections in directory order, not
// creation order). A k past the dense tables' limit (sparse sign-code
// tables, grown by a second ingest) recovers like the default k.
func TestRestartKeepsApproxIndexSeeds(t *testing.T) {
	dir := t.TempDir()
	const n, d, q, k = 2000, 8, 30, 3
	recs := randRecords(n, d, 20)
	// ALSH's SIMPLE transform needs data inside the unit ball.
	maxNorm := 0.0
	for _, r := range recs {
		if nrm := vec.Norm(r.Vec); nrm > maxNorm {
			maxNorm = nrm
		}
	}
	for _, r := range recs {
		for j := range r.Vec {
			r.Vec[j] /= maxNorm * (1 + 1e-9)
		}
	}
	queries := randQueries(q, d, 21)
	s1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Create in an order that differs from the directory sort order so
	// a naive ordinal-based reseed would shuffle seeds on recovery.
	if _, _, err := s1.Ingest("zeta", &IndexSpec{Kind: KindALSH}, 2, recs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Ingest("alpha", &IndexSpec{Kind: KindALSH}, 2, recs[:500]); err != nil {
		t.Fatal(err)
	}
	wide := &IndexSpec{Kind: KindALSH, K: 17, L: 4}
	for _, part := range [][]store.Record{recs[:1500], recs[1500:]} {
		if _, _, err := s1.Ingest("wide", wide, 2, part); err != nil {
			t.Fatal(err)
		}
	}
	wantZeta := searchAll(t, s1, "zeta", queries, k)
	wantAlpha := searchAll(t, s1, "alpha", queries, k)
	wantWide := searchAll(t, s1, "wide", queries, k)
	if hits := slices.Concat(wantWide...); len(hits) == 0 {
		t.Fatal("alsh collection wide answers nothing; the restart check would compare nothing")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := searchAll(t, s2, "zeta", queries, k); !reflect.DeepEqual(got, wantZeta) {
		t.Fatal("alsh collection zeta answers differently after restart")
	}
	if got := searchAll(t, s2, "alpha", queries, k); !reflect.DeepEqual(got, wantAlpha) {
		t.Fatal("alsh collection alpha answers differently after restart")
	}
	if c, _ := s2.Collection("wide"); c == nil || c.Spec().K != 17 {
		t.Fatal("alsh collection wide did not recover with k=17")
	}
	if got := searchAll(t, s2, "wide", queries, k); !reflect.DeepEqual(got, wantWide) {
		t.Fatal("alsh collection wide (k=17) answers differently after restart")
	}
}

// TestDropCollection covers the DELETE semantics at the API level:
// gone from the map, 404 afterwards, data directory removed, and the
// name immediately reusable.
func TestDropCollection(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := randRecords(100, 4, 7)
	if _, _, err := s.Ingest("col", nil, 2, recs); err != nil {
		t.Fatal(err)
	}
	colDir := filepath.Join(dir, "col")
	if _, err := os.Stat(colDir); err != nil {
		t.Fatalf("data dir missing before drop: %v", err)
	}
	found, err := s.Drop("col")
	if err != nil || !found {
		t.Fatalf("drop: found=%v err=%v", found, err)
	}
	if _, err := os.Stat(colDir); !os.IsNotExist(err) {
		t.Fatalf("data dir still present after drop: %v", err)
	}
	if found, _ := s.Drop("col"); found {
		t.Fatal("second drop still found the collection")
	}
	if _, err := s.Search("col", randQueries(1, 4, 8), 1, false); err == nil {
		t.Fatal("search on dropped collection succeeded")
	}
	// Recreating under the same name starts fresh (and persists again).
	if _, _, err := s.Ingest("col", nil, 2, recs[:10]); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Collection("col")
	if c.Len() != 10 {
		t.Fatalf("recreated collection has %d records", c.Len())
	}
}

// TestDropRouteHTTP exercises DELETE /collections/{name} through the
// handler: 200 with a body, then 404.
func TestDropRouteHTTP(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, _, err := s.Ingest("col", nil, 2, randRecords(10, 3, 9)); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(s)

	req := httptest.NewRequest(http.MethodDelete, "/collections/col", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("DELETE: %d %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), `"dropped":true`) {
		t.Fatalf("DELETE body %s", w.Body)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/collections/col", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("second DELETE: %d", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/collections/never", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("DELETE unknown: %d", w.Code)
	}
}

// TestDropRaceWithSearch hammers search/ingest against a concurrent
// drop: every request must either succeed or fail cleanly with
// "unknown collection"/"closed" — no panics, no torn state. Run under
// -race in CI.
func TestDropRaceWithSearch(t *testing.T) {
	s := New(Config{DefaultShards: 2})
	defer s.Close()
	recs := randRecords(500, 4, 10)
	queries := randQueries(4, 4, 11)
	for round := 0; round < 20; round++ {
		if _, _, err := s.Ingest("col", nil, 0, recs); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					results, err := s.Search("col", queries, 3, false)
					if err != nil {
						continue // unknown collection: dropped already
					}
					for _, r := range results {
						if r.Err != nil {
							t.Errorf("search error mid-drop: %v", r.Err)
						}
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := s.Drop("col"); err != nil {
				t.Errorf("drop: %v", err)
			}
		}()
		close(start)
		wg.Wait()
	}
}

// TestOpenRejectsBadFsync: config validation happens at boot.
func TestOpenRejectsBadFsync(t *testing.T) {
	if _, err := Open(Config{DataDir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Fatal("Open accepted a bogus fsync mode")
	}
}

// TestCollectionDirNameSafety: hostile collection names never escape
// the data dir.
func TestCollectionDirNameSafety(t *testing.T) {
	for _, name := range []string{"..", "../evil", "a/b", ".", "", "x y", "ok-name_1.2"} {
		got := collectionDirName(name)
		if strings.ContainsAny(got, "/\\") || got == "." || got == ".." || got == "" {
			t.Fatalf("collectionDirName(%q) = %q is unsafe", name, got)
		}
	}
	if collectionDirName("plain") != "plain" {
		t.Fatal("clean names should map to themselves")
	}
	if collectionDirName("a/b") == collectionDirName("a/c") {
		t.Fatal("distinct unsafe names collided")
	}
}

// TestDurableIngestAttrsSurvive: attributes round-trip disk.
func TestDurableIngestAttrsSurvive(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	recs := []store.Record{
		{ID: 1, Vec: vec.Vector{1, 2}, Attrs: map[string]string{"title": "first", "lang": "go"}},
		{ID: 2, Vec: vec.Vector{3, 4}},
	}
	if _, _, err := s1.Ingest("col", nil, 1, recs); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c, _ := s2.Collection("col")
	got := c.records()
	if len(got) != 2 {
		t.Fatalf("recovered %d records", len(got))
	}
	if got[0].Attrs["title"] != "first" || got[0].Attrs["lang"] != "go" {
		t.Fatalf("attrs lost: %+v", got[0].Attrs)
	}
	if got[1].Attrs != nil {
		t.Fatalf("phantom attrs: %+v", got[1].Attrs)
	}
}
