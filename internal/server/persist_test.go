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
	"testing"

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
	mustIngest(t, s1, "zeta", &IndexSpec{Kind: KindALSH}, 2, recs)
	mustIngest(t, s1, "alpha", &IndexSpec{Kind: KindALSH}, 2, recs[:500])
	wide := &IndexSpec{Kind: KindALSH, K: 17, L: 4}
	for _, part := range [][]store.Record{recs[:1500], recs[1500:]} {
		mustIngest(t, s1, "wide", wide, 2, part)
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
	mustIngest(t, s, "col", nil, 2, recs)
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
	mustIngest(t, s, "col", nil, 2, recs[:10])
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
	mustIngest(t, s, "col", nil, 2, randRecords(10, 3, 9))
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
