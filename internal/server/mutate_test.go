package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/vec"
)

// TestCompactionRewritesShards forces the trigger, waits for the
// background pass, and checks it erased every tombstone without
// changing search results — and that on a durable server the segment
// on disk shed the deleted rows.
func TestCompactionRewritesShards(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.DefaultShards = 3
	cfg.CompactFraction = 0.20
	cfg.CompactMinDead = -1
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n, d, k = 600, 8, 10
	recs := randRecords(n, d, 21)
	mustIngest(t, s, "col", nil, 0, recs)
	// Delete 40% — over the 20% trigger.
	var doomed []int
	for id := 0; id < n; id++ {
		if id%5 < 2 {
			doomed = append(doomed, id)
		}
	}
	if _, deleted, _, err := s.Delete("col", doomed); err != nil || deleted != len(doomed) {
		t.Fatalf("delete: %v (deleted=%d want %d)", err, deleted, len(doomed))
	}
	live := liveSet{}
	for _, r := range recs {
		if r.ID%5 >= 2 {
			live[r.ID] = r
		}
	}

	c, _ := s.Collection("col")
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.statsSnapshot()
		if st.Compactions > 0 && !st.Compacting && st.Tombstoned == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction did not finish: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := c.statsSnapshot()
	if st.Records != len(live) {
		t.Fatalf("post-compaction records %d, want %d", st.Records, len(live))
	}
	for _, sh := range st.Shards {
		if sh.Tombstoned != 0 || sh.Live != sh.Records {
			t.Fatalf("shard %d not compacted: %+v", sh.ID, sh)
		}
	}
	for qi, q := range randQueries(15, d, 22) {
		got := searchAll(t, s, "col", []vec.Vector{q}, k)[0]
		if want := live.topK(q, k, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("post-compaction query %d diverges from model", qi)
		}
	}

	// The compaction checkpoint rewrote the on-disk state: a fresh
	// process must recover the live set without replaying the deletes.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2, _ := s2.Collection("col")
	if c2.Len() != len(live) {
		t.Fatalf("recovered %d records, want %d", c2.Len(), len(live))
	}
	if tomb := c2.statsSnapshot().Tombstoned; tomb != 0 {
		t.Fatalf("recovered collection carries %d tombstones", tomb)
	}
}

// TestUpsertValidation pins the explicit-ID and duplicate rules, and
// that a rejected batch leaves no reserved ids behind.
func TestUpsertValidation(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	v := vec.Vector{1, 0}
	if _, _, err := s.Upsert("col", nil, 0, []store.Record{{ID: AutoID, Vec: v}}); err == nil {
		t.Fatal("upsert accepted AutoID")
	}
	if _, _, err := s.Upsert("col", nil, 0, []store.Record{{ID: 1, Vec: v}, {ID: 1, Vec: v}}); err == nil {
		t.Fatal("upsert accepted a duplicate id in one batch")
	}
	// The failed batches must not have reserved id 1: a fresh upsert of
	// it succeeds and the auto-ID allocator can still hand it out.
	if _, _, err := s.Upsert("col", nil, 0, []store.Record{{ID: 1, Vec: v}}); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Collection("col")
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1", c.Len())
	}
	// Deleting from an unknown collection is an error; unknown ids are
	// no-ops that do not bump the version.
	if _, _, _, err := s.Delete("nope", []int{1}); err == nil {
		t.Fatal("delete on unknown collection succeeded")
	}
	before := c.Version()
	if _, deleted, _, err := s.Delete("col", []int{5, 6, 7}); err != nil || deleted != 0 {
		t.Fatalf("delete of unknown ids: %v (deleted=%d)", err, deleted)
	}
	if c.Version() != before {
		t.Fatal("no-op delete bumped the version")
	}
}

// TestAutoIDReuseAfterDelete documents the allocator contract: seenIDs
// tracks live ids only, so an auto-ID server may re-hand-out an id
// freed by a delete.
func TestAutoIDReuseAfterDelete(t *testing.T) {
	s := New(Config{DefaultShards: 1})
	defer s.Close()
	v := vec.Vector{1}
	mustIngest(t, s, "col", nil, 0, []store.Record{{ID: AutoID, Vec: v}, {ID: AutoID, Vec: v}})
	if _, deleted, _, err := s.Delete("col", []int{0}); err != nil || deleted != 1 {
		t.Fatalf("delete: %v (%d)", err, deleted)
	}
	if _, _, err := s.Upsert("col", nil, 0, []store.Record{{ID: 0, Vec: vec.Vector{2}}}); err != nil {
		t.Fatalf("re-upsert of deleted id: %v", err)
	}
	c, _ := s.Collection("col")
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
}

// TestMutationHTTPRoutes drives the new vector routes end to end.
func TestMutationHTTPRoutes(t *testing.T) {
	s := New(Config{DefaultShards: 2})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	id7, id4, id8 := 7, 4, 8
	// Single upsert creates the collection.
	var ur UpsertResponse
	if code := doJSON(t, ts, http.MethodPut, "/collections/c/vectors/7",
		RecordJSON{Vec: []float64{1, 0}}, &ur); code != http.StatusOK {
		t.Fatalf("upsert status %d", code)
	}
	if ur.Upserted != 1 || ur.Records != 1 {
		t.Fatalf("upsert response: %+v", ur)
	}
	// Batch upsert: one replacement, one insert.
	if code := doJSON(t, ts, http.MethodPost, "/collections/c/vectors", IngestRequest{
		Records: []RecordJSON{{ID: &id7, Vec: []float64{0, 1}}, {ID: &id8, Vec: []float64{1, 1}}},
	}, &ur); code != http.StatusOK {
		t.Fatalf("batch upsert status %d", code)
	}
	if ur.Records != 2 {
		t.Fatalf("batch upsert response: %+v", ur)
	}
	// A record without an id is rejected.
	if code := doJSON(t, ts, http.MethodPost, "/collections/c/vectors",
		IngestRequest{Records: []RecordJSON{{Vec: []float64{1, 0}}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("id-less batch upsert status %d", code)
	}
	// Search sees the replaced vector, not the original.
	var sr SearchResponse
	if code := doJSON(t, ts, http.MethodPost, "/collections/c/search",
		SearchRequest{Q: []float64{0, 1}, K: 1}, &sr); code != http.StatusOK {
		t.Fatalf("search status %d", code)
	}
	if len(sr.Matches) != 1 || sr.Matches[0].ID != 7 || sr.Matches[0].Score != 1 {
		t.Fatalf("search after upsert: %+v", sr.Matches)
	}

	// Single delete; a second delete of the same id is a 404.
	if code := doJSON(t, ts, http.MethodDelete, "/collections/c/vectors/7", nil, nil); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	if code := doJSON(t, ts, http.MethodDelete, "/collections/c/vectors/7", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete status %d", code)
	}
	// Batch delete is idempotent and reports the true count.
	var dr DeleteVectorsResponse
	if code := doJSON(t, ts, http.MethodPost, "/collections/c/vectors/delete",
		DeleteVectorsRequest{IDs: []int{8, 8, 99}}, &dr); code != http.StatusOK {
		t.Fatalf("batch delete status %d", code)
	}
	if dr.Deleted != 1 || dr.Records != 0 {
		t.Fatalf("batch delete response: %+v", dr)
	}
	// Unknown collection maps to 404.
	if code := doJSON(t, ts, http.MethodDelete, "/collections/nope/vectors/1", nil, nil); code != http.StatusNotFound {
		t.Fatalf("delete on unknown collection status %d", code)
	}
	if code := doJSON(t, ts, http.MethodPost, "/collections/nope/vectors/delete",
		DeleteVectorsRequest{IDs: []int{1}}, nil); code != http.StatusNotFound {
		t.Fatalf("batch delete on unknown collection status %d", code)
	}
	// Body/path id disagreement is a 400.
	if code := doJSON(t, ts, http.MethodPut, "/collections/c/vectors/3",
		RecordJSON{ID: &id4, Vec: []float64{1, 0}}, nil); code != http.StatusBadRequest {
		t.Fatalf("id mismatch status %d", code)
	}
}
