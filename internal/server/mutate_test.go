package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// modelSet is the map-based reference the interleaving harness checks
// the server against: the live record set, nothing else.
type modelSet map[int]store.Record

func (m modelSet) upsert(recs []store.Record) {
	for _, r := range recs {
		m[r.ID] = r
	}
}

func (m modelSet) delete(ids []int) int {
	n := 0
	for _, id := range ids {
		if _, ok := m[id]; ok {
			delete(m, id)
			n++
		}
	}
	return n
}

// topK is the model's search answer: full scan over the live set with
// the canonical (score descending, ID ascending) ordering — the exact
// contract the server's masked kernels must reproduce bit-identically.
func (m modelSet) topK(q vec.Vector, k int, unsigned bool) []Hit {
	recs := make([]store.Record, 0, len(m))
	for _, r := range m {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return exactTopK(recs, q, k, unsigned)
}

// mutationScript drives a deterministic random interleaving of upsert,
// delete and search ops against both the server and the model,
// failing on the first divergence. Searches mix single queries and
// batches (the tiled executor path) and both variants.
func mutationScript(t *testing.T, s *Server, m modelSet, name string, seed uint64, ops, universe, d, k int) {
	t.Helper()
	if _, err := s.EnsureCollection(name, &IndexSpec{Kind: KindExact}, 0); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed)
	randVec := func() vec.Vector { return vec.Vector(rng.NormalVec(d)) }
	for op := 0; op < ops; op++ {
		switch r := rng.Float64(); {
		case r < 0.35: // upsert batch: mix of fresh inserts and replacements
			nb := 1 + rng.Intn(8)
			batch := make([]store.Record, 0, nb)
			seen := map[int]struct{}{}
			for len(batch) < nb {
				id := rng.Intn(universe)
				if _, dup := seen[id]; dup {
					continue
				}
				seen[id] = struct{}{}
				batch = append(batch, store.Record{ID: id, Vec: randVec()})
			}
			if _, _, err := s.Upsert(name, &IndexSpec{Kind: KindExact}, 0, batch); err != nil {
				t.Fatalf("op %d: upsert: %v", op, err)
			}
			m.upsert(batch)
		case r < 0.55: // delete batch, often including unknown ids
			nb := 1 + rng.Intn(8)
			ids := make([]int, nb)
			for i := range ids {
				ids[i] = rng.Intn(universe + universe/4) // some never-ingested ids
			}
			_, deleted, _, err := s.Delete(name, ids)
			if err != nil {
				t.Fatalf("op %d: delete: %v", op, err)
			}
			if want := m.delete(ids); deleted != want {
				t.Fatalf("op %d: deleted %d records, model says %d", op, deleted, want)
			}
		default: // search: single query or small batch, signed or unsigned
			nq := 1 + rng.Intn(3)
			qs := make([]vec.Vector, nq)
			for i := range qs {
				qs[i] = randVec()
			}
			unsigned := rng.Float64() < 0.3
			results, err := s.Search(name, qs, k, unsigned)
			if err != nil {
				t.Fatalf("op %d: search: %v", op, err)
			}
			for qi, res := range results {
				if res.Err != nil {
					t.Fatalf("op %d query %d: %v", op, qi, res.Err)
				}
				want := m.topK(qs[qi], k, unsigned)
				if !reflect.DeepEqual(res.Hits, want) {
					t.Fatalf("op %d query %d (unsigned=%v): hits diverge from model\n got %v\nwant %v",
						op, qi, unsigned, res.Hits, want)
				}
				for _, h := range res.Hits {
					if _, live := m[h.ID]; !live {
						t.Fatalf("op %d query %d: hit on dead id %d (cached=%v)", op, qi, h.ID, res.Cached)
					}
				}
			}
		}
	}
}

// TestMutationInterleavingMatchesReference randomizes upserts, deletes
// and searches against an in-memory server and checks every search
// bit-identically (hits and ordering) against the map-based model —
// across shard counts, with the cache on (its invalidation is part of
// the contract under test) and compaction triggered aggressively so
// scans race snapshot swaps.
func TestMutationInterleavingMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, compact := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/compact=%v", shards, compact), func(t *testing.T) {
				cfg := Config{DefaultShards: shards}
				if compact {
					cfg.CompactFraction = 0.05
					cfg.CompactMinDead = -1 // any tombstone count qualifies
				} else {
					cfg.CompactFraction = -1 // disabled: tombstones accumulate
				}
				s := New(cfg)
				defer s.Close()
				mutationScript(t, s, modelSet{}, "col", 42+uint64(shards), 400, 300, 8, 5)
			})
		}
	}
}

// TestMutationDurableRestartAndCrash runs the interleaving against a
// durable (fsync=always) server, then checks both recovery paths
// against the model: a kill -9 image (directory copied out from under
// the live server, never closed) and a clean restart. Both must serve
// bit-identical results.
func TestMutationDurableRestartAndCrash(t *testing.T) {
	dir := t.TempDir()
	const universe, d, k = 200, 6, 5
	s1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	m := modelSet{}
	mutationScript(t, s1, m, "col", 99, 250, universe, d, k)

	queries := randQueries(20, d, 7)
	verify := func(s *Server, label string) {
		t.Helper()
		for qi, q := range queries {
			got := searchAll(t, s, "col", []vec.Vector{q}, k)[0]
			if want := m.topK(q, k, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d: hits diverge from model\n got %v\nwant %v", label, qi, got, want)
			}
		}
	}
	verify(s1, "pre-crash")

	// kill -9: copy the directory while the server is live and unclosed.
	crashed := t.TempDir()
	copyTree(t, dir, crashed)
	s2, err := Open(durableConfig(crashed))
	if err != nil {
		t.Fatal(err)
	}
	verify(s2, "kill-9 recovery")
	if c, _ := s2.Collection("col"); c.Len() != len(m) {
		t.Fatalf("kill-9 recovery: %d live records, model has %d", c.Len(), len(m))
	}
	// The recovered server keeps mutating correctly.
	mutationScript(t, s2, m.clone(), "col", 123, 60, universe, d, k)
	s2.Close()

	// Clean restart of the original directory.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	verify(s3, "clean restart")
	mutationScript(t, s3, m, "col", 321, 60, universe, d, k)
}

func (m modelSet) clone() modelSet {
	out := make(modelSet, len(m))
	for id, r := range m {
		out[id] = r
	}
	return out
}

// TestCacheNeverServesTombstonedHits pins the satellite contract
// directly: a cached result list containing an id must stop being
// served the moment that id is deleted or its vector replaced.
func TestCacheNeverServesTombstonedHits(t *testing.T) {
	s := New(Config{DefaultShards: 2}) // cache on (default capacity)
	defer s.Close()
	d := 4
	recs := randRecords(50, d, 11)
	if _, _, err := s.Ingest("col", nil, 0, recs); err != nil {
		t.Fatal(err)
	}
	q := vec.Vector(xrand.New(12).NormalVec(d))

	first := searchAll(t, s, "col", []vec.Vector{q}, 3)[0]
	// Same query again: must now be a cache hit.
	res, err := s.Search("col", []vec.Vector{q}, 3, false)
	if err != nil || res[0].Err != nil {
		t.Fatalf("search: %v / %v", err, res[0].Err)
	}
	if !res[0].Cached {
		t.Fatal("second identical search was not served from cache")
	}

	// Delete the top hit: the cached entry must not survive.
	top := first[0].ID
	if _, deleted, _, err := s.Delete("col", []int{top}); err != nil || deleted != 1 {
		t.Fatalf("delete: %v (deleted=%d)", err, deleted)
	}
	after, err := s.Search("col", []vec.Vector{q}, 3, false)
	if err != nil || after[0].Err != nil {
		t.Fatalf("search: %v / %v", err, after[0].Err)
	}
	if after[0].Cached {
		t.Fatal("search after delete served a stale cached result")
	}
	for _, h := range after[0].Hits {
		if h.ID == top {
			t.Fatalf("search after delete returned tombstoned id %d", top)
		}
	}

	// Replace the new top hit's vector with its negation: the cached
	// score would be stale, so the entry must be gone too.
	top2 := after[0].Hits[0].ID
	neg := make(vec.Vector, d)
	var old vec.Vector
	for _, r := range recs {
		if r.ID == top2 {
			old = r.Vec
		}
	}
	for i, v := range old {
		neg[i] = -v
	}
	if _, _, err := s.Upsert("col", nil, 0, []store.Record{{ID: top2, Vec: neg}}); err != nil {
		t.Fatal(err)
	}
	final, err := s.Search("col", []vec.Vector{q}, 3, false)
	if err != nil || final[0].Err != nil {
		t.Fatalf("search: %v / %v", err, final[0].Err)
	}
	if final[0].Cached {
		t.Fatal("search after upsert served a stale cached result")
	}
	for _, h := range final[0].Hits {
		if h.ID == top2 {
			t.Fatalf("replaced record %d still ranked by its old score", top2)
		}
	}
}

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
	if _, _, err := s.Ingest("col", nil, 0, recs); err != nil {
		t.Fatal(err)
	}
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
	live := make(modelSet)
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
	if _, _, err := s.Ingest("col", nil, 0, []store.Record{{ID: AutoID, Vec: v}, {ID: AutoID, Vec: v}}); err != nil {
		t.Fatal(err)
	}
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

// TestJoinSkipsTombstonedRows: joins run over live views, so a deleted
// record can appear on neither side of a reported pair.
func TestJoinSkipsTombstonedRows(t *testing.T) {
	s := New(Config{DefaultShards: 2})
	defer s.Close()
	recs := []store.Record{
		{ID: 0, Vec: vec.Vector{1, 0}},
		{ID: 1, Vec: vec.Vector{0.9, 0.1}},
		{ID: 2, Vec: vec.Vector{0, 1}},
	}
	if _, _, err := s.Ingest("col", nil, 0, recs); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Delete("col", []int{1}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Join(selfJoinRequest("col", JoinRequest{S: 0.1, TopK: 3}))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range resp.Pairs {
		if p.DataID == 1 || p.QueryID == 1 {
			t.Fatalf("join reported tombstoned record: %+v", p)
		}
	}
}
