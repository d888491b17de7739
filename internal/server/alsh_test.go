package server

// Tests for the alsh write path: the banding index is extended on
// ingest/upsert instead of rebuilt, and a vector the SIMPLE map cannot
// take is a 400, not a dead process.

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// ballRecord is a record with the given id inside the unit ball.
func ballRecord(rng *xrand.RNG, id, d int) store.Record {
	return store.Record{ID: id, Vec: vec.Scaled(rng.UnitVec(d), 0.2+0.8*rng.Float64())}
}

// appendHits appends, bit for bit, a hit list behind its length.
func appendHits(out []uint64, hs []Hit) []uint64 {
	out = append(out, uint64(len(hs)))
	for _, h := range hs {
		out = append(out, uint64(h.ID), math.Float64bits(h.Score))
	}
	return out
}

// alshAnswers renders, bit for bit, what collection "p" of s answers for
// queries — record i of collection "q" — at k: each query alone, then all
// as one batch, signed and unsigned; then an lsh join against "q" at
// (cs, s) = (0.8·0.9, 0.9), signed and unsigned.
func alshAnswers(t *testing.T, s *Server, queries []vec.Vector, k int) []uint64 {
	t.Helper()
	var out []uint64
	c, _ := s.Collection("p")
	for _, unsigned := range []bool{false, true} {
		for _, q := range queries {
			hits, err := c.SearchOne(context.Background(), s.pool, q, k, unsigned)
			if err != nil {
				t.Fatal(err)
			}
			out = appendHits(out, hits)
		}
		res, err := s.Search("p", queries, k, unsigned)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			out = appendHits(out, r.Hits)
		}
		variant := core.Signed
		if unsigned {
			variant = core.Unsigned
		}
		resp, err := s.Join(JoinRequest{Data: "p", Queries: "q", Engine: "lsh", S: 0.9, C: 0.8, Variant: variant.String()})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, uint64(len(resp.Pairs)))
		for _, p := range resp.Pairs {
			out = append(out, uint64(p.QueryID), uint64(p.DataID), math.Float64bits(p.Value))
		}
	}
	return out
}

// oneIndexAnswers is alshAnswers from one lsh.Index over live — the
// records in id order, row i of one store — built from the hash functions
// an alsh collection of spec and seed samples: each query's candidates,
// verified through flat.Store.OfferRows, are its search answers. Its join
// pair stops at the first table step that yields one: the query walks
// the tables in turn (lsh.Index.Step), and the best candidate of the
// union through that step, at ≥ cs, is the pair.
func oneIndexAnswers(t *testing.T, spec IndexSpec, seed uint64, live []store.Record, queries []vec.Vector, k int) []uint64 {
	t.Helper()
	rows := make([]vec.Vector, len(live))
	for i, r := range live {
		rows[i] = r.Vec
	}
	hashes, err := newALSHHashes(spec, len(rows[0]), seed)
	if err != nil {
		t.Fatal(err)
	}
	ix := hashes.Extend(rows)
	fs, err := flat.FromVectors(rows)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(q vec.Vector, k int, unsigned bool) []Hit {
		var acc flat.Acc
		acc.Reset(k)
		fs.OfferRows(nil, &acc, q, ix.AppendCandidates(nil, q, spec.probe(unsigned)), nil, unsigned)
		hits := make([]Hit, 0, k)
		for _, h := range acc.Hits() {
			hits = append(hits, Hit{ID: live[h.Index].ID, Score: h.Score})
		}
		return hits
	}
	qs, err := flat.FromVectors(queries)
	if err != nil {
		t.Fatal(err)
	}
	const cs = 0.8 * 0.9
	var out []uint64
	for _, unsigned := range []bool{false, true} {
		for range 2 { // alone, then batched
			for _, q := range queries {
				out = appendHits(out, answer(q, k, unsigned))
			}
		}
		var qk lsh.QueryKeys
		ix.HashQueries(&qk, qs, 0, len(queries), spec.probe(unsigned))
		var pairs []uint64
		for qi, q := range queries {
			var w lsh.Walk
			var acc flat.Acc
			acc.Reset(1)
			for step := 0; step < ix.L && (len(acc.Hits()) == 0 || acc.Hits()[0].Score < cs); step++ {
				from := len(w.IDs)
				if err := ix.Step(&w, &qk, qi, step); err != nil {
					t.Fatal(err)
				}
				fs.OfferRows(nil, &acc, q, w.IDs[from:], nil, unsigned)
			}
			if best := acc.Hits(); len(best) == 1 && best[0].Score >= cs {
				pairs = append(pairs, uint64(qi), uint64(live[best[0].Index].ID), math.Float64bits(best[0].Score))
			}
		}
		out = append(append(out, uint64(len(pairs)/3)), pairs...)
	}
	return out
}

// TestALSHShardCountInvariance: an alsh collection is the paper's one (K,
// L) index split by rows — every shard extends the collection's one set
// of hash functions — so the same records answer the same at 1, 2 and 4
// shards: searches, batches and lsh joins, bit for bit, and equal to one
// lsh.Index over all the live rows. It holds as ingested, after deletes
// and a compaction, and after a close and a reopen from the data dir.
func TestALSHShardCountInvariance(t *testing.T) {
	const d, n, nq, k = 16, 900, 40, 10
	spec := IndexSpec{Kind: KindALSH, K: 6, L: 12}
	rng := xrand.New(12)
	queries := make([]vec.Vector, nq)
	qrecs := make([]store.Record, nq)
	recs := make([]store.Record, n)
	for i := range recs {
		recs[i] = ballRecord(rng, i, d)
	}
	for i := range queries {
		queries[i] = rng.UnitVec(d)
		qrecs[i] = store.Record{ID: i, Vec: queries[i]}
		recs[7*i].Vec = vec.Scaled(queries[i], 0.95) // a planted partner
	}
	live := slices.Clone(recs)
	shardCounts := []int{1, 2, 4}
	dirs := make([]string, len(shardCounts))
	servers := make([]*Server, len(shardCounts))
	open := func() {
		for i, shards := range shardCounts {
			cfg := durableConfig(dirs[i])
			cfg.CacheCapacity, cfg.CompactFraction = -1, -1
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			servers[i] = s
			if _, ok := s.Collection("p"); ok {
				continue // recovered
			}
			// "p" first, so it gets the same collection seed on every server.
			if _, _, err := s.Ingest("p", &spec, shards, recs); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Ingest("q", nil, shards, qrecs); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(stage string) {
		t.Helper()
		c, _ := servers[0].Collection("p")
		want := oneIndexAnswers(t, spec, c.seed, live, queries, k)
		if len(want) < 4*nq*(k+1) {
			t.Fatalf("%s: the reference answers little; the test compares next to nothing", stage)
		}
		for i, s := range servers {
			if got := alshAnswers(t, s, queries, k); !slices.Equal(got, want) {
				t.Fatalf("%s: %d shards answer differently from one index over all the rows", stage, shardCounts[i])
			}
		}
	}
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	open()
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	check("ingested")

	var doomed []int
	for id := 1; id < n; id += 5 {
		if id%7 != 0 {
			doomed = append(doomed, id)
		}
	}
	live = slices.DeleteFunc(live, func(r store.Record) bool { return slices.Contains(doomed, r.ID) })
	for _, s := range servers {
		if _, _, _, err := s.Delete("p", doomed); err != nil {
			t.Fatal(err)
		}
		c, _ := s.Collection("p")
		if err := c.compact(); err != nil {
			t.Fatal(err)
		}
	}
	check("compacted")

	for _, s := range servers {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	open()
	check("reopened")
}

// TestALSHOverNormRejectedOverHTTP: a vector outside the unit ball used
// to panic on the shard owner goroutine and kill the process. It must
// be a 400 naming the record, on every write route, and leave no trace.
func TestALSHOverNormRejectedOverHTTP(t *testing.T) {
	s := New(Config{DefaultShards: 2})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	id0, id1, id7 := 0, 1, 7
	if code := doJSON(t, ts, http.MethodPut, "/collections/a", IngestRequest{
		Index:   &IndexSpec{Kind: KindALSH},
		Records: []RecordJSON{{ID: &id0, Vec: []float64{1, 0}}, {ID: &id1, Vec: []float64{0, 1}}},
	}, nil); code != http.StatusOK {
		t.Fatalf("seed ingest status %d", code)
	}
	c, _ := s.Collection("a")
	version := c.Version()
	bad := []float64{3, 4}
	for _, tc := range []struct {
		name, method, path string
		body               any
	}{
		{"ingest", http.MethodPut, "/collections/a", IngestRequest{Records: []RecordJSON{{ID: &id7, Vec: bad}}}},
		{"auto-id ingest", http.MethodPut, "/collections/a", IngestRequest{Records: []RecordJSON{{Vec: []float64{0.1, 0.1}}, {Vec: bad}}}},
		{"batch upsert", http.MethodPost, "/collections/a/vectors", IngestRequest{Records: []RecordJSON{{ID: &id1, Vec: []float64{0.5, 0}}, {ID: &id7, Vec: bad}}}},
		{"single upsert", http.MethodPut, "/collections/a/vectors/7", RecordJSON{Vec: bad}},
	} {
		var resp map[string]string
		if code := doJSON(t, ts, tc.method, tc.path, tc.body, &resp); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, code)
		}
		if msg := resp["error"]; !strings.Contains(msg, "norm 5") || (tc.name != "auto-id ingest" && !strings.Contains(msg, "id 7")) {
			t.Fatalf("%s: error does not name the record and its norm: %q", tc.name, msg)
		}
	}
	if c.Version() != version || c.Len() != 2 {
		t.Fatalf("rejected batches left a trace: version %d -> %d, len %d", version, c.Version(), c.Len())
	}
	// Id 7 was never reserved, id 1 still holds its old vector, and the
	// server still serves.
	if code := doJSON(t, ts, http.MethodPut, "/collections/a",
		IngestRequest{Records: []RecordJSON{{ID: &id7, Vec: []float64{0.3, 0.3}}}}, nil); code != http.StatusOK {
		t.Fatalf("ingest of the rejected id status %d", code)
	}
	var sr SearchResponse
	if code := doJSON(t, ts, http.MethodPost, "/collections/a/search",
		SearchRequest{Q: []float64{0, 1}, K: 1}, &sr); code != http.StatusOK {
		t.Fatalf("search status %d", code)
	}
	if len(sr.Matches) != 1 || sr.Matches[0].ID != 1 || sr.Matches[0].Score != 1 {
		t.Fatalf("search after rejected upsert: %+v", sr.Matches)
	}
}

// TestShardBuildPanicBecomesError: whatever panics while a shard builds
// its next snapshot must surface as the mutation's error (a 500: the
// fault is the server's) — rolled back like any failed build — instead
// of killing the owner goroutine's process. The panic is injected by publishing an index whose banding
// structure is missing.
func TestShardBuildPanicBecomesError(t *testing.T) {
	var logs syncBuffer
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&logs, nil)))
	defer slog.SetDefault(old)

	s := New(Config{DefaultShards: 1})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	id0, id1 := 0, 1
	if code := doJSON(t, ts, http.MethodPut, "/collections/a", IngestRequest{
		Index: &IndexSpec{Kind: KindALSH}, Records: []RecordJSON{{ID: &id0, Vec: []float64{0.6, 0}}},
	}, nil); code != http.StatusOK {
		t.Fatalf("seed ingest status %d", code)
	}
	c, _ := s.Collection("a")
	sh := c.shards[0]
	good := sh.snap.Load()
	sh.commit(&shardSnap{ids: good.ids, fs: good.fs, index: &alshIndex{fs: good.fs, u: 1}}, false)

	write := IngestRequest{Records: []RecordJSON{{ID: &id1, Vec: []float64{0, 0.6}}}}
	version := c.Version()
	for _, route := range []struct{ method, path string }{
		{http.MethodPut, "/collections/a"},
		{http.MethodPost, "/collections/a/vectors"},
	} {
		var resp map[string]string
		if code := doJSON(t, ts, route.method, route.path, write, &resp); code != http.StatusInternalServerError {
			t.Fatalf("%s %s: status %d, want 500", route.method, route.path, code)
		}
		if !strings.Contains(resp["error"], "panicked") {
			t.Fatalf("%s %s: error %q does not report the panic", route.method, route.path, resp["error"])
		}
	}
	if !strings.Contains(logs.String(), "alshIndex).extend") {
		t.Fatalf("the panic's stack was not logged:\n%s", logs.String())
	}
	if c.Version() != version || c.Len() != 1 {
		t.Fatalf("failed builds left a trace: version %d -> %d, len %d", version, c.Version(), c.Len())
	}
	// The owner goroutine survived: with a sound snapshot back in place
	// the same write goes through, so its id was not left reserved.
	sh.commit(good, false)
	if code := doJSON(t, ts, http.MethodPut, "/collections/a", write, nil); code != http.StatusOK {
		t.Fatalf("ingest after the panics status %d", code)
	}
	if code := doJSON(t, ts, http.MethodGet, "/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
}

// TestALSHUpsertsDoNotPinOldStores: an extended index descends from
// every earlier snapshot's index, so anything it kept of them — row
// views into their stores — would keep one store per write alive.
func TestALSHUpsertsDoNotPinOldStores(t *testing.T) {
	const d, n, writes = 16, 512, 12
	rng := xrand.New(9)
	c, err := newCollection("pin", IndexSpec{Kind: KindALSH}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	c.compactFrac = -1
	recs := make([]store.Record, n)
	for i := range recs {
		recs[i] = ballRecord(rng, i, d)
	}
	if _, err := c.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	var freed atomic.Int32
	for w := 0; w < writes; w++ {
		runtime.SetFinalizer(c.shards[0].snap.Load().fs, func(*flat.Store) { freed.Add(1) })
		if _, err := c.Upsert([]store.Record{ballRecord(rng, rng.Intn(n), d)}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < writes && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := freed.Load(); got < writes {
		t.Fatalf("only %d of %d superseded shard stores were collected: the live snapshot pins the rest", got, writes)
	}
	if _, err := c.SearchOne(context.Background(), NewPool(1), recs[0].Vec, 3, true); err != nil {
		t.Fatal(err)
	}
}

// TestALSHBatchAllocs: a warm alsh batch allocates a handful per tile and
// nothing per query: the SIMPLE map writes each probe into the hashing
// scratch, and candidate sets, accumulators, probe stores and hit lists
// all come from pooled scratch, not one slice per query per shard.
func TestALSHBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const shards, nq, k = 4, 2 * searchTileQ, 10
	s, users := benchServer(t, 2000, 16, shards, IndexSpec{Kind: KindALSH})
	queries := users[:nq]
	for _, q := range queries {
		vec.Normalize(q)
	}
	search := func() {
		res, err := s.Search("bench", queries, k, true)
		if err != nil || res[0].Err != nil || len(res[0].Hits) == 0 {
			t.Fatalf("batch search: %v, %+v", err, res[0])
		}
	}
	search()
	const tiles = nq / searchTileQ
	if a := testing.AllocsPerRun(20, search); a > 8*tiles+8 {
		t.Errorf("a warm %d-query unsigned batch on %d shards allocates %v times, want <= %d", nq, shards, a, 8*tiles+8)
	} else {
		t.Logf("%v allocations", a)
	}
}

// indexBuildAttrs sends one traced write and returns the attributes of
// its index_build span.
func indexBuildAttrs(t *testing.T, ts *httptest.Server, method, path string, body any) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
	}
	id, _, ok := trace.Parse(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("%s %s: no traceparent on the response", method, path)
	}
	var exp trace.Exported
	if code := doJSON(t, ts, http.MethodGet, "/debug/trace/"+id, nil, &exp); code != http.StatusOK {
		t.Fatalf("debug trace status %d", code)
	}
	for _, sp := range exp.Spans {
		if sp.Name == "index_build" {
			return sp.Attrs
		}
	}
	t.Fatalf("%s %s: trace has no index_build span: %+v", method, path, exp.Spans)
	return nil
}

// TestIndexBuildStageAndSpan: write-side index work is visible — every
// ingest, upsert and delete lands in
// ipsd_stage_seconds{stage="index_build"}, and a traced ingest or upsert
// carries an index_build span saying how many shards rebuilt their index
// and how many extended it.
func TestIndexBuildStageAndSpan(t *testing.T) {
	s := New(Config{DefaultShards: 2, Tracing: true})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	indexBuild := func(method, path string, body any) map[string]int64 {
		t.Helper()
		return indexBuildAttrs(t, ts, method, path, body)
	}
	recs := func(ids ...int) []RecordJSON {
		out := make([]RecordJSON, len(ids))
		for i := range ids {
			out[i] = RecordJSON{ID: &ids[i], Vec: []float64{0.1 * float64(ids[i]%7), 0.5}}
		}
		return out
	}
	// First write: both shards are empty, so both build from scratch.
	if a := indexBuild(http.MethodPut, "/collections/a", IngestRequest{Index: &IndexSpec{Kind: KindALSH}, Records: recs(0, 1, 2, 3)}); a["rebuild"] != 2 || a["extend"] != 0 {
		t.Fatalf("first ingest index_build attrs = %v, want rebuild=2", a)
	}
	// An alsh extend hashes the batch but copies the ids of the touched
	// shards' bucket tables: rows_copied is their rows — 3 + 3, then the 4
	// of the shard the upsert lands in.
	if a := indexBuild(http.MethodPut, "/collections/a", IngestRequest{Records: recs(4, 5)}); a["extend"] != 2 || a["rebuild"] != 0 || a["rows_copied"] != 6 {
		t.Fatalf("second ingest index_build attrs = %v, want extend=2 rows_copied=6", a)
	}
	if a := indexBuild(http.MethodPost, "/collections/a/vectors", IngestRequest{Records: recs(2)}); a["extend"] != 1 || a["rebuild"] != 0 || a["rows_copied"] != 4 {
		t.Fatalf("upsert index_build attrs = %v, want extend=1 rows_copied=4", a)
	}
	// An exact collection's store is its index: it grows with the store.
	if a := indexBuild(http.MethodPut, "/collections/e", IngestRequest{Records: recs(0, 1)}); a["rebuild"] != 2 {
		t.Fatalf("exact ingest index_build attrs = %v, want rebuild=2", a)
	}
	if a := indexBuild(http.MethodPut, "/collections/e", IngestRequest{Records: recs(2)}); a["extend"] != 1 || a["rebuild"] != 0 {
		t.Fatalf("exact re-ingest index_build attrs = %v, want extend=1", a)
	}
	// A row is a bulk batch of shard 1's four (a 64th or more), so the
	// norm-sorted view tiers it by size class, ⌊log₄ rows⌋: a run of its
	// own behind the base run of a larger class, as are the next two,
	// three runs of class 0; the fourth row merges with them into a run
	// of class 1, the base's, so it folds all five into the base.
	if a := indexBuild(http.MethodPut, "/collections/n", IngestRequest{Index: &IndexSpec{Kind: KindNormScan}, Records: recs(0, 1, 2, 3, 4, 5, 6, 7, 8)}); a["rebuild"] != 2 {
		t.Fatalf("normscan ingest index_build attrs = %v, want rebuild=2", a)
	}
	for _, id := range []int{9, 11, 13} {
		if a := indexBuild(http.MethodPut, "/collections/n", IngestRequest{Records: recs(id)}); a["extend"] != 1 || a["rebuild"] != 0 || a["rows_copied"] != 1 {
			t.Fatalf("normscan re-ingest of id %d: index_build attrs = %v, want extend=1 rows_copied=1", id, a)
		}
	}
	if a := indexBuild(http.MethodPut, "/collections/n", IngestRequest{Records: recs(15)}); a["extend"] != 0 || a["rebuild"] != 1 || a["rows_copied"] != 8 {
		t.Fatalf("normscan fold index_build attrs = %v, want rebuild=1 rows_copied=8", a)
	}

	// metrics returns the /metrics page and its index_builds_total lines
	// for collection a.
	metrics := func() (page, builds string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var text bytes.Buffer
		if _, err := text.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		validatePromText(t, text.String())
		for _, line := range strings.Split(text.String(), "\n") {
			if strings.HasPrefix(line, `ipsd_index_builds_total{collection="a"`) {
				builds += line + "\n"
			}
		}
		return text.String(), builds
	}
	_, before := metrics()
	// A delete re-masks the index of the shard it lands in: the write's
	// fan-out is timed as index_build, but it neither extends nor rebuilds.
	if code := doJSON(t, ts, http.MethodPost, "/collections/a/vectors/delete", DeleteVectorsRequest{IDs: []int{3}}, nil); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	page, after := metrics()
	if before == "" || after != before {
		t.Fatalf("a delete moved the index build counters:\n%s->\n%s", before, after)
	}
	if want := `ipsd_stage_seconds_count{stage="index_build",collection="a"} 4`; !strings.Contains(page, want) {
		t.Fatalf("/metrics lacks %q", want)
	}
}

// TestALSHSearchDuringWrites: searches — single ones, and batches hashed
// a tile at a time — run against the previous snapshot's banding index
// while the owner goroutines extend it, so a hit must always pair an id
// with that id's score — record i is ((i mod 97)+1)/100·e_{i mod d},
// which the all-ones query scores at exactly that scale whichever
// snapshot answers.
func TestALSHSearchDuringWrites(t *testing.T) {
	const d, batches, batchSize, searchers = 8, 20, 40, 3
	mkRec := func(i int) store.Record {
		v := vec.New(d)
		v[i%d] = float64(i%97+1) / 100
		return store.Record{ID: i, Vec: v}
	}
	batch := func(lo int) []store.Record {
		recs := make([]store.Record, batchSize)
		for i := range recs {
			recs[i] = mkRec(lo + i)
		}
		return recs
	}
	s := New(Config{DefaultShards: 2, CacheCapacity: -1})
	defer s.Close()
	if _, _, err := s.Ingest("c", &IndexSpec{Kind: KindALSH, K: 2, L: 8}, 2, batch(0)); err != nil {
		t.Fatal(err)
	}
	q := vec.New(d)
	for i := range q {
		q[i] = 1
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for b := 1; b < batches; b++ {
			if _, _, err := s.Ingest("c", nil, 0, batch(b*batchSize)); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			if _, _, err := s.Upsert("c", nil, 0, batch((b - 1) * batchSize)[:5]); err != nil {
				t.Errorf("upsert: %v", err)
				return
			}
		}
	}()
	for w := 0; w < searchers; w++ {
		queries := []vec.Vector{q}
		for len(queries) < 1+w*(searchTileQ+1)/2 { // 1, 17 and 34 queries: no tile, one, two
			queries = append(queries, vec.Scaled(q, 1/float64(len(queries))))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				res, err := s.Search("c", queries, 20, true)
				for i := 0; i < len(res) && err == nil; i++ {
					err = res[i].Err
				}
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				for i, r := range res {
					for _, h := range r.Hits {
						if want := float64(h.ID%97+1) / 100 * queries[i][0]; h.Score != want {
							t.Errorf("query %d: hit id %d scored %v, want %v", i, h.ID, h.Score, want)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if c, _ := s.Collection("c"); c.Len() != batches*batchSize {
		t.Fatalf("collection holds %d records, want %d", c.Len(), batches*batchSize)
	}
}

// TestALSHExplainCountsCandidates: an explained alsh search reports, per
// shard, the candidates it verified — the live, distinct ids the shard's
// banding index names for q, and for −q when unsigned — and answers
// bit-identically to the unexplained search.
func TestALSHExplainCountsCandidates(t *testing.T) {
	const d, k = 16, 10
	s := New(Config{DefaultShards: 3, CacheCapacity: -1, CompactFraction: -1})
	defer s.Close()
	rng := xrand.New(8)
	recs := make([]store.Record, 900)
	for i := range recs {
		recs[i] = ballRecord(rng, i, d)
	}
	if _, _, err := s.Ingest("a", &IndexSpec{Kind: KindALSH, K: 4, L: 8}, 0, recs); err != nil {
		t.Fatal(err)
	}
	var doomed []int
	for id := 0; id < len(recs); id += 5 {
		doomed = append(doomed, id)
	}
	if _, _, _, err := s.Delete("a", doomed); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Collection("a")
	total := 0
	for trial := 0; trial < 8; trial++ {
		q := vec.Scaled(rng.UnitVec(d), 0.9) // inside the ball: hashed as is
		for _, unsigned := range []bool{false, true} {
			res, err := s.SearchWithOpts(context.Background(), "a", []vec.Vector{q}, SearchOpts{K: k, Unsigned: unsigned, Explain: true})
			if err == nil {
				err = res[0].Err
			}
			if err != nil {
				t.Fatal(err)
			}
			got, ex := res[0].Hits, res[0].Explain.Shards
			want, err := c.SearchOne(context.Background(), s.pool, q, k, unsigned)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d unsigned=%v: explained %v, plain %v (%v)", trial, unsigned, got, want, err)
			}
			probes := []vec.Vector{q}
			if unsigned {
				probes = append(probes, vec.Neg(q))
			}
			for i, sh := range c.shards {
				sn := sh.snap.Load()
				live := 0
				for _, id := range sn.index.(*alshIndex).ix.Candidates(probes...) {
					if !sn.dead.Dead(id) {
						live++
					}
				}
				if ex[i].Candidates != live {
					t.Fatalf("trial %d unsigned=%v shard %d: explain reports %d candidates, the index names %d live", trial, unsigned, i, ex[i].Candidates, live)
				}
				total += live
			}
		}
	}
	if total == 0 {
		t.Fatal("no query had a candidate; the test compares nothing")
	}
}
