package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// bruteJoin computes the expected served join in record-ID space: for
// each query record, the k best data records (1 for threshold mode) at
// value ≥ cs, under the canonical (query ID asc; value desc; data ID
// asc) ordering, optionally excluding identity pairs.
func bruteJoin(data, queries []store.Record, cs float64, unsigned bool, k int, excludeSelf bool) []JoinPair {
	if k <= 0 {
		k = 1
	}
	var out, cands []JoinPair
	qs := slices.SortedFunc(slices.Values(queries), func(a, b store.Record) int { return cmp.Compare(a.ID, b.ID) })
	for _, q := range qs {
		cands = cands[:0]
		for _, p := range data {
			if excludeSelf && p.ID == q.ID {
				continue
			}
			v := vec.Dot(p.Vec, q.Vec)
			if unsigned && v < 0 {
				v = -v
			}
			if v >= cs {
				cands = append(cands, JoinPair{DataID: p.ID, QueryID: q.ID, Value: v})
			}
		}
		slices.SortFunc(cands, func(a, b JoinPair) int {
			if a.Value != b.Value {
				return cmp.Compare(b.Value, a.Value)
			}
			return cmp.Compare(a.DataID, b.DataID)
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		out = append(out, cands...)
	}
	return out
}

func samePairs(t *testing.T, label string, want, got []JoinPair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i, w := range want {
		if g := got[i]; g.DataID != w.DataID || g.QueryID != w.QueryID || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("%s: pair %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// joinWorkload ingests two collections with scattered record IDs (so
// the ID→shard partition is exercised) and returns their records.
func joinWorkload(t *testing.T, s *Server, nd, nq, d int, seed uint64) (data, queries []store.Record) {
	t.Helper()
	rng := xrand.New(seed)
	data = make([]store.Record, nd)
	for i := range data {
		data[i] = store.Record{ID: i*3 + 1, Vec: vec.Vector(rng.UnitVec(d))}
	}
	queries = make([]store.Record, nq)
	for i := range queries {
		queries[i] = store.Record{ID: i * 7, Vec: vec.Vector(rng.UnitVec(d))}
	}
	// Plant strong partners for a few queries.
	for i := 0; i < nq; i += 3 {
		data[(i*5)%nd].Vec = vec.Scaled(queries[i].Vec.Clone(), 0.97)
	}
	if _, _, err := s.Ingest("data", nil, 0, data); err != nil {
		t.Fatalf("ingest data: %v", err)
	}
	if _, _, err := s.Ingest("queries", nil, 0, queries); err != nil {
		t.Fatalf("ingest queries: %v", err)
	}
	return data, queries
}

// TestServedJoinMatchesBruteForce drives Server.Join across engines,
// modes and variants on multi-shard collections and compares the pair
// lists against the record-space brute force.
func TestServedJoinMatchesBruteForce(t *testing.T) {
	s := New(Config{DefaultShards: 4})
	defer s.Close()
	data, queries := joinWorkload(t, s, 90, 30, 8, 21)
	// normpruned sweeps the norm-sorted view of a normscan collection.
	if _, _, err := s.Ingest("sorted", &IndexSpec{Kind: KindNormScan}, 0, data); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ engine, data string }{{"exact", "data"}, {"normpruned", "sorted"}} {
		engine := c.engine
		for _, unsigned := range []bool{false, true} {
			for _, topk := range []int{0, 3} {
				variant := "signed"
				if unsigned {
					variant = "unsigned"
				}
				label := fmt.Sprintf("%s/%s/topk=%d", engine, variant, topk)
				resp, err := s.Join(JoinRequest{
					Data: c.data, Queries: "queries",
					Engine: engine, Variant: variant, S: 0.6, TopK: topk,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := bruteJoin(data, queries, 0.6, unsigned, topk, false)
				samePairs(t, label, want, resp.Pairs)
				if resp.Compared != int64(len(data))*int64(len(queries)) && engine == "exact" {
					t.Fatalf("%s: compared %d, want %d", label, resp.Compared, len(data)*len(queries))
				}
			}
		}
	}
}

// TestJoinPathEndpoint exercises POST /collections/{a}/join/{b} end to
// end: {a} is the data side, {b} the queries side.
func TestJoinPathEndpoint(t *testing.T) {
	s := New(Config{DefaultShards: 3})
	defer s.Close()
	data, queries := joinWorkload(t, s, 60, 20, 8, 5)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	var jr JoinResponse
	if code := doJSON(t, ts, http.MethodPost, "/collections/data/join/queries",
		JoinRequest{S: 0.55, TopK: 2}, &jr); code != http.StatusOK {
		t.Fatalf("join status %d", code)
	}
	want := bruteJoin(data, queries, 0.55, false, 2, false)
	samePairs(t, "path join", want, jr.Pairs)
	if jr.Engine != "tiled" || jr.TopK != 2 {
		t.Fatalf("response metadata %+v", jr)
	}

	// Unknown collections are 404s, bad parameters 400s.
	if code := doJSON(t, ts, http.MethodPost, "/collections/nope/join/queries",
		JoinRequest{S: 0.5}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown data collection status %d", code)
	}
	if code := doJSON(t, ts, http.MethodPost, "/collections/data/join/nope",
		JoinRequest{S: 0.5}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown queries collection status %d", code)
	}
	if code := doJSON(t, ts, http.MethodPost, "/collections/data/join/queries",
		JoinRequest{S: -1}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative s status %d", code)
	}
	if code := doJSON(t, ts, http.MethodPost, "/collections/data/join/queries",
		JoinRequest{S: 0.5, Engine: "warp"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown engine status %d", code)
	}
	if code := doJSON(t, ts, http.MethodPost, "/collections/data/join/queries",
		JoinRequest{S: 0.5, TopK: -2}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative topk status %d", code)
	}
	// An engine the data collection keeps no structure for is refused,
	// naming the alternative, rather than built per request.
	for _, c := range []struct{ engine, names string }{
		{"lsh", "create the data collection with index kind alsh"},
		{"sketch", "ips.SketchJoin"},
	} {
		var e map[string]string
		if code := doJSON(t, ts, http.MethodPost, "/collections/data/join/queries",
			JoinRequest{S: 0.5, Engine: c.engine, Variant: "unsigned"}, &e); code != http.StatusBadRequest || !strings.Contains(e["error"], c.names) {
			t.Fatalf("engine %s on an exact collection: status %d, error %q; want 400 naming %q", c.engine, code, e["error"], c.names)
		}
	}
	// The legacy body-addressed route: omitting the collection names is
	// a malformed request (400), not a missing resource (404).
	if code := doJSON(t, ts, http.MethodPost, "/join",
		JoinRequest{S: 0.5}, nil); code != http.StatusBadRequest {
		t.Fatalf("nameless /join status %d, want 400", code)
	}
	if code := doJSON(t, ts, http.MethodPost, "/join",
		JoinRequest{Data: "data", Queries: "ghost", S: 0.5}, nil); code != http.StatusNotFound {
		t.Fatalf("/join with unknown queries status %d, want 404", code)
	}
}

// TestSelfJoinEndpoint checks POST /collections/{name}/join: identity
// pairs are excluded, and each query still gets its best other-record
// partner — not dropped outright when its own vector wins the argmax.
func TestSelfJoinEndpoint(t *testing.T) {
	s := New(Config{DefaultShards: 4})
	defer s.Close()
	rng := xrand.New(33)
	const n, d = 80, 8
	recs := make([]store.Record, n)
	for i := range recs {
		recs[i] = store.Record{ID: i, Vec: vec.Vector(rng.UnitVec(d))}
	}
	// Mutual near-duplicates: 10 pairs at inner product ≈ 0.98.
	for i := 0; i < 20; i += 2 {
		recs[i+1].Vec = vec.Scaled(recs[i].Vec.Clone(), 0.98)
	}
	if _, _, err := s.Ingest("c", nil, 0, recs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	var jr JoinResponse
	if code := doJSON(t, ts, http.MethodPost, "/collections/c/join",
		JoinRequest{S: 0.9}, &jr); code != http.StatusOK {
		t.Fatalf("self-join status %d", code)
	}
	want := bruteJoin(recs, recs, 0.9, false, 0, true)
	samePairs(t, "self join", want, jr.Pairs)
	if len(jr.Pairs) < 20 {
		t.Fatalf("self-join found %d pairs, want ≥ 20 planted", len(jr.Pairs))
	}
	for _, p := range jr.Pairs {
		if p.DataID == p.QueryID {
			t.Fatalf("identity pair %+v reported", p)
		}
	}

	// The two-collection path with the same name keeps identity pairs
	// unless exclude_self is set in the body.
	if code := doJSON(t, ts, http.MethodPost, "/collections/c/join/c",
		JoinRequest{S: 0.9}, &jr); code != http.StatusOK {
		t.Fatalf("c join c status %d", code)
	}
	// Every record's argmax is itself (unit self-product 1.0), except
	// the 10 scaled duplicates whose original beats their shrunk self
	// (0.98 > 0.98²).
	identity := 0
	for _, p := range jr.Pairs {
		if p.DataID == p.QueryID {
			identity++
		}
	}
	if want := n - 10; identity != want {
		t.Fatalf("c join c reported %d identity pairs, want %d", identity, want)
	}
}

// TestServedJoinLSHRecall runs the LSH engine through the server — the
// banding indexes of an alsh collection holding the data — on a planted
// workload and requires high recall against the exact engine.
func TestServedJoinLSHRecall(t *testing.T) {
	s := New(Config{DefaultShards: 2})
	defer s.Close()
	data, _ := joinWorkload(t, s, 200, 24, 16, 55)
	if _, _, err := s.Ingest("alsh", &IndexSpec{Kind: KindALSH, K: 6, L: 24, Seed: 4}, 0, data); err != nil {
		t.Fatal(err)
	}
	exact, err := s.Join(JoinRequest{Data: "data", Queries: "queries", S: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	lshResp, err := s.Join(JoinRequest{Data: "alsh", Queries: "queries", Engine: "lsh", S: 0.9, C: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	matched := make(map[int]bool, len(lshResp.Pairs))
	for _, p := range lshResp.Pairs {
		matched[p.QueryID] = true
	}
	hit := 0
	for _, p := range exact.Pairs {
		if matched[p.QueryID] {
			hit++
		}
	}
	if len(exact.Pairs) == 0 {
		t.Fatal("exact join found nothing — workload broken")
	}
	if recall := float64(hit) / float64(len(exact.Pairs)); recall < 0.9 {
		t.Fatalf("served LSH recall %v too low", recall)
	}
	if lshResp.Compared >= exact.Compared {
		t.Fatalf("LSH compared %d, exact %d — not subquadratic", lshResp.Compared, exact.Compared)
	}
}

// TestConcurrentJoinIngest hammers joins (API and HTTP paths) while an
// ingester appends to both collections, under -race in CI. Joins run
// against immutable shard snapshots, so every reported pair must be
// internally consistent: value exactly e_{id mod d}-structured like the
// ingest, and pair counts monotone over snapshot growth are not
// required — only that no join errors or torn reads occur.
func TestConcurrentJoinIngest(t *testing.T) {
	const (
		d       = 8
		batches = 20
		batch   = 25
		joiners = 3
	)
	s := New(Config{DefaultShards: 4})
	defer s.Close()
	mkRec := func(i int) store.Record {
		v := vec.New(d)
		v[i%d] = float64(i%9) + 1
		return store.Record{ID: i, Vec: v}
	}
	seed := make([]store.Record, batch)
	for i := range seed {
		seed[i] = mkRec(i)
	}
	if _, _, err := s.Ingest("a", nil, 0, seed); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Ingest("b", nil, 0, seed); err != nil {
		t.Fatal(err)
	}
	// an holds a's rows under a normscan index, for the normpruned joiners.
	if _, _, err := s.Ingest("an", &IndexSpec{Kind: KindNormScan}, 0, seed); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, joiners+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for bi := 1; bi < batches; bi++ {
			recs := make([]store.Record, batch)
			for i := range recs {
				recs[i] = mkRec(bi*batch + i)
			}
			names := []string{"a", "an"}
			if bi%2 == 0 {
				names = []string{"b"}
			}
			for _, name := range names {
				if _, _, err := s.Ingest(name, nil, 0, recs); err != nil {
					errs <- err
					return
				}
			}
		}
	}()

	for w := 0; w < joiners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			engines := []struct{ name, data string }{{"exact", "a"}, {"normpruned", "an"}}
			e := engines[w%len(engines)]
			for !stop.Load() {
				resp, err := s.Join(JoinRequest{
					Data: e.data, Queries: "b",
					Engine: e.name, S: 1, TopK: w % 3,
				})
				if err != nil {
					errs <- err
					return
				}
				for _, p := range resp.Pairs {
					// Every vector is (m)·e_{id mod d} with m = id%9+1 ∈
					// [1, 9]; any defined pair value must be a product of
					// two such magnitudes on a shared axis.
					if p.Value < 1 || p.Value > 81 {
						errs <- fmt.Errorf("torn pair %+v", p)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// compactedJoin is the reference of a join over tombstoned collections:
// the request's engine runs over the collections' compactions — every
// shard with a live row compacted the way a compaction would, live rows
// repacked and the index rebuilt over them, nothing published — which
// compact memoizes by name.
func compactedJoin(t *testing.T, s *Server, req JoinRequest, compact func(name string) (*Collection, []*shardSnap)) (pairs []JoinPair, compared int64) {
	t.Helper()
	sp, _ := joinSpec(req)
	o := newJoinOpts(sp, req)
	dataCol, data := compact(req.Data)
	_, queries := compact(req.Queries)
	engine, _ := joinEngineName(req.Engine, dataCol.spec)
	pairs, compared, err := runJoin(context.Background(), s.pool, dataCol, engine, data, queries, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pairs, compared
}

// compactions returns compactedJoin's memo over s's collections.
func compactions(t *testing.T, s *Server) func(name string) (*Collection, []*shardSnap) {
	memo := map[string][]*shardSnap{}
	return func(name string) (*Collection, []*shardSnap) {
		c, _ := s.Collection(name)
		if out, ok := memo[name]; ok {
			return c, out
		}
		var out []*shardSnap
		for _, sh := range c.shards {
			sn, err := sh.prepareCompact(c.spec, c.hashes.Load())
			if err != nil {
				t.Fatal(err)
			}
			if sn == nil {
				sn = sh.snap.Load() // no tombstones: compact already
			}
			if len(sn.ids) > 0 {
				out = append(out, sn)
			}
		}
		memo[name] = out
		return c, out
	}
}

// searchCounters is what a search moves and a join must leave as it was:
// the query cache's size, hits and misses, and every collection's query
// counters — its own and its shards' — and latency sinks.
func searchCounters(s *Server) []int64 {
	out := []int64{int64(s.cache.len()), s.cache.hits.Load(), s.cache.misses.Load()}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, name := range slices.Sorted(maps.Keys(s.cols)) {
		c := s.cols[name]
		c.lat.mu.Lock()
		out = append(out, c.queries.Load(), c.hist.count.Load(), int64(c.lat.count))
		c.lat.mu.Unlock()
		for _, sh := range c.shards {
			out = append(out, sh.queries.Load())
		}
	}
	return out
}

func deleteIDs(t *testing.T, s *Server, name string, ref map[int]vec.Vector, ids []int) {
	t.Helper()
	ids = append([]int(nil), ids...)
	if _, deleted, _, err := s.Delete(name, ids); err != nil || deleted != len(ids) {
		t.Fatalf("delete from %s: %v (%d of %d)", name, err, deleted, len(ids))
	}
	for _, id := range ids {
		delete(ref, id)
	}
}

// TestNormPrunedJoinSweepsServingView: a normscan f64 shard already
// serves from the descending-norm view of its rows, with the dead set in
// that order; a normpruned join sweeps those — no second sorted copy per
// snapshot. A collection without that view is refused, naming exact.
func TestNormPrunedJoinSweepsServingView(t *testing.T) {
	s := New(Config{DefaultShards: 1, CompactFraction: -1})
	defer s.Close()
	data, queries := joinWorkload(t, s, 600, 20, 8, 9)
	for _, kind := range []string{KindNormScan, KindExact} {
		if _, _, err := s.Ingest(kind, &IndexSpec{Kind: kind}, 1, data); err != nil {
			t.Fatal(err)
		}
		ref := map[int]vec.Vector{}
		for _, r := range data {
			ref[r.ID] = r.Vec
		}
		deleteIDs(t, s, kind, ref, []int{data[3].ID, data[77].ID, data[400].ID})
		req := JoinRequest{Data: kind, Queries: "queries", Engine: "normpruned", S: 0.6, TopK: 2}
		if kind == KindExact {
			ts := httptest.NewServer(NewHandler(s))
			var body struct{ Error string }
			code := doJSON(t, ts, http.MethodPost, "/join", req, &body)
			ts.Close()
			if code != http.StatusBadRequest || !strings.Contains(body.Error, "normscan f64") || !strings.Contains(body.Error, "use engine exact") {
				t.Fatalf("normpruned on an exact collection: %d %q, want a 400 naming exact", code, body.Error)
			}
			continue
		}
		c, _ := s.Collection(kind)
		snap := c.shards[0].snap.Load()
		if swept := snap.joinSnap("normpruned"); swept != snap || snap.index.(*flatIndex).dead.Count() != 3 {
			t.Fatal("normscan shard: the join does not sweep the serving view and its dead set")
		}
		resp, err := s.Join(req)
		if err != nil {
			t.Fatal(err)
		}
		var live []store.Record
		for _, r := range data {
			if _, ok := ref[r.ID]; ok {
				live = append(live, r)
			}
		}
		samePairs(t, kind, bruteJoin(live, queries, 0.6, false, 2, false), resp.Pairs)
	}
}

// TestApproximateJoinProbesServingStructure: an lsh join walks the banding
// indexes an alsh collection's shards serve from — fresh, and with
// tombstones, which the join drops from the candidates, its span counting
// the candidates it verified — and lsh on a collection that keeps no
// banding index is a 400, not a per-request build.
func TestApproximateJoinProbesServingStructure(t *testing.T) {
	s := New(Config{DefaultShards: 3, CacheCapacity: -1, CompactFraction: -1})
	defer s.Close()
	data, _ := joinWorkload(t, s, 600, 20, 8, 9)
	for i := range data {
		data[i].ID = i // joinWorkload's ids all hash to one shard
	}
	if _, _, err := s.Ingest(KindALSH, &IndexSpec{Kind: KindALSH, K: 4, L: 8, Seed: 3}, 0, data); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Collection(KindALSH)
	req := JoinRequest{Data: KindALSH, Queries: "queries", Engine: "lsh", S: 0.8, C: 0.5}
	for _, stage := range []string{"fresh", "tombstoned"} {
		if stage == "tombstoned" {
			deleteIDs(t, s, KindALSH, map[int]vec.Vector{}, c.shards[0].snap.Load().ids[:2])
		}
		tr := trace.New("join", "")
		resp, err := s.JoinCtx(trace.NewContext(context.Background(), tr), req)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range tr.Export().Spans {
			if sp.Name == "scan" && (sp.Attrs["candidates"] != resp.Compared || resp.Compared == 0) {
				t.Fatalf("%s: span counts %d candidates, the response compared %d", stage, sp.Attrs["candidates"], resp.Compared)
			}
		}
	}
	req.Data = "data" // an exact collection
	if _, err := s.Join(req); err == nil || !strings.Contains(err.Error(), "index kind alsh") {
		t.Fatalf("lsh join on an exact collection: err = %v, want the alsh alternative named", err)
	}
}

// lshJoinReference answers an lsh join request from one lsh.Index over
// data — the data collection's live records in id order, row i of one
// store — built from the hash functions an alsh collection of spec and
// seed samples, for queries, the live query records in id order. full is
// the full-union answer: every candidate verified, the best pairs of the
// union reported. walk is the table-step stop: each query walks the
// tables in turn and, in threshold mode, stops after the first step
// whose union holds a pair ≥ cs that is not the identity pair under
// ExcludeSelf. Each comes with the candidates it verified. early counts
// the queries whose walk names their own record at a step before the one
// that stops it: an identity pair the walk would have stopped at, had it
// counted.
func lshJoinReference(t *testing.T, spec IndexSpec, seed uint64, data, queries []store.Record, req JoinRequest) (full, walk []JoinPair, fullCompared, walkCompared int64, early int) {
	t.Helper()
	sp, err := joinSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	unsigned, cs, keep := sp.Variant == core.Unsigned, sp.CS(), max(req.TopK, 1)
	k := keep
	if req.ExcludeSelf {
		k++
	}
	storeOf := func(recs []store.Record) *flat.Store {
		vs := make([]vec.Vector, len(recs))
		for i, r := range recs {
			vs[i] = r.Vec
		}
		fs, err := flat.FromVectors(vs)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	fs, qs := storeOf(data), storeOf(queries)
	hashes, err := newALSHHashes(spec, fs.Dim(), seed)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]vec.Vector, fs.Len())
	for i := range rows {
		rows[i] = fs.Row(i)
	}
	ix := hashes.Extend(rows)
	var qk lsh.QueryKeys
	ix.HashQueries(&qk, qs, 0, qs.Len(), spec.probe(unsigned))
	pairs := func(acc *flat.Acc, qid int) []JoinPair {
		var out []JoinPair
		for _, h := range acc.Hits() {
			if h.Score >= cs && (!req.ExcludeSelf || data[h.Index].ID != qid) && len(out) < keep {
				out = append(out, JoinPair{DataID: data[h.Index].ID, QueryID: qid, Value: h.Score})
			}
		}
		return out
	}
	var acc flat.Acc
	var w lsh.Walk
	for qi, qr := range queries {
		cands, err := ix.AppendHashed(nil, &qk, qi)
		if err != nil {
			t.Fatal(err)
		}
		acc.Reset(k)
		n, _ := fs.OfferRows(nil, &acc, qr.Vec, cands, nil, unsigned)
		fullCompared += int64(n)
		full = append(full, pairs(&acc, qr.ID)...)

		acc.Reset(k)
		w.Reset()
		var got []JoinPair
		met := false
		for step := 0; step < ix.L && (req.TopK > 0 || len(got) == 0); step++ {
			from := len(w.IDs)
			if err := ix.Step(&w, &qk, qi, step); err != nil {
				t.Fatal(err)
			}
			n, _ := fs.OfferRows(nil, &acc, qr.Vec, w.IDs[from:], nil, unsigned)
			walkCompared += int64(n)
			if got = pairs(&acc, qr.ID); len(got) == 0 {
				met = met || slices.ContainsFunc(w.IDs, func(row int) bool { return data[row].ID == qr.ID })
			}
		}
		if met && len(got) > 0 {
			early++
		}
		walk = append(walk, got...)
	}
	return full, walk, fullCompared, walkCompared, early
}

// sameBits reports whether two pair lists are identical, values compared
// bit for bit.
func sameBits(a, b []JoinPair) bool {
	return slices.EqualFunc(a, b, func(x, y JoinPair) bool {
		return x.DataID == y.DataID && x.QueryID == y.QueryID && math.Float64bits(x.Value) == math.Float64bits(y.Value)
	})
}

// TestServedLSHJoinStopsAtFirstWitness: the served lsh join runs the LSH
// query algorithm. Every query has three partners ≥ cs at different
// values, so the first table step to yield a witness and the best pair of
// the whole union can differ. On 1, 2 and 4 shards, fresh and with
// tombstones on the data and the query side, signed and unsigned, as a
// plain join and as a self-join, at TopK 0, 1 and 10:
//   - threshold mode reports, bit for bit, the table-step reference's
//     pairs from one index over all the live rows, and its Compared: no
//     more than the full union's, and fewer in total;
//   - its satisfied query set is the full-union reference's;
//   - top-k mode reports the full-union reference's pairs and Compared;
//   - in the self-join, queries whose own record the walk names before
//     any witness exist, and the identity pair stops none of them;
//   - a cancelled join returns ctx's error and no pairs.
func TestServedLSHJoinStopsAtFirstWitness(t *testing.T) {
	const d, noise, nq = 16, 700, 40
	spec := IndexSpec{Kind: KindALSH, K: 6, L: 12}
	rng := xrand.New(71)
	partner := func(q vec.Vector, value float64) vec.Vector {
		// value·q plus an orthogonal part, the norm 0.999: inside the ball.
		u := vec.Vector(rng.UnitVec(d))
		vec.Axpy(-vec.Dot(u, q), q, u)
		vec.Normalize(u)
		p := vec.Scaled(q, value)
		vec.Axpy(math.Sqrt(0.999*0.999-value*value), u, p)
		return p
	}
	var data, queries, self []store.Record
	for i := range nq {
		q := vec.Vector(rng.UnitVec(d))
		queries = append(queries, store.Record{ID: i, Vec: q})
		for j, value := range []float64{0.97, 0.9, 0.8} {
			data = append(data, store.Record{ID: 3*i + j, Vec: partner(q, value)})
		}
	}
	for i := range noise {
		data = append(data, ballRecord(rng, 3*nq+i, d))
	}
	self = append(self, data...)
	for _, q := range queries { // near the sphere: each collides with itself early
		self = append(self, store.Record{ID: len(data) + q.ID, Vec: vec.Scaled(q.Vec, 0.999)})
	}
	deadIDs := func(recs []store.Record, m, r int) (ids []int) {
		for _, rec := range recs {
			if rec.ID%m == r {
				ids = append(ids, rec.ID)
			}
		}
		return ids
	}
	live := func(recs []store.Record, dead []int) []store.Record {
		return slices.DeleteFunc(slices.Clone(recs), func(r store.Record) bool { return slices.Contains(dead, r.ID) })
	}
	differs, early := 0, 0
	for _, shards := range []int{1, 2, 4} {
		s := New(Config{DefaultShards: shards, CacheCapacity: -1, CompactFraction: -1})
		defer s.Close()
		for name, recs := range map[string][]store.Record{"p": data, "self": self} {
			if _, _, err := s.Ingest(name, &spec, shards, recs); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.Ingest("q", nil, shards, queries); err != nil {
			t.Fatal(err)
		}
		liveRecs := map[string][]store.Record{"p": data, "q": queries, "self": self}
		for _, stage := range []string{"fresh", "tombstoned"} {
			if stage == "tombstoned" {
				for name, dead := range map[string][]int{"p": deadIDs(data, 11, 5), "q": deadIDs(queries, 7, 3), "self": deadIDs(self, 11, 5)} {
					if _, _, _, err := s.Delete(name, dead); err != nil {
						t.Fatal(err)
					}
					liveRecs[name] = live(liveRecs[name], dead)
				}
			}
			for _, variant := range []string{"signed", "unsigned"} {
				for _, topk := range []int{0, 1, 10} {
					for _, req := range []JoinRequest{
						{Data: "p", Queries: "q"},
						selfJoinRequest("self", JoinRequest{}),
					} {
						req.Engine, req.Variant, req.S, req.C, req.TopK = "lsh", variant, 0.9, 0.8, topk
						label := fmt.Sprintf("shards=%d/%s/%s/topk=%d/%s×%s", shards, stage, variant, topk, req.Data, req.Queries)
						c, _ := s.Collection(req.Data)
						full, walk, fullCompared, walkCompared, e := lshJoinReference(t, spec, c.seed, liveRecs[req.Data], liveRecs[req.Queries], req)
						resp, err := s.Join(req)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if topk > 0 {
							if !sameBits(resp.Pairs, full) || resp.Compared != fullCompared {
								t.Fatalf("%s: top-k join reports %v (compared %d), the full union %v (compared %d)", label, resp.Pairs, resp.Compared, full, fullCompared)
							}
							continue
						}
						if !sameBits(resp.Pairs, walk) || resp.Compared != walkCompared {
							t.Fatalf("%s: threshold join reports %v (compared %d), the table-step reference %v (compared %d)", label, resp.Pairs, resp.Compared, walk, walkCompared)
						}
						if len(walk) == 0 || len(walk) != len(full) || walkCompared >= fullCompared {
							t.Fatalf("%s: %d queries satisfied by the walk, %d by the full union, after %d and %d candidates", label, len(walk), len(full), walkCompared, fullCompared)
						}
						for i := range walk {
							if walk[i].QueryID != full[i].QueryID {
								t.Fatalf("%s: the walk satisfies query %d where the full union satisfies %d", label, walk[i].QueryID, full[i].QueryID)
							}
							if walk[i] != full[i] {
								differs++
							}
						}
						if req.ExcludeSelf {
							early += e
						}
					}
				}
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := JoinRequest{Data: "p", Queries: "q", Engine: "lsh", S: 0.9, C: 0.8}
		if resp, err := s.JoinCtx(ctx, req); !errors.Is(err, context.Canceled) || resp != nil {
			t.Fatalf("shards=%d: cancelled join: %v, %v; want ctx's error and no pairs", shards, resp, err)
		}
		dc, _ := s.Collection("p")
		qc, _ := s.Collection("q")
		// Cancelled as the walk fetches its done channel, past the hashing.
		ts := getTileScratch()
		ts.loadJoinTile(qc.shardSnaps(), [2]int{})
		ts.prepare(len(dc.shardSnaps()), len(ts.qids), 1)
		if err := walkTile(newFetchCtx(1), dc, dc.shardSnaps(), ts, newJoinOpts(core.Spec{S: 0.9, C: 0.8}, req), new(flat.ScanStats)); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: cancelled walk: %v; want ctx's error", shards, err)
		}
		putTileScratch(ts)
	}
	if differs == 0 {
		t.Fatal("every walk reported the full union's best pair: the grid cannot tell the stop from a full verification")
	}
	if early == 0 {
		t.Fatal("no self-join walk met its own record before a witness: the grid does not check that the identity pair is no witness")
	}
	t.Logf("%d threshold pairs differ from the full union's best; %d self-join walks met the identity before a witness", differs, early)
}
