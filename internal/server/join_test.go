package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/join"
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
	var out []JoinPair
	qs := append([]store.Record(nil), queries...)
	sort.Slice(qs, func(a, b int) bool { return qs[a].ID < qs[b].ID })
	for _, q := range qs {
		var cands []JoinPair
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
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].Value != cands[b].Value {
				return cands[a].Value > cands[b].Value
			}
			return cands[a].DataID < cands[b].DataID
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
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: pair %d = %+v, want %+v", label, i, got[i], want[i])
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
	for _, engine := range []string{"exact", "normpruned"} {
		for _, unsigned := range []bool{false, true} {
			for _, topk := range []int{0, 3} {
				variant := "signed"
				if unsigned {
					variant = "unsigned"
				}
				label := fmt.Sprintf("%s/%s/topk=%d", engine, variant, topk)
				resp, err := s.Join(JoinRequest{
					Data: "data", Queries: "queries",
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

	// The sketch engine is top-1 by construction and cannot over-fetch
	// past the identity pair — self-joins through it must be rejected,
	// not silently emptied.
	if code := doJSON(t, ts, http.MethodPost, "/collections/c/join",
		JoinRequest{S: 0.9, Engine: "sketch", Variant: "unsigned"}, nil); code != http.StatusBadRequest {
		t.Fatalf("sketch self-join status %d, want 400", code)
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

// TestServedJoinLSHRecall runs the LSH engine through the server on a
// planted workload and requires high recall against the exact engine.
func TestServedJoinLSHRecall(t *testing.T) {
	s := New(Config{DefaultShards: 2})
	defer s.Close()
	_, _ = joinWorkload(t, s, 200, 24, 16, 55)
	exact, err := s.Join(JoinRequest{Data: "data", Queries: "queries", S: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	lshResp, err := s.Join(JoinRequest{
		Data: "data", Queries: "queries",
		Engine: "lsh", S: 0.9, C: 0.5, K: 6, L: 24, Seed: 4,
	})
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
			name := "a"
			if bi%2 == 0 {
				name = "b"
			}
			if _, _, err := s.Ingest(name, nil, 0, recs); err != nil {
				errs <- err
				return
			}
		}
	}()

	for w := 0; w < joiners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			engines := []string{"exact", "normpruned"}
			for !stop.Load() {
				resp, err := s.Join(JoinRequest{
					Data: "a", Queries: "b",
					Engine: engines[w%len(engines)], S: 1, TopK: w % 3,
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
// every shard with a live row is compacted the way a compaction would —
// live rows repacked, the index rebuilt over them, nothing published —
// the request's engine runs over each pair of compacted snapshots, and
// matches map back through the compacted id slices into the per-query
// merge.
func compactedJoin(t *testing.T, s *Server, req JoinRequest) (pairs []JoinPair, compared int64) {
	t.Helper()
	compact := func(name string) (c *Collection, out []*shardSnap) {
		c, _ = s.Collection(name)
		for _, sh := range c.shards {
			sn, err := sh.prepareCompact(c.spec)
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
		return c, out
	}
	engine, _ := joinEngineName(req.Engine)
	sp, _ := joinSpec(req)
	k := req.TopK
	if req.ExcludeSelf {
		k = max(k, 1) + 1
	}
	var parts []join.Result
	dataCol, data := compact(req.Data)
	_, queries := compact(req.Queries)
	for _, p := range data {
		eng, _, err := p.joinEngine(engine, req, dataCol.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			res, err := eng.Join(p.fs, q.fs, sp.S, sp.CS(), join.Opts{Unsigned: sp.Variant == core.Unsigned, TopK: k})
			if err != nil {
				t.Fatal(err)
			}
			keep := res.Matches[:0]
			for _, m := range res.Matches {
				if m.PIdx, m.QIdx = p.ids[m.PIdx], q.ids[m.QIdx]; !req.ExcludeSelf || m.PIdx != m.QIdx {
					keep = append(keep, m)
				}
			}
			res.Matches = keep
			parts = append(parts, res)
		}
	}
	merged := join.MergePerQuery(parts, req.TopK)
	for _, m := range merged.Matches {
		pairs = append(pairs, JoinPair{DataID: m.PIdx, QueryID: m.QIdx, Value: m.Value})
	}
	return pairs, merged.Compared
}

// The dead patterns of TestJoinTombstoneGrid, applied to both
// collections: each mutates the served collection and the test's
// id → vector reference alike.
var joinDeadPatterns = []struct {
	name string
	// liveOnly names the exact engines that score live rows only under
	// the pattern — no block they sweep mixes live and dead rows — so
	// their Compared is the compacted reference's.
	liveOnly string
	apply    func(t *testing.T, s *Server, name string, ref map[int]vec.Vector, rng *xrand.RNG)
}{
	{"none", "exact normpruned", func(*testing.T, *Server, string, map[int]vec.Vector, *xrand.RNG) {}},
	{"scattered", "", func(t *testing.T, s *Server, name string, ref map[int]vec.Vector, rng *xrand.RNG) {
		var ids []int
		for id := range ref {
			if id%7 == 3 {
				ids = append(ids, id)
			}
		}
		deleteIDs(t, s, name, ref, ids)
	}},
	{"upserts", "", func(t *testing.T, s *Server, name string, ref map[int]vec.Vector, rng *xrand.RNG) {
		var recs []store.Record
		for id := range ref {
			if id%5 == 2 {
				recs = append(recs, store.Record{ID: id, Vec: vec.Vector(rng.UnitVec(8))})
			}
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].ID < recs[b].ID })
		if _, _, err := s.Upsert(name, nil, 0, recs); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			ref[r.ID] = r.Vec
		}
	}},
	{"block", "exact", func(t *testing.T, s *Server, name string, ref map[int]vec.Vector, rng *xrand.RNG) {
		c, _ := s.Collection(name)
		ids := c.shards[0].snap.Load().ids
		if len(ids) < 600 {
			t.Fatalf("shard 0 of %s holds %d rows, too few for a whole dead block with live ones after it", name, len(ids))
		}
		deleteIDs(t, s, name, ref, ids[256:512])
	}},
	{"shard", "exact normpruned", func(t *testing.T, s *Server, name string, ref map[int]vec.Vector, rng *xrand.RNG) {
		c, _ := s.Collection(name)
		deleteIDs(t, s, name, ref, c.shards[1].snap.Load().ids)
	}},
	// Every row of b: it holds rows but no live one, and joins like an
	// empty collection on either side; a is untouched.
	{"collection", "exact normpruned", func(t *testing.T, s *Server, name string, ref map[int]vec.Vector, rng *xrand.RNG) {
		if name == "b" {
			c, _ := s.Collection(name)
			for _, sh := range c.shards {
				deleteIDs(t, s, name, ref, sh.snap.Load().ids)
			}
		}
	}},
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

// TestJoinTombstoneGrid is the deletes × joins equivalence grid: engine
// × mode × variant × self/two-collection × dead pattern on the data and
// the query side. The engines read the published snapshots through their
// dead sets; every cell's pairs must equal — ids, order, value bits —
// the compacted-copy reference, and for the exact engines the record
// brute force over the live reference; Compared equals the reference's
// wherever no scored block mixes live and dead rows.
func TestJoinTombstoneGrid(t *testing.T) {
	for _, pat := range joinDeadPatterns {
		t.Run(pat.name, func(t *testing.T) {
			s := New(Config{DefaultShards: 2, CacheCapacity: -1, CompactFraction: -1})
			defer s.Close()
			rng := xrand.New(31)
			refs := map[string]map[int]vec.Vector{"a": {}, "b": {}}
			for name, stride := range map[string]int{"a": 3, "b": 7} {
				recs := make([]store.Record, 1300)
				for i := range recs {
					recs[i] = store.Record{ID: i*stride + 1, Vec: vec.Vector(rng.UnitVec(8))}
					refs[name][recs[i].ID] = recs[i].Vec
				}
				if _, _, err := s.Ingest(name, nil, 0, recs); err != nil {
					t.Fatal(err)
				}
			}
			// h holds unit vectors too — the edge of the SIMPLE map's ball — as
			// an alsh collection: its lsh joins probe the shards' own banding
			// indexes through the dead sets.
			refs["h"] = map[int]vec.Vector{}
			hrecs := make([]store.Record, 1300)
			for i := range hrecs {
				hrecs[i] = store.Record{ID: i*5 + 1, Vec: vec.Vector(rng.UnitVec(8))}
				refs["h"][hrecs[i].ID] = hrecs[i].Vec
			}
			if _, _, err := s.Ingest("h", &IndexSpec{Kind: KindALSH, K: 4, L: 8, Seed: 5}, 0, hrecs); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"a", "b", "h"} {
				pat.apply(t, s, name, refs[name], rng)
			}
			records := func(name string) (out []store.Record) {
				for id, v := range refs[name] {
					out = append(out, store.Record{ID: id, Vec: v})
				}
				sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
				return out
			}
			brute := map[string][]JoinPair{} // by cell, shared by the two exact engines
			cell := func(data, engine string, topk int, variant, queries string) {
				self := queries == data
				if engine == "sketch" && (self || variant == "signed") {
					return
				}
				req := JoinRequest{Data: data, Queries: queries, Engine: engine, Variant: variant,
					S: 0.8, C: 0.75, TopK: topk, ExcludeSelf: self}
				if data == "a" {
					req.K, req.L, req.Seed = 4, 8, 5 // h lends its own: zeros
				}
				cell := fmt.Sprintf("%s/topk=%d/queries=%s", variant, topk, queries)
				label := data + "/" + engine + "/" + cell
				resp, err := s.Join(req)
				if len(refs[queries]) == 0 {
					for _, r := range []JoinRequest{req, {Data: queries, Queries: data, Engine: engine, Variant: variant, S: 0.8}} {
						if _, err := s.Join(r); err == nil || !strings.Contains(err.Error(), "join requires non-empty collections") {
							t.Fatalf("%s: join %s×%s over a fully-deleted collection: err = %v", label, r.Data, r.Queries, err)
						}
					}
					return
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, compared := compactedJoin(t, s, req)
				if len(want) == 0 {
					t.Fatalf("%s: the reference reports no pair; the cell checks nothing", label)
				}
				samePairs(t, label, want, resp.Pairs)
				exact := engine == "exact" || engine == "normpruned"
				if exact {
					if brute[cell] == nil {
						brute[cell] = bruteJoin(records(data), records(queries), 0.6, variant == "unsigned", topk, self)
					}
					samePairs(t, label+" vs brute force", brute[cell], resp.Pairs)
				}
				switch {
				case !exact, strings.Contains(pat.liveOnly, engine):
					if resp.Compared != compared {
						t.Fatalf("%s: compared %d, the compacted reference %d", label, resp.Compared, compared)
					}
				case resp.Compared < compared:
					t.Fatalf("%s: compared %d, fewer than the compacted reference's %d", label, resp.Compared, compared)
				}
			}
			for _, topk := range []int{0, 3} {
				for _, variant := range []string{"signed", "unsigned"} {
					for _, engine := range []string{"exact", "normpruned", "lsh", "sketch"} {
						cell("a", engine, topk, variant, "a")
						cell("a", engine, topk, variant, "b")
					}
					cell("h", "lsh", topk, variant, "h")
					cell("h", "lsh", topk, variant, "b")
				}
			}
		})
	}
}

// TestNormPrunedJoinSweepsServingView: a normscan f64 shard already
// serves from the descending-norm view of its rows, with the dead set in
// that order; a normpruned join sweeps those — no second sorted copy per
// snapshot — while other kinds build their view once per snapshot.
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
		c, _ := s.Collection(kind)
		snap := c.shards[0].snap.Load()
		eng := snap.normPruned()
		if ix := snap.index.(*flatIndex); kind == KindNormScan {
			np := eng.(join.NormPruned)
			if !reflect.DeepEqual(np.Sorted.View, ix.view) || np.SortedDead != ix.dead || np.SortedDead.Count() != 3 || snap.np != nil {
				t.Fatalf("normscan shard: the join engine does not sweep the serving view and its dead set (lazily built: %v)", snap.np != nil)
			}
		} else if snap.np == nil {
			t.Fatal("exact shard: the lazily built view is not kept on the snapshot")
		}
		resp, err := s.Join(JoinRequest{Data: kind, Queries: "queries", Engine: "normpruned", S: 0.6, TopK: 2})
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

// TestApproximateJoinProbesServingStructure: an alsh shard lends an lsh
// join the banding index it serves from — with tombstones too, the join
// drops dead candidates — and a sketch shard lends a sketch join its
// recoverer while nothing is deleted; a request naming the collection's
// own parameters is lent them like one naming none, and any other
// request, or collection kind, gets a structure built for it. The traced
// scan span counts the builds.
func TestApproximateJoinProbesServingStructure(t *testing.T) {
	const shards = 3
	s := New(Config{DefaultShards: shards, CacheCapacity: -1, CompactFraction: -1})
	defer s.Close()
	data, _ := joinWorkload(t, s, 600, 20, 8, 9)
	for i := range data {
		data[i].ID = i // joinWorkload's ids all hash to one shard
	}
	specs := map[string]IndexSpec{
		KindALSH:   {Kind: KindALSH, K: 4, L: 8, Seed: 3},
		KindSketch: {Kind: KindSketch, Copies: 5, Seed: 3},
		KindExact:  {Kind: KindExact},
	}
	for kind, spec := range specs {
		if _, _, err := s.Ingest(kind, &spec, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	snapOf := func(kind string) *shardSnap {
		c, _ := s.Collection(kind)
		return c.shards[0].snap.Load()
	}
	lent := func(kind, engine string, req JoinRequest) (join.Engine, bool) {
		t.Helper()
		eng, built, err := snapOf(kind).joinEngine(engine, req, specs[kind])
		if err != nil {
			t.Fatal(err)
		}
		return eng, !built
	}
	builds := func(req JoinRequest) int64 {
		t.Helper()
		tr := trace.New("join", "")
		resp, err := s.JoinCtx(trace.NewContext(context.Background(), tr), req)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range tr.Export().Spans {
			if sp.Name == "scan" {
				if req.Engine == "lsh" && (sp.Attrs["candidates"] != resp.Compared || resp.Compared == 0) {
					t.Fatalf("%+v: span counts %d candidates, the response compared %d", req, sp.Attrs["candidates"], resp.Compared)
				}
				n, ok := sp.Attrs["index_builds"]
				if !ok {
					t.Fatalf("%+v: the scan span has no index_builds: %v", req, sp.Attrs)
				}
				return n
			}
		}
		t.Fatalf("no scan span in %+v", tr.Export())
		return 0
	}

	check := func(stage string) {
		t.Helper()
		ix := snapOf(KindALSH).index.(*alshIndex)
		for _, req := range []JoinRequest{{}, {K: 4}, {K: 4, L: 8, Seed: 3}} {
			if eng, ok := lent(KindALSH, "lsh", req); !ok || eng.(join.LSH).Index != ix.ix || eng.(join.LSH).Radius != ix.u {
				t.Fatalf("%s: alsh shard, request %+v: the join does not probe the shard's index", stage, req)
			}
		}
		for _, req := range []JoinRequest{{K: 5}, {L: 4}, {Seed: 9}} {
			if _, ok := lent(KindALSH, "lsh", req); ok {
				t.Fatalf("%s: alsh shard, request %+v asks for another index and was lent the shard's", stage, req)
			}
		}
		if _, ok := lent(KindExact, "lsh", JoinRequest{}); ok {
			t.Fatalf("%s: an exact shard keeps no banding index to lend", stage)
		}
		if n := builds(JoinRequest{Data: KindALSH, Queries: "queries", Engine: "lsh", S: 0.8, C: 0.5}); n != 0 {
			t.Fatalf("%s: lsh join on an alsh collection built %d indexes", stage, n)
		}
		if n := builds(JoinRequest{Data: KindExact, Queries: "queries", Engine: "lsh", S: 0.8, C: 0.5}); n != shards {
			t.Fatalf("%s: lsh join on an exact collection built %d indexes, want one per data shard (%d)", stage, n, shards)
		}
	}
	check("fresh")
	rec := snapOf(KindSketch).index.(sketchIndex).rec
	for _, req := range []JoinRequest{{}, {Kappa: 2, Copies: 5, Seed: 3}} {
		if eng, ok := lent(KindSketch, "sketch", req); !ok || eng.(join.Sketch).Recoverer != rec {
			t.Fatalf("sketch shard, request %+v: the join does not query the shard's recoverer", req)
		}
	}
	if _, ok := lent(KindSketch, "sketch", JoinRequest{Copies: 3}); ok {
		t.Fatal("sketch shard: a request for 3 copies was lent the shard's 5-copy recoverer")
	}
	unsigned := JoinRequest{Data: KindSketch, Queries: "queries", Engine: "sketch", Variant: "unsigned", S: 0.8, C: 0.5}
	if n := builds(unsigned); n != 0 {
		t.Fatalf("sketch join on a sketch collection built %d recoverers", n)
	}

	// Tombstones: the banding index is still lent, the recoverer — which
	// sums the dead row in — is not.
	c, _ := s.Collection(KindSketch)
	doomed := c.shards[0].snap.Load().ids[:2]
	for _, kind := range []string{KindALSH, KindSketch, KindExact} {
		ref := map[int]vec.Vector{}
		for _, id := range doomed {
			ref[id] = nil
		}
		deleteIDs(t, s, kind, ref, doomed)
	}
	check("tombstoned")
	if sn := snapOf(KindSketch); sn.dead.Count() == 0 {
		t.Fatal("the delete left shard 0 without tombstones")
	} else if _, ok := lent(KindSketch, "sketch", JoinRequest{}); ok {
		t.Fatal("tombstoned sketch shard: the join was lent a recoverer that sums dead rows")
	}
	if n := builds(unsigned); n != 1 {
		t.Fatalf("sketch join over one tombstoned shard built %d recoverers, want 1", n)
	}
}
