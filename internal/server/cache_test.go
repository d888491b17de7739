package server

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// revalCounts reads the cache's revalidation outcomes.
func revalCounts(s *Server) [3]int64 {
	return [3]int64{s.cache.revalidated.Load(), s.cache.touched.Load(), s.cache.expired.Load()}
}

// TestCacheRevalidationMatchesFresh: with the cache on, exact answers
// cached before a write are brought forward across it — a row that
// enters is found, a tie at the k-th best with a smaller ID enters, a
// touched answer is rescanned, and answers older than a compaction or
// the note horizon are rescanned too. After every step each answer,
// cached or not, single or batched, is bit for bit a cache-off server's,
// and Cached and the revalidation counters read as the step predicts.
func TestCacheRevalidationMatchesFresh(t *testing.T) {
	const d, n, nq = 6, 40, 4
	for _, spec := range []IndexSpec{
		{Kind: KindExact},
		{Kind: KindExact, Precision: PrecisionI8},
		{Kind: KindNormScan},
	} {
		for _, unsigned := range []bool{false, true} {
			for _, k := range []int{1, 3, 1000} {
				t.Run(fmt.Sprintf("%s-%s/unsigned=%v/k=%d", spec.kind(), spec.precision(), unsigned, k), func(t *testing.T) {
					revalidationCell(t, spec, unsigned, k, d, n, nq)
				})
			}
		}
	}
}

func revalidationCell(t *testing.T, spec IndexSpec, unsigned bool, k, d, n, nq int) {
	rng := xrand.New(uint64(11 + k))
	cfg := Config{DefaultShards: 2, CacheCapacity: 256, CompactFraction: -1}
	s := New(cfg)
	defer s.Close()
	cfg.CacheCapacity = -1
	ref := New(cfg)
	defer ref.Close()
	queries := dataset.Gaussian(rng, nq, d, false)

	vecs := map[int]vec.Vector{} // the live records, by ID
	write := func(what string, recs []store.Record, del []int) {
		t.Helper()
		for _, srv := range []*Server{s, ref} {
			var err error
			var invalidated int
			switch {
			case del != nil:
				_, _, invalidated, err = srv.Delete("c", del)
			case slices.ContainsFunc(recs, func(r store.Record) bool { return vecs[r.ID] != nil }):
				_, invalidated, err = srv.Upsert("c", &spec, 0, recs)
			default:
				_, invalidated, err = srv.Ingest("c", &spec, 0, recs)
			}
			if err != nil || invalidated != 0 {
				t.Fatalf("%s: invalidated %d, %v", what, invalidated, err)
			}
		}
		for _, r := range recs {
			vecs[r.ID] = r.Vec
		}
		for _, id := range del {
			delete(vecs, id)
		}
	}

	// prev[i] is query i's answer as cached; check searches the queries
	// of p and predicts each first answer from it: no entry — a miss; one
	// at the pinned version — a hit as it stands; a hit of it in p.killed
	// — touched; in p.expired — expired; else kept, a hit. Then, when it
	// searched all, a batch of every query is served whole from the cache.
	var prev [][]Hit
	all := []int{0, 1, 2, 3}
	check := func(step string, p prediction) {
		t.Helper()
		sel := p.sel
		if sel == nil {
			sel = all
		}
		want, err := ref.Search("c", queries, k, unsigned)
		if err != nil {
			t.Fatal(err)
		}
		before := revalCounts(s)
		var predicted [3]int64
		for _, i := range sel {
			res, err := s.Search("c", queries[i:i+1], k, unsigned)
			if err != nil || res[0].Err != nil {
				t.Fatalf("%s: query %d: %v %v", step, i, err, res[0].Err)
			}
			outcome := -1 // a miss with no earlier entry, or a hit at its version
			switch {
			case prev == nil || p.stands:
			case slices.ContainsFunc(prev[i], func(h Hit) bool { return slices.Contains(p.killed, h.ID) }):
				outcome = 1
			case slices.Contains(p.expired, i):
				outcome = 2
			default:
				outcome = 0
			}
			if outcome >= 0 {
				predicted[outcome]++
			}
			if res[0].Cached != (outcome == 0 || p.stands) {
				t.Errorf("%s: query %d: cached %v, want outcome %d", step, i, res[0].Cached, outcome)
			}
			if !sameHitsBitExact([][]Hit{res[0].Hits}, [][]Hit{want[i].Hits}) {
				t.Fatalf("%s: query %d (cached %v) answered\n %v\nwant\n %v", step, i, res[0].Cached, res[0].Hits, want[i].Hits)
			}
		}
		after := revalCounts(s)
		for o := range after {
			if after[o]-before[o] != predicted[o] {
				t.Errorf("%s: revalidations (kept, touched, expired) went %v → %v, want +%v", step, before, after, predicted)
			}
		}
		if len(sel) < len(queries) {
			return
		}
		res, err := s.Search("c", queries, k, unsigned)
		if err != nil {
			t.Fatal(err)
		}
		prev = make([][]Hit, len(queries))
		for i := range res {
			if !res[i].Cached || !sameHitsBitExact([][]Hit{res[i].Hits}, [][]Hit{want[i].Hits}) {
				t.Fatalf("%s: batched query %d (cached %v) answered %v, want %v", step, i, res[i].Cached, res[i].Hits, want[i].Hits)
			}
			prev[i] = want[i].Hits
		}
	}
	hit := func(i int) Hit {
		t.Helper()
		if len(prev[i]) == 0 {
			t.Fatalf("query %d has no hit", i)
		}
		return prev[i][0]
	}
	// nonHit is a live ID that no query holds, or failing that one that
	// query 0 does not, or failing that (k beyond the live rows) any.
	nonHit := func() int {
		ids := slices.Sorted(func(yield func(int) bool) {
			for id := range vecs {
				if !yield(id) {
					return
				}
			}
		})
		for _, held := range []func(id int) bool{
			func(id int) bool {
				return slices.ContainsFunc(prev, func(hs []Hit) bool { return slices.ContainsFunc(hs, func(h Hit) bool { return h.ID == id }) })
			},
			func(id int) bool { return slices.ContainsFunc(prev[0], func(h Hit) bool { return h.ID == id }) },
		} {
			if i := slices.IndexFunc(ids, func(id int) bool { return !held(id) }); i >= 0 {
				return ids[i]
			}
		}
		return ids[0]
	}
	has := func(hs []Hit, id int) bool { return slices.ContainsFunc(hs, func(h Hit) bool { return h.ID == id }) }

	write("ingest", records(dataset.Gaussian(rng, n, d, false), 100), nil)
	check("ingest", prediction{})
	write("second ingest", records(dataset.Gaussian(rng, 6, d, false), 100+n), nil)
	check("second ingest", prediction{})

	id := hit(0).ID
	write("upsert of a hit", []store.Record{{ID: id, Vec: rng.NormalVec(d)}}, nil)
	check("upsert of a hit", prediction{killed: []int{id}})

	id = nonHit()
	big := vec.Scaled(vec.Normalized(queries[0]), 100)
	write("upsert of a dominating non-hit", []store.Record{{ID: id, Vec: big}}, nil)
	check("upsert of a dominating non-hit", prediction{killed: []int{id}})
	if prev[0][0].ID != id {
		t.Fatalf("the dominating row %d did not lead: %v", id, prev[0])
	}

	kth := prev[1][len(prev[1])-1]
	tie := min(kth.ID, 100) - 1
	write("a tie at the k-th best", []store.Record{{ID: tie, Vec: vecs[kth.ID]}}, nil)
	check("a tie at the k-th best", prediction{})
	if !has(prev[1], tie) {
		t.Fatalf("row %d, tying the k-th best %v with a smaller ID, did not enter: %v", tie, kth, prev[1])
	}

	id = hit(2).ID
	write("delete of a hit", nil, []int{id})
	check("delete of a hit", prediction{killed: []int{id}})
	id = nonHit()
	write("delete of a non-hit", nil, []int{id})
	check("delete of a non-hit", prediction{killed: []int{id}})

	// A hit's row, not its ID or score, decides: the last hit of query 0
	// rewritten with its own vector scores the same on a new row, and its
	// answers are touched; a delete no answer holds keeps every answer; a
	// hit deleted and ingested again under its ID is touched.
	last := prev[0][len(prev[0])-1]
	write("upsert of a last hit with its own vector", []store.Record{{ID: last.ID, Vec: vecs[last.ID]}}, nil)
	check("upsert of a last hit with its own vector", prediction{killed: []int{last.ID}})
	if id = nonHit(); !slices.ContainsFunc(prev, func(hs []Hit) bool { return has(hs, id) }) {
		write("delete no answer holds", nil, []int{id})
		check("delete no answer holds", prediction{})
	}
	id = hit(3).ID
	v := vecs[id]
	write("delete of a hit before its re-ingest", nil, []int{id})
	write("re-ingest of a deleted hit", []store.Record{{ID: id, Vec: v}}, nil)
	check("re-ingest of a deleted hit", prediction{killed: []int{id}})

	// Compaction: queries 2 and 3 are cached at the version it keeps,
	// 0 and 1 one write before it.
	write("ingest before compaction", records(dataset.Gaussian(rng, 1, d, false), 300), nil)
	check("ingest before compaction", prediction{sel: []int{2, 3}})
	c, _ := s.Collection("c")
	if err := c.compact(); err != nil {
		t.Fatal(err)
	}
	if c.compactions.Load() != 1 || c.view.Load().epoch != 1 {
		t.Fatalf("compaction: %d runs, epoch %d", c.compactions.Load(), c.view.Load().epoch)
	}
	check("compaction, entries of its version", prediction{sel: []int{2, 3}, stands: true})
	check("compaction, older entries", prediction{sel: []int{0, 1}, expired: []int{0, 1}})
	write("ingest after compaction", records(dataset.Gaussian(rng, 1, d, false), 301), nil)
	check("ingest after compaction", prediction{expired: []int{2, 3}}) // cached before it, at its version
	write("second ingest after compaction", records(dataset.Gaussian(rng, 1, d, false), 302), nil)
	check("second ingest after compaction", prediction{})

	// The horizon: replacing one row over and over, two units a write,
	// until the writes since the entries hold more than the live rows.
	id = nonHit()
	for range len(vecs)/2 + 1 {
		write("horizon", []store.Record{{ID: id, Vec: rng.NormalVec(d)}}, nil)
	}
	check("horizon", prediction{killed: []int{id}, expired: all})
	write("ingest after the horizon", records(dataset.Gaussian(rng, 1, d, false), 303), nil)
	check("ingest after the horizon", prediction{})
}

// prediction is what a step of revalidationCell expects of its searches:
// the queries searched (all when nil), the IDs written over since their
// entries, the queries whose entries expired, and whether the entries
// answer the pinned version as they stand.
type prediction struct {
	sel, killed, expired []int
	stands               bool
}

// TestCacheRevalidationRefusesOtherDimension: a query of any dimension
// gets the empty answer while a collection holds no row, and is cached
// with it. Once a write fixes the dimension, a cached query of that
// dimension is brought forward, and one of another is refused — not
// served the empty answer.
func TestCacheRevalidationRefusesOtherDimension(t *testing.T) {
	for _, kind := range []string{KindExact, KindNormScan} {
		t.Run(kind, func(t *testing.T) {
			s := New(Config{DefaultShards: 2, CacheCapacity: 16})
			defer s.Close()
			ref := New(Config{DefaultShards: 2, CacheCapacity: -1})
			defer ref.Close()
			rng := xrand.New(3)
			q3, q5 := rng.NormalVec(3), rng.NormalVec(5)
			if _, err := s.EnsureCollection("c", &IndexSpec{Kind: kind}, 0); err != nil {
				t.Fatal(err)
			}
			for round := range 2 {
				res, err := s.Search("c", []vec.Vector{q3, q5}, 2, false)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range res {
					if r.Err != nil || len(r.Hits) != 0 || r.Cached != (round == 1) {
						t.Fatalf("round %d, query %d on an empty collection: %v, cached %v, %v", round, i, r.Hits, r.Cached, r.Err)
					}
				}
			}
			recs := records(dataset.Gaussian(rng, 20, 3, false), 0)
			for _, srv := range []*Server{s, ref} {
				mustIngest(t, srv, "c", &IndexSpec{Kind: kind}, 0, recs)
			}
			res, err := s.Search("c", []vec.Vector{q3, q5}, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Search("c", []vec.Vector{q3}, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res[0].Cached || !sameHitsBitExact([][]Hit{res[0].Hits}, [][]Hit{want[0].Hits}) {
				t.Fatalf("the 3-dimensional query (cached %v) answered %v, want %v", res[0].Cached, res[0].Hits, want[0].Hits)
			}
			if r := res[1]; r.Cached || r.Err == nil || !strings.Contains(r.Err.Error(), "query dimension") {
				t.Fatalf("the 5-dimensional query answered %v, cached %v, %v", r.Hits, r.Cached, r.Err)
			}
		})
	}
}

// TestCacheALSHWritesInvalidate: alsh answers are not brought forward. A
// write through the server drops the collection's entries, and one
// straight to the collection, which drops none, still leaves the entry
// unserved: it answers another version.
func TestCacheALSHWritesInvalidate(t *testing.T) {
	const d = 8
	s := New(Config{DefaultShards: 2, CacheCapacity: 16, Seed: 4})
	defer s.Close()
	ref := New(Config{DefaultShards: 2, CacheCapacity: -1, Seed: 4})
	defer ref.Close()
	rng := xrand.New(8)
	spec := IndexSpec{Kind: KindALSH}
	recs := make([]store.Record, 200)
	for i := range recs {
		recs[i] = ballRecord(rng, i, d)
	}
	q := []vec.Vector{rng.UnitVec(d)}
	search := func(what string, cached bool) {
		t.Helper()
		for round := range 2 {
			got, err := s.Search("c", q, 5, true)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Search("c", q, 5, true)
			if err != nil {
				t.Fatal(err)
			}
			if got[0].Cached != (cached || round == 1) || !sameHitsBitExact([][]Hit{got[0].Hits}, [][]Hit{want[0].Hits}) {
				t.Fatalf("%s, round %d: cached %v, %v; want %v", what, round, got[0].Cached, got[0].Hits, want[0].Hits)
			}
		}
	}
	for _, srv := range []*Server{s, ref} {
		mustIngest(t, srv, "c", &spec, 0, recs[:150])
	}
	search("ingest", false)
	before := revalCounts(s)
	for _, srv := range []*Server{s, ref} {
		_, invalidated, err := srv.Upsert("c", &spec, 0, recs[150:])
		if err != nil || srv == s && invalidated != 1 {
			t.Fatalf("upsert: invalidated %d, %v", invalidated, err)
		}
	}
	search("upsert", false)
	c, _ := s.Collection("c")
	rc, _ := ref.Collection("c")
	for _, col := range []*Collection{c, rc} {
		if _, _, err := col.Delete([]int{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	search("a delete that invalidated nothing", false)
	if after := revalCounts(s); after != before {
		t.Fatalf("alsh lookups moved the revalidation counters: %v → %v", before, after)
	}
	if st := s.Stats().Cache; st.Invalidations != 1 || st.Revalidated != 0 || st.RevalidationMisses != 0 {
		t.Fatalf("cache stats %+v", st)
	}
}

// TestCacheRevalidationKeepsSubnormalTies: a row tying the cached k-th
// best with a smaller ID enters even where the scores are subnormal and
// the computed dot product exceeds the computed norm bound — the bound's
// slack keeps such a row from being cut (flat.NormBound).
func TestCacheRevalidationKeepsSubnormalTies(t *testing.T) {
	q := vec.Vector{2.7739124912137966e-161, 3.560469218601328e-161, 1.6969110576524285e-161, 1.9695577641983736e-161}
	if bound, _ := flat.NormBound(q); !(flat.RowNorm(q)*bound < vec.DotKernel(q, q)) {
		t.Fatal("q·q no longer exceeds its norm bound: the case tests nothing")
	}
	for _, spec := range []IndexSpec{{Kind: KindExact}, {Kind: KindExact, Precision: PrecisionI8}, {Kind: KindNormScan}} {
		t.Run(spec.kind()+"-"+spec.precision(), func(t *testing.T) {
			s := New(Config{DefaultShards: 2, CacheCapacity: 16})
			defer s.Close()
			ref := New(Config{DefaultShards: 2, CacheCapacity: -1})
			defer ref.Close()
			recs := []store.Record{{ID: 10, Vec: q}, {ID: 11, Vec: vec.Scaled(q, 0.5)}, {ID: 12, Vec: vec.Scaled(q, -1)}}
			for _, batch := range [][]store.Record{recs, {{ID: 5, Vec: q}}} {
				for _, srv := range []*Server{s, ref} {
					mustIngest(t, srv, "c", &spec, 0, batch)
				}
				got, err := s.Search("c", []vec.Vector{q}, 1, false)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Search("c", []vec.Vector{q}, 1, false)
				if err != nil {
					t.Fatal(err)
				}
				if !sameHitsBitExact([][]Hit{got[0].Hits}, [][]Hit{want[0].Hits}) {
					t.Fatalf("after ingesting %v: cached %v, answered %v, want %v", batch[0].ID, got[0].Cached, got[0].Hits, want[0].Hits)
				}
			}
			if st := s.Stats().Cache; st.Revalidated != 1 || st.Misses != 1 {
				t.Fatalf("cache stats %+v: want one miss, then one answer brought forward", st)
			}
		})
	}
}
