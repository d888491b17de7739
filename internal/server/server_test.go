package server

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/mips"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// records wraps vectors as store records with sequential IDs.
func records(vs []vec.Vector, base int) []store.Record {
	recs := make([]store.Record, len(vs))
	for i, v := range vs {
		recs[i] = store.Record{ID: base + i, Vec: v}
	}
	return recs
}

// records returns the collection's live records in ID order, gathered
// from the shards the way a checkpoint gathers them.
func (c *Collection) records() []store.Record {
	c.ingestMu.Lock()
	recs := c.liveRecords()
	c.ingestMu.Unlock()
	slices.SortFunc(recs, func(a, b store.Record) int { return cmp.Compare(a.ID, b.ID) })
	return recs
}

// exactTopK is the reference answer: full scan with the canonical
// (score descending, ID ascending) ordering.
func exactTopK(recs []store.Record, q vec.Vector, k int, unsigned bool) []Hit {
	acc := flat.NewAcc(k)
	for _, r := range recs {
		v := vec.Dot(r.Vec, q)
		if unsigned && v < 0 {
			v = -v
		}
		acc.Offer(r.ID, v)
	}
	hits := make([]Hit, 0, k)
	for _, h := range acc.Hits() {
		hits = append(hits, Hit{ID: h.Index, Score: h.Score})
	}
	return hits
}

func TestMergeTopK(t *testing.T) {
	lists := [][]Hit{
		{{ID: 0, Score: 9}, {ID: 4, Score: 5}, {ID: 8, Score: 1}},
		{{ID: 1, Score: 9}, {ID: 5, Score: 5}},
		{},
		{{ID: 2, Score: 7}},
	}
	var heap mergeHeap
	// The second merge appends behind the first; both must stay intact.
	dst := make([]Hit, 0, 4+100)
	got := mergeTopKInto(lists, nil, 4, dst, nil, &heap)
	want := []Hit{{ID: 0, Score: 9}, {ID: 1, Score: 9}, {ID: 2, Score: 7}, {ID: 4, Score: 5}}
	if len(got) != len(want) {
		t.Fatalf("merged %d hits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if all := mergeTopKInto(lists, nil, 100, dst[:len(got)], nil, &heap); len(all) != 6 || all[0] != want[0] {
		t.Fatalf("over-asking returned %v, want 6 hits", all)
	}
	if got[3] != want[3] {
		t.Fatalf("the second merge overwrote the first: %v", got)
	}
}

// TestShardedMatchesLinearScan is the shard-merge correctness test:
// the sharded top-k must equal the unsharded exact answer, with top-1
// checked against mips.LinearScan.
func TestShardedMatchesLinearScan(t *testing.T) {
	rng := xrand.New(7)
	data := dataset.Gaussian(rng, 500, 12, false)
	queries := dataset.Gaussian(rng, 40, 12, false)

	for _, nshards := range []int{1, 4, 7} {
		s := New(Config{DefaultShards: nshards, CacheCapacity: -1})
		defer s.Close()
		if _, _, err := s.Ingest("items", &IndexSpec{Kind: KindExact}, nshards, records(data, 0)); err != nil {
			t.Fatalf("shards=%d: ingest: %v", nshards, err)
		}
		results, err := s.Search("items", queries, 10, false)
		if err != nil {
			t.Fatalf("shards=%d: search: %v", nshards, err)
		}
		for qi, res := range results {
			if res.Err != nil {
				t.Fatalf("shards=%d query %d: %v", nshards, qi, res.Err)
			}
			want := exactTopK(records(data, 0), queries[qi], 10, false)
			if len(res.Hits) != len(want) {
				t.Fatalf("shards=%d query %d: %d hits, want %d", nshards, qi, len(res.Hits), len(want))
			}
			for i := range want {
				if res.Hits[i] != want[i] {
					t.Fatalf("shards=%d query %d hit %d: got %+v, want %+v",
						nshards, qi, i, res.Hits[i], want[i])
				}
			}
			// Top-1 against the mips package's linear scan baseline.
			ls := mips.LinearScan(data, queries[qi])
			if res.Hits[0].ID != ls.Index || res.Hits[0].Score != ls.Value {
				t.Fatalf("shards=%d query %d: top-1 (%d, %v), LinearScan (%d, %v)",
					nshards, qi, res.Hits[0].ID, res.Hits[0].Score, ls.Index, ls.Value)
			}
		}
	}
}

// TestNormScanMatchesExact checks the norm-pruned per-shard engine
// returns exactly the full-scan answer on skewed-norm data.
func TestNormScanMatchesExact(t *testing.T) {
	rng := xrand.New(11)
	lf := dataset.NewLatentFactor(rng, 400, 30, 10, 1.0)
	s := New(Config{})
	defer s.Close()
	if _, _, err := s.Ingest("items", &IndexSpec{Kind: KindNormScan}, 3, records(lf.Items, 0)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	for _, unsigned := range []bool{false, true} {
		results, err := s.Search("items", lf.Users, 5, unsigned)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		for qi, res := range results {
			want := exactTopK(records(lf.Items, 0), lf.Users[qi], 5, unsigned)
			for i := range want {
				if res.Hits[i] != want[i] {
					t.Fatalf("unsigned=%v query %d hit %d: got %+v, want %+v",
						unsigned, qi, i, res.Hits[i], want[i])
				}
			}
		}
	}
}

// TestConcurrentIngestSearch hammers one collection with concurrent
// ingest batches and search batches; run under -race it checks the
// snapshot discipline, and every answer must be internally consistent
// (scores exactly verified against a relation snapshot).
func TestConcurrentIngestSearch(t *testing.T) {
	rng := xrand.New(3)
	dim := 8
	s := New(Config{DefaultShards: 4, CacheCapacity: 64})
	defer s.Close()

	// Seed the collection so searches always have data.
	if _, _, err := s.Ingest("live", &IndexSpec{Kind: KindExact}, 4,
		records(dataset.Gaussian(rng, 50, dim, false), 0)); err != nil {
		t.Fatalf("seed ingest: %v", err)
	}

	const (
		writers        = 3
		readers        = 4
		batchesPerGoro = 8
		batchSize      = 25
	)
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := xrand.New(uint64(100 + w))
			for b := 0; b < batchesPerGoro; b++ {
				base := 1000 + (w*batchesPerGoro+b)*batchSize
				vs := dataset.Gaussian(r, batchSize, dim, false)
				if _, _, err := s.Ingest("live", nil, 0, records(vs, base)); err != nil {
					errc <- fmt.Errorf("writer %d batch %d: %w", w, b, err)
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := xrand.New(uint64(200 + g))
			col, _ := s.Collection("live")
			for b := 0; b < batchesPerGoro; b++ {
				qs := dataset.Gaussian(r, 10, dim, false)
				results, err := s.Search("live", qs, 3, false)
				if err != nil {
					errc <- fmt.Errorf("reader %d batch %d: %w", g, b, err)
					return
				}
				recs := col.records()
				byID := make(map[int]vec.Vector, len(recs))
				for _, rec := range recs {
					byID[rec.ID] = rec.Vec
				}
				for qi, res := range results {
					if res.Err != nil {
						errc <- fmt.Errorf("reader %d query %d: %w", g, qi, res.Err)
						return
					}
					for _, h := range res.Hits {
						p, ok := byID[h.ID]
						if !ok {
							// The hit predates this relation snapshot only if
							// IDs were removed, which never happens.
							errc <- fmt.Errorf("reader %d: hit ID %d not in relation", g, h.ID)
							return
						}
						if got := vec.Dot(p, qs[qi]); got != h.Score {
							errc <- fmt.Errorf("reader %d: hit %d score %v, dot %v", g, h.ID, h.Score, got)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := s.Stats()
	cs := st.Collections["live"]
	if cs.Records != 50+writers*batchesPerGoro*batchSize {
		t.Fatalf("final record count %d, want %d", cs.Records, 50+writers*batchesPerGoro*batchSize)
	}
	total := 0
	for _, sh := range cs.Shards {
		total += sh.Records
	}
	if total != cs.Records {
		t.Fatalf("shard sizes sum to %d, want %d", total, cs.Records)
	}
}

func TestCacheHitAndInvalidation(t *testing.T) {
	rng := xrand.New(5)
	data := dataset.Gaussian(rng, 60, 6, false)
	q := dataset.Gaussian(rng, 1, 6, false)

	s := New(Config{DefaultShards: 2, CacheCapacity: 16})
	defer s.Close()
	if _, _, err := s.Ingest("c", nil, 0, records(data, 0)); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	first, err := s.Search("c", q, 3, false)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if first[0].Cached {
		t.Fatal("first search reported a cache hit")
	}
	second, err := s.Search("c", q, 3, false)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if !second[0].Cached {
		t.Fatal("repeat search missed the cache")
	}

	// Ingest a dominating vector; an exact collection's cache keeps its
	// entry, and the answer brought forward across the write must surface
	// the new record.
	big := vec.Scaled(vec.Normalized(q[0]), 100)
	_, invalidated, err := s.Ingest("c", nil, 0, []store.Record{{ID: 999, Vec: big}})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if invalidated != 0 {
		t.Fatalf("an exact ingest invalidated %d cache entries", invalidated)
	}
	third, err := s.Search("c", q, 3, false)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if !third[0].Cached {
		t.Fatal("post-ingest search did not bring the cached answer forward")
	}
	if third[0].Hits[0].ID != 999 {
		t.Fatalf("post-ingest top hit %d, want 999", third[0].Hits[0].ID)
	}
}

func TestDuplicateAndAutoIDs(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	v := vec.Vector{1, 0}
	if _, _, err := s.Ingest("c", nil, 0, []store.Record{{ID: 7, Vec: v}}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if _, _, err := s.Ingest("c", nil, 0, []store.Record{{ID: 7, Vec: v}}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	// A rejected batch must leave no trace: ID 10 was reserved before
	// the duplicate 7 aborted the batch, and must be free again.
	if _, _, err := s.Ingest("c", nil, 0, []store.Record{
		{ID: 10, Vec: v}, {ID: 7, Vec: v},
	}); err == nil {
		t.Fatal("duplicate ID in batch accepted")
	}
	col, _ := s.Collection("c")
	if col.Len() != 1 {
		t.Fatalf("failed batch published records: %d, want 1", col.Len())
	}
	if _, _, err := s.Ingest("c", nil, 0, []store.Record{{ID: 10, Vec: v}}); err != nil {
		t.Fatalf("re-ingest after failed batch: %v", err)
	}
	// Auto IDs skip taken ones.
	if _, _, err := s.Ingest("c", nil, 0, []store.Record{
		{ID: AutoID, Vec: vec.Vector{0, 1}},
		{ID: AutoID, Vec: vec.Vector{0.5, 0.5}},
	}); err != nil {
		t.Fatalf("auto-ID ingest: %v", err)
	}
	if col.Len() != 4 {
		t.Fatalf("collection has %d records, want 4", col.Len())
	}
}

func TestShardPrepareFailureLeavesSnapshot(t *testing.T) {
	sh := newShard(0, nil)
	defer sh.close()
	if err := func() error {
		snap, err := sh.prepare(IndexSpec{Kind: KindExact}, nil, shardWrite{ids: []int{0}, vs: []vec.Vector{{1, 0}}}, nil)
		if err != nil {
			return err
		}
		sh.commit(snap, false)
		return nil
	}(); err != nil {
		t.Fatalf("seed prepare: %v", err)
	}
	// A failing build must not disturb the published snapshot.
	if _, err := sh.prepare(IndexSpec{Kind: KindExact}, nil, shardWrite{ids: []int{1}, vs: []vec.Vector{{0, 1, 2}}}, nil); err == nil {
		t.Fatal("a row of the wrong dimension built")
	}
	if n := len(sh.snap.Load().ids); n != 1 {
		t.Fatalf("failed prepare changed shard size to %d", n)
	}
	qs, err := flat.FromVectors([]vec.Vector{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	ts := &tileScratch{lists: make([][]Hit, 1), trans: make([]Hit, 1)}
	err = scanShard(context.Background(), []*shardSnap{sh.snap.Load()}, qs, ts, 0, 1, 1, 0, TopKOpts{}, nil)
	if hits := ts.lists[0]; err != nil || len(hits) != 1 || hits[0].ID != 0 {
		t.Fatalf("shard unusable after failed prepare: hits=%v err=%v", hits, err)
	}
}

func TestIngestAfterCloseFailsCleanly(t *testing.T) {
	s := New(Config{})
	if _, _, err := s.Ingest("c", nil, 0, []store.Record{{ID: 0, Vec: vec.Vector{1}}}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	col, _ := s.Collection("c")
	s.Close()
	// A stale handle must get an error, not a panic on a closed channel.
	if _, err := col.Ingest([]store.Record{{ID: 1, Vec: vec.Vector{2}}}); err == nil {
		t.Fatal("ingest on closed collection succeeded")
	}
	// The server must not respawn collections after Close.
	if _, _, err := s.Ingest("fresh", nil, 0, []store.Record{{ID: 0, Vec: vec.Vector{1}}}); err == nil {
		t.Fatal("ingest on closed server succeeded")
	}
	// Reads keep working against the final snapshots.
	if hits, err := col.SearchOne(context.Background(), NewPool(1), vec.Vector{1}, 1, false); err != nil || len(hits) != 1 {
		t.Fatalf("search on closed collection: hits=%v err=%v", hits, err)
	}
}

func TestIndexSpecValidate(t *testing.T) {
	bad := []IndexSpec{
		{Kind: "bogus"},
		{Kind: KindALSH, K: -1},
		{Kind: KindALSH, L: -2},
		{Kind: "sketch"}, // no longer served
	}
	for _, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Fatalf("spec %+v validated", sp)
		}
	}
	good := []IndexSpec{{}, {Kind: KindExact}, {Kind: KindALSH, K: 9}, {Kind: KindALSH, K: 17}}
	for _, sp := range good {
		if err := sp.Validate(); err != nil {
			t.Fatalf("spec %+v rejected: %v", sp, err)
		}
	}
}

func TestJoinEndToEnd(t *testing.T) {
	rng := xrand.New(9)
	P, Q, plantedAt := dataset.Planted(rng, 80, 20, 10, 0.9, []int{2, 5, 11})
	s := New(Config{})
	defer s.Close()
	if _, _, err := s.Ingest("data", nil, 0, records(P, 0)); err != nil {
		t.Fatalf("ingest P: %v", err)
	}
	if _, _, err := s.Ingest("queries", nil, 0, records(Q, 0)); err != nil {
		t.Fatalf("ingest Q: %v", err)
	}
	resp, err := s.Join(JoinRequest{Data: "data", Queries: "queries", Engine: "exact", S: 0.8, C: 0.9})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	found := make(map[int]int)
	for _, p := range resp.Pairs {
		found[p.QueryID] = p.DataID
	}
	for qi, pi := range plantedAt {
		if found[qi] != pi {
			t.Fatalf("planted pair (q=%d, p=%d) not reported; got %v", qi, pi, resp.Pairs)
		}
	}
}
