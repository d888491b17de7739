package server

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// TestShardFloorKeepsTies: a tile that visits the shards in turn hands
// the next shard each query's k-th best so far as its floor, and a row
// that ties the floor with a smaller record ID must still reach the
// merge and win the tie. Against q = e₀, shard 0 (the even IDs) scores 3,
// 2 and 1 — at k = 2 its floor for shard 1 is record 4's 2 — and shard 1
// (the odd IDs) holds record 1 at exactly 2, which outranks record 4.
// A one-query request, a 64-query batch and a top-2 join must each rank it
// so, on every flat kind: on one worker every tile visits the shards in
// turn; on two a one-tile request's shards run side by side, and each of
// the batch's two tiles visits them in turn.
func TestShardFloorKeepsTies(t *testing.T) {
	recs := []store.Record{
		{ID: 2, Vec: vec.Vector{3, 0.25}},
		{ID: 4, Vec: vec.Vector{2, -0.5}},
		{ID: 6, Vec: vec.Vector{1, 0}},
		{ID: 1, Vec: vec.Vector{2, 0.75}},
		{ID: 3, Vec: vec.Vector{0.5, 0}},
	}
	// Powers of two keep every score, and so the tie, exact.
	queries := make([]vec.Vector, 64)
	for i := range queries {
		queries[i] = vec.Vector{float64(int(1) << (i % 4)), 0}
	}
	for _, c := range []struct {
		engine string
		spec   IndexSpec
	}{
		{"exact", IndexSpec{Kind: KindExact}},
		{"normpruned", IndexSpec{Kind: KindNormScan}},
		{"exact", IndexSpec{Kind: KindExact, Precision: PrecisionI8}},
	} {
		for _, workers := range []int{1, 2} {
			s := New(Config{DefaultShards: 2, CacheCapacity: -1, Workers: workers})
			defer s.Close()
			mustIngest(t, s, "c", &c.spec, 2, recs)
			mustIngest(t, s, "q", nil, 1, records(queries[:1], 0))
			cell := c.spec.kind() + "/" + c.spec.precision()
			batch, err := s.Search("c", queries, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				one, err := s.Search("c", []vec.Vector{q}, 2, false)
				if err != nil || one[0].Err != nil || batch[i].Err != nil {
					t.Fatalf("%s: query %d: %v %v %v", cell, i, err, one[0].Err, batch[i].Err)
				}
				w := q[0]
				if want := []Hit{{ID: 2, Score: 3 * w}, {ID: 1, Score: 2 * w}}; !reflect.DeepEqual(one[0].Hits, want) || !reflect.DeepEqual(batch[i].Hits, want) {
					t.Fatalf("%s workers=%d query %d: one-query request %v, in the batch %v, want %v", cell, workers, i, one[0].Hits, batch[i].Hits, want)
				}
			}
			resp, err := s.Join(JoinRequest{Data: "c", Queries: "q", Engine: c.engine, S: 0.25, TopK: 2})
			if err != nil {
				t.Fatal(err)
			}
			if want := []JoinPair{{DataID: 2, QueryID: 0, Value: 3}, {DataID: 1, QueryID: 0, Value: 2}}; !reflect.DeepEqual(resp.Pairs, want) {
				t.Fatalf("%s workers=%d: top-2 join %v, want %v", cell, workers, resp.Pairs, want)
			}
		}
	}
}

// TestInTurnFloorsScanLess pins the mechanism without a hook. On a 4-shard
// normscan collection whose item norms spread lognormally (σ = 1), a tile
// of 32 queries searched on two workers — its shards two groups of two,
// each group in turn with its own floors — merges to the same hits per
// query as on eight, one shard a group with no floors, and scores fewer
// rows in sum (the explained tile's RowsScanned). The same holds for a
// normpruned top-k join of one tile: the pairs agree and the grouped join
// compares fewer.
func TestInTurnFloorsScanLess(t *testing.T) {
	const n, nq, k = 8000, 32, 10
	lf := dataset.NewLatentFactor(xrand.New(5), n, nq, 16, 1)
	spec := IndexSpec{Kind: KindNormScan}
	joins := make(map[int]*JoinResponse)
	hits := make(map[int][][]Hit)
	rows := make(map[int]int)
	for _, workers := range []int{2, 8} {
		s := New(Config{DefaultShards: 4, CacheCapacity: -1, Workers: workers})
		defer s.Close()
		mustIngest(t, s, "c", &spec, 4, records(lf.Items, 0))
		mustIngest(t, s, "q", nil, 1, records(lf.Users, 0))
		resp, err := s.Join(JoinRequest{Data: "c", Queries: "q", Engine: "normpruned", S: 1e-3, TopK: k})
		if err != nil {
			t.Fatal(err)
		}
		joins[workers] = resp
		c, _ := s.Collection("c")
		out := make([]SearchResult, nq)
		c.search(context.Background(), s.pool, nil, lf.Users, SearchOpts{K: k, Explain: true}, out)
		for _, r := range out {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			hits[workers] = append(hits[workers], r.Hits)
		}
		rows[workers] = out[0].Explain.RowsScanned
	}
	if !sameHitsBitExact(hits[2], hits[8]) {
		t.Fatalf("in groups of two %v, one shard a group %v", hits[2], hits[8])
	}
	if rows[2] >= rows[8] {
		t.Fatalf("in groups of two the tile scored %d rows, one shard a group %d: the floors saved nothing", rows[2], rows[8])
	}
	t.Logf("rows scored: %d in groups of two, %d one shard a group", rows[2], rows[8])
	grouped, alone := joins[2], joins[8]
	if !reflect.DeepEqual(grouped.Pairs, alone.Pairs) || len(alone.Pairs) != nq*k {
		t.Fatalf("join pairs: %d on two workers, %d on eight (want %d), or they differ", len(grouped.Pairs), len(alone.Pairs), nq*k)
	}
	if grouped.Compared >= alone.Compared {
		t.Fatalf("the grouped join compared %d pairs, one group a shard %d", grouped.Compared, alone.Compared)
	}
}

// TestSearchShardGroups: a search runs its tiles' shards in groups, as
// many per tile as fill the pool (runTiles), so a one-tile request on
// fewer workers than shards scans each group's shards in turn, floored by
// the ones before. Requests of 1, 32, 33 and 64 queries on 1, 2 and 8
// workers against 4 shards of every kind must answer each query as
// SearchOne does alone on one worker, Float64bits for Float64bits — at
// k = 10, signed and unsigned, and at k = 1 000, where a group's floor
// falls below zero. An
// explained query's per-shard counts are a floor-less scan of that shard
// alone where every shard has a worker, and never more than it where the
// groups hold several shards.
func TestSearchShardGroups(t *testing.T) {
	const n, d, shards = 3000, 16, 4
	rng := xrand.New(11)
	items := dataset.Gaussian(rng, n, d, true)
	for _, v := range items {
		vec.Scale(v, rng.Float64()) // spread the norms inside alsh's ball
	}
	queries := dataset.Gaussian(rng, 64, d, true)
	specs := []IndexSpec{{Kind: KindExact}, {Kind: KindNormScan}, {Kind: KindExact, Precision: PrecisionI8}, {Kind: KindALSH}}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 8} {
		s := New(Config{DefaultShards: shards, CacheCapacity: -1, Workers: workers})
		defer s.Close()
		for _, spec := range specs {
			name := spec.kind() + "-" + spec.precision()
			mustIngest(t, s, name, &spec, shards, records(items, 0))
			c, _ := s.Collection(name)
			snaps := c.view.Load().snaps
			for _, r := range []struct {
				k        int
				unsigned bool
			}{{10, false}, {10, true}, {1000, false}} {
				k, unsigned := r.k, r.unsigned
				cell := fmt.Sprintf("%s workers=%d k=%d unsigned=%v", name, workers, k, unsigned)
				alone := make([][]Hit, len(queries))
				for i, q := range queries {
					hits, err := c.SearchOne(ctx, NewPool(1), q, k, unsigned)
					if err != nil {
						t.Fatal(err)
					}
					alone[i] = hits
				}
				for _, nq := range []int{1, 32, 33, 64} {
					res, err := s.Search(name, queries[:nq], k, unsigned)
					if err != nil {
						t.Fatal(err)
					}
					for i, r := range res {
						if r.Err != nil || !sameHitsBitExact([][]Hit{r.Hits}, alone[i:i+1]) {
							t.Fatalf("%s: query %d of %d: %v (%v), alone %v", cell, i, nq, r.Hits, r.Err, alone[i])
						}
					}
				}
				counts := func(e ShardExplain) [3]int { return [3]int{e.RowsScanned, e.RerankCandidates, e.Candidates} }
				for i, q := range queries[:8] {
					res, err := s.SearchWithOpts(ctx, name, []vec.Vector{q}, SearchOpts{K: k, Unsigned: unsigned, Explain: true})
					if err != nil || res[0].Err != nil {
						t.Fatal(err, res[0].Err)
					}
					qs, _ := flat.FromVectors([]vec.Vector{q})
					for si := range snaps {
						ts := getTileScratch()
						ts.prepare(shards, 1, k)
						ex := make([]ShardExplain, shards)
						keys, err := c.hashQueries(ctx, &ts.keys, qs, 0, 1, unsigned)
						if err == nil {
							err = scanInTurn(ctx, snaps, qs, ts, 0, 1, k, si, si+1, new(floorState), math.Inf(-1), TopKOpts{Unsigned: unsigned, Keys: keys}, ex)
						}
						putTileScratch(ts)
						if err != nil {
							t.Fatal(err)
						}
						got, want := counts(res[0].Explain.Shards[si]), counts(ex[si])
						if workers >= shards && got != want || got[0] > want[0] || got[1] > want[1] || got[2] > want[2] {
							t.Fatalf("%s: query %d shard %d counts %v, the shard alone %v", cell, i, si, got, want)
						}
					}
				}
			}
		}
	}
}
