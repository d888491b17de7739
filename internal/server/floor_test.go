package server

import (
	"context"
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
// A 64-query batch (two tiles, each visiting the shards in turn) and a
// top-2 join (one tile: its shards in turn on one worker, side by side on
// two) must rank it as the one-query request does, on every flat kind.
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
			if _, _, err := s.Ingest("c", &c.spec, 2, recs); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Ingest("q", nil, 1, records(queries[:1], 0)); err != nil {
				t.Fatal(err)
			}
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
// scanned in turn (scanTile with a nil pool: each shard floored by the
// ones before it) merges to the same hits per query as the tile scanned
// on a pool, shard by shard with no floors, and scores fewer rows in sum
// (ShardExplain.RowsScanned). The same holds for a normpruned top-k join
// of one tile: on two workers its shards run as two groups of two side
// by side, each group in turn with its own floors, on eight as four
// groups of one; the pairs agree and the grouped join compares fewer.
func TestInTurnFloorsScanLess(t *testing.T) {
	const n, d, nq, k = 8000, 16, 32, 10
	lf := dataset.NewLatentFactor(xrand.New(5), n, nq, d, 1)
	spec := IndexSpec{Kind: KindNormScan}
	joins := make(map[int]*JoinResponse)
	for _, workers := range []int{2, 8} {
		s := New(Config{DefaultShards: 4, CacheCapacity: -1, Workers: workers})
		defer s.Close()
		if _, _, err := s.Ingest("c", &spec, 4, records(lf.Items, 0)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Ingest("q", nil, 1, records(lf.Users, 0)); err != nil {
			t.Fatal(err)
		}
		resp, err := s.Join(JoinRequest{Data: "c", Queries: "q", Engine: "normpruned", S: 1e-3, TopK: k})
		if err != nil {
			t.Fatal(err)
		}
		joins[workers] = resp
		if workers != 2 {
			continue
		}
		c, _ := s.Collection("c")
		snaps := c.view.Load().snaps
		var qs *flat.Store
		pack(&qs, d, nq, func(i int) vec.Vector { return lf.Users[i] })
		scan := func(pool *Pool) ([][]Hit, int) {
			ts := getTileScratch()
			defer putTileScratch(ts)
			ex := make([]ShardExplain, len(snaps))
			if err := scanTile(context.Background(), pool, snaps, qs, ts, 0, nq, k, TopKOpts{}, ex); err != nil {
				t.Fatal(err)
			}
			hits := make([][]Hit, nq)
			for j := range hits {
				hits[j] = ts.merge(j, nq, k, nil)
			}
			rows := 0
			for _, e := range ex {
				rows += e.RowsScanned
			}
			return hits, rows
		}
		inTurn, turnRows := scan(nil)
		sideBySide, poolRows := scan(NewPool(4))
		if !sameHitsBitExact(inTurn, sideBySide) {
			t.Fatalf("in turn %v, on a pool %v", inTurn, sideBySide)
		}
		if turnRows >= poolRows {
			t.Fatalf("in turn the tile scored %d rows, on a pool %d: the floors saved nothing", turnRows, poolRows)
		}
		t.Logf("rows scored: %d in turn, %d on a pool", turnRows, poolRows)
	}
	grouped, alone := joins[2], joins[8]
	if !reflect.DeepEqual(grouped.Pairs, alone.Pairs) || len(alone.Pairs) != nq*k {
		t.Fatalf("join pairs: %d on two workers, %d on eight (want %d), or they differ", len(grouped.Pairs), len(alone.Pairs), nq*k)
	}
	if grouped.Compared >= alone.Compared {
		t.Fatalf("the grouped join compared %d pairs, one group a shard %d", grouped.Compared, alone.Compared)
	}
}
