package server

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/flat"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// TestNormScanWritesAcrossRebuilds drives a one-shard normscan f64
// collection through upserts and deletes across two full re-sorts (a
// tail run reaching 1 024 rows). A write merges its batch into the tail
// run and patches the permuted dead set from the last snapshot's; after
// every write the shard must answer bit-identically to the index built
// anew over the published snapshot — its base run sorted afresh,
// its tail run sorted in one go, its dead set gathered in full: the dead
// set itself, explained searches signed and unsigned at k = 1 and 10
// (hits and counts), batch searches, a normpruned join (pairs and
// compared), and the rows the write's index build reports copied.
func TestNormScanWritesAcrossRebuilds(t *testing.T) {
	const d, initial = 8, 1500
	s := New(Config{DefaultShards: 1, CacheCapacity: -1, CompactFraction: -1})
	defer s.Close()
	rng := xrand.New(45)
	// Skewed norms, and every seventh record a copy of an earlier vector:
	// norm ties inside and across runs.
	var drawn []vec.Vector
	record := func(id int) store.Record {
		v := vec.Vector(rng.NormalVec(d))
		vec.Scale(v, math.Exp(1.5*rng.Normal()))
		if len(drawn) > 0 && id%7 == 0 {
			v = drawn[rng.Intn(len(drawn))].Clone()
		}
		drawn = append(drawn, v)
		return store.Record{ID: id, Vec: v}
	}
	batch := func(n, from int) (out []store.Record) {
		for i := range n {
			out = append(out, record(from+i))
		}
		return out
	}
	if _, _, err := s.Upsert("ns", &IndexSpec{Kind: KindNormScan}, 1, batch(initial, 0)); err != nil {
		t.Fatal(err)
	}
	queries := []vec.Vector{drawn[3], drawn[800], vec.Scaled(drawn[42], -1)}
	for range 3 {
		queries = append(queries, rng.NormalVec(d))
	}
	var qrecs []store.Record
	for i, q := range queries {
		qrecs = append(qrecs, store.Record{ID: i, Vec: q})
	}
	if _, _, err := s.Upsert("q", &IndexSpec{Kind: KindExact}, 1, qrecs); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Collection("ns")
	qc, _ := s.Collection("q")
	ctx := context.Background()

	base, next := initial, initial // rows in the base run; the next new ID
	joined := 0
	old := c.shards[0].snap.Load()
	for w := 0; w < 64; w++ {
		rebuilds, copied := c.builds.rebuild.Load(), c.builds.rowsCopied.Load()
		if w%4 == 3 {
			var ids []int
			for i := range 24 {
				id := rng.Intn(next)
				if i%2 == 1 { // among the newest: in the tail run
					id = next - 1 - rng.Intn(300)
				}
				ids = append(ids, id)
			}
			if _, _, _, err := s.Delete("ns", ids); err != nil {
				t.Fatal(err)
			}
		} else {
			recs := batch(40+rng.Intn(60), next)
			replaced := map[int]bool{}
			for i := range recs {
				// A third replace a record, live or deleted.
				if id := rng.Intn(next); i%3 == 0 && !replaced[id] {
					recs[i].ID, replaced[id] = id, true
				}
			}
			next += len(recs)
			if _, _, err := s.Upsert("ns", nil, 0, recs); err != nil {
				t.Fatal(err)
			}
		}
		snap := c.shards[0].snap.Load()
		cell := fmt.Sprintf("write %d (%d rows, %d dead)", w, snap.fs.Len(), snap.dead.Count())
		if snap.fs != old.fs {
			want := int64(snap.fs.Len())
			if c.builds.rebuild.Load() > rebuilds {
				base = snap.fs.Len()
			} else {
				want = int64(max(snap.fs.Len()-snap.fs.SharedRows(old.fs), snap.fs.Len()-base))
			}
			if got := c.builds.rowsCopied.Load() - copied; got != want {
				t.Fatalf("%s: the index build copied %d rows, want %d", cell, got, want)
			}
		}
		old = snap

		ref := *snap
		ref.index = rebuiltNormIndex(t, snap, base)
		served, want := snap.index.(*flatIndex).dead, ref.index.(*flatIndex).dead
		if served.Count() != want.Count() || served.Len() != want.Len() {
			t.Fatalf("%s: served dead set %d of %d, gathered %d of %d", cell, served.Count(), served.Len(), want.Count(), want.Len())
		}
		for i := range want.Len() {
			if served.Dead(i) != want.Dead(i) {
				t.Fatalf("%s: physical row %d dead=%v, gathered %v", cell, i, served.Dead(i), want.Dead(i))
			}
		}
		checkNormScanAnswers(t, cell, s, &ref, queries)
		req := JoinRequest{Data: "ns", Queries: "q", Engine: "normpruned", S: 2, TopK: 3}
		resp, err := s.Join(req)
		if err != nil {
			t.Fatal(err)
		}
		sp, _ := joinSpec(req)
		pairs, compared, err := runJoin(ctx, s.pool, c, resp.Engine, []*shardSnap{&ref}, qc.shardSnaps(), newJoinOpts(sp, req), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Pairs, pairs) || resp.Compared != compared {
			t.Fatalf("%s: normpruned join %v (compared %d), rebuilt %v (%d)", cell, resp.Pairs, resp.Compared, pairs, compared)
		}
		joined += len(pairs)
	}
	if got := c.builds.rebuild.Load(); got < 3 || joined == 0 {
		t.Fatalf("the shard was sorted whole %d times and the joins found %d pairs: want the first build and two re-sorts, and pairs", got, joined)
	}
}

// rebuiltNormIndex builds what a normscan shard serves for snap from
// nothing: rows [0, base) sorted into the base run, the rest into a tail
// run, and snap's dead set gathered in full.
func rebuiltNormIndex(t *testing.T, snap *shardSnap, base int) *flatIndex {
	t.Helper()
	prefix, err := flat.FromVectors(snap.fs.Rows()[:base])
	if err != nil {
		t.Fatal(err)
	}
	view := flat.NewNormSorted(prefix).View
	if base < snap.fs.Len() {
		var ok bool
		if view, _, ok = view.Extend(snap.fs); !ok {
			t.Fatalf("a tail of %d rows asks for a rebuild", snap.fs.Len()-base)
		}
	}
	ix := &flatIndex{fs: snap.fs, view: view}
	if snap.dead.Count() > 0 {
		ix.dead = view.GatherDead(snap.dead)
	}
	return ix
}

// checkNormScanAnswers holds s's searches of the one-shard collection
// "ns" to the same searches run on ref: every query explained, signed
// and unsigned at k = 1 and 10, and all of them as one batch.
func checkNormScanAnswers(t *testing.T, cell string, s *Server, ref *shardSnap, queries []vec.Vector) {
	t.Helper()
	ctx := context.Background()
	qs, err := flat.FromVectors(queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, unsigned := range []bool{false, true} {
		for _, k := range []int{1, 10} {
			ts := getTileScratch()
			ex := make([]ShardExplain, 1)
			for j, q := range queries {
				got, err := s.SearchWithOpts(ctx, "ns", []vec.Vector{q}, SearchOpts{K: k, Unsigned: unsigned, Explain: true})
				if err != nil || got[0].Err != nil {
					t.Fatal(err, got[0].Err)
				}
				if err := scanTile(ctx, nil, []*shardSnap{ref}, qs, ts, j, j+1, k, TopKOpts{Unsigned: unsigned}, ex); err != nil {
					t.Fatal(err)
				}
				want := ts.merge(0, 1, k, nil)
				gx, wx := got[0].Explain.Shards[0], ex[0]
				counts := func(e ShardExplain) [3]int {
					return [3]int{e.RowsScanned, e.CSPrunedBlocks, e.TombstoneSkippedBlocks}
				}
				if !sameHitsBitExact([][]Hit{got[0].Hits}, [][]Hit{want}) || counts(gx) != counts(wx) {
					t.Fatalf("%s query %d unsigned=%v k=%d: %v %v, rebuilt %v %v", cell, j, unsigned, k, got[0].Hits, counts(gx), want, counts(wx))
				}
			}
			got, err := s.Search("ns", queries, k, unsigned)
			if err != nil {
				t.Fatal(err)
			}
			if err := scanTile(ctx, nil, []*shardSnap{ref}, qs, ts, 0, len(queries), k, TopKOpts{Unsigned: unsigned}, nil); err != nil {
				t.Fatal(err)
			}
			for j := range queries {
				if want := ts.merge(j, len(queries), k, nil); !sameHitsBitExact([][]Hit{got[j].Hits}, [][]Hit{want}) {
					t.Fatalf("%s batch query %d unsigned=%v k=%d: %v, rebuilt %v", cell, j, unsigned, k, got[j].Hits, want)
				}
			}
			putTileScratch(ts)
		}
	}
}
