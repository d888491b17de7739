package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/flat"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// TestNormScanWritesAcrossRebuilds drives a one-shard normscan f64
// collection through upserts and deletes across folds (the runs stacked
// behind the base run merging into it: a bulk batch's merge once it
// reaches the base's size class, ⌊log₄ rows⌋, a smaller write's once the
// base holds under 4× the merged rows). A write merges its batch with
// the newest runs of its stack
// (normStack models which) and patches the permuted dead set from the
// last snapshot's; after every write the shard — which keeps no store,
// its norm-sorted runs being the one copy of its rows — must read each
// row back by its store index, and answer bit-identically to the index
// built anew from its rows — each run sorted afresh, its dead set
// gathered in full: the dead set itself, explained searches signed and
// unsigned at k = 1 and 10 (hits and counts), batch searches, a
// normpruned join (pairs and compared), and the rows the write's index
// build reports copied.
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
	// rows mirrors the shard's rows in store order.
	var rows []vec.Vector
	upsert := func(recs []store.Record) {
		if _, _, err := s.Upsert("ns", &IndexSpec{Kind: KindNormScan}, 1, recs); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			rows = append(rows, r.Vec)
		}
	}
	var stack normStack
	upsert(batch(initial, 0))
	stack.push(initial)
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

	next, joined := initial, 0 // the next new ID; the pairs joined
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
			upsert(recs)
		}
		snap := c.shards[0].snap.Load()
		cell := fmt.Sprintf("write %d (%d rows, %d dead)", w, len(snap.ids), snap.dead.Count())
		if snap.fs != nil {
			t.Fatalf("%s: a normscan shard keeps a store of %d rows beside its norm-sorted view", cell, snap.fs.Len())
		}
		if len(snap.ids) != len(old.ids) {
			want, folded := stack.push(len(snap.ids) - len(old.ids))
			if got, rebuilt := c.builds.rowsCopied.Load()-copied, c.builds.rebuild.Load() > rebuilds; got != int64(want) || rebuilt != folded {
				t.Fatalf("%s: the index build copied %d rows (rebuilt %v), want %d (%v) onto runs %v", cell, got, rebuilt, want, folded, stack)
			}
		}
		if got := s.Stats().Collections["ns"].Shards[0].Runs; got != len(stack) {
			t.Fatalf("%s: /stats reports %d runs, want %d (%v)", cell, got, len(stack), stack)
		}
		old = snap
		for i, r := range rows {
			if got := snap.row(i); !reflect.DeepEqual(bitsOf(got), bitsOf(r)) {
				t.Fatalf("%s: row %d reads %v, upserted as %v", cell, i, got, r)
			}
		}

		ref := *snap
		ref.index = rebuiltNormIndex(t, rows, snap, stack)
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
		t.Fatalf("the shard was rebuilt %d times and the joins found %d pairs: want the first build and two folds, and pairs", got, joined)
	}
}

// normStack models a normscan shard's run stack: its runs' row counts,
// the base run's first.
type normStack []int

// sizeClass is a run's size class, ⌊log₄ rows⌋.
func sizeClass(rows int) int { return max(bits.Len(uint(rows))-1, 0) / 2 }

// push adds a write's b rows to the stack by the rule flat.View.Extend
// keeps, and returns the rows the write copies and whether it rebuilt
// the shard's index: folded it, or built the first. A batch of at least
// a 64th of the shard's rows merges by lazy leveling — with the
// newest runs while they are of a smaller size class than the merge, or
// when it would be the fourth run of its class, and with the base run
// too, into one run, once the merge reaches the base's class — and a
// smaller one with the newest runs while the run below holds fewer than
// 4× the merged rows, the base run included.
func (st *normStack) push(b int) (copied int, rebuilt bool) {
	runs := *st
	if len(runs) == 0 {
		*st = normStack{b}
		return b, true
	}
	n := 0
	for _, r := range runs {
		n += r
	}
	keep, rows := len(runs), b
	if b*64 < n {
		for keep > 0 && runs[keep-1] < 4*rows {
			keep--
			rows += runs[keep]
		}
	} else {
		for keep > 1 {
			take, c := 0, sizeClass(rows)
			switch {
			case sizeClass(runs[keep-1]) < c:
				take = 1
			case keep > 3 && sizeClass(runs[keep-3]) == c:
				take = 3
			}
			if take == 0 {
				break
			}
			for range take {
				keep--
				rows += runs[keep]
			}
		}
		if keep == 1 && sizeClass(rows) >= sizeClass(runs[0]) {
			keep, rows = 0, rows+runs[0]
		}
	}
	if keep == 0 {
		*st = normStack{rows}
		return rows, true
	}
	*st = append(runs[:keep:keep], rows)
	return rows, false
}

// rebuiltNormIndex builds what a normscan shard serves for snap from
// nothing: its store-order rows sorted afresh into the runs stack
// models — the base run by flat.SortRows, each later run pushed by an
// Extend, which the stack's rule keeps from merging (the runs behind the
// base descend by size class, at most three of each) — and snap's dead
// set gathered in full.
func rebuiltNormIndex(t *testing.T, rows []vec.Vector, snap *shardSnap, stack normStack) *flatIndex {
	t.Helper()
	at := stack[0]
	view := flat.SortRows(rows[:at])
	for _, n := range stack[1:] {
		var copied int
		if view, copied, _ = view.Extend(rows[at : at+n]); copied != n {
			t.Fatalf("runs %v: a run of %d rows merged", stack, n)
		}
		at += n
	}
	ix := &flatIndex{view: view}
	if snap.dead.Count() > 0 {
		ix.dead = view.GatherDead(snap.dead)
	}
	return ix
}

// bitsOf returns v's elements' bits, so NaN rows compare equal.
func bitsOf(v vec.Vector) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
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
				ts.prepare(1, 1, k)
				if err := scanInTurn(ctx, []*shardSnap{ref}, qs, ts, j, j+1, k, 0, 1, new(floorState), math.Inf(-1), TopKOpts{Unsigned: unsigned}, ex); err != nil {
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
			ts.prepare(1, len(queries), k)
			if err := scanInTurn(ctx, []*shardSnap{ref}, qs, ts, 0, len(queries), k, 0, 1, new(floorState), math.Inf(-1), TopKOpts{Unsigned: unsigned}, nil); err != nil {
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

// TestNormScanReadersMatchExact holds every path that reads a normscan
// shard's rows — which its norm-sorted view alone holds — to the same
// writes on an exact collection, Float64bits for Float64bits: the exact
// engine's join with normscan data, a normscan collection on a join's
// query side (exact and normpruned), searches before and after
// compaction, and checkpoints — the segment a normscan collection writes
// is byte for byte the exact collection's, before compaction and after —
// and a reopen that answers as before.
func TestNormScanReadersMatchExact(t *testing.T) {
	const n, d, shards, batch = 2400, 8, 2, 300
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.DefaultShards, cfg.CacheCapacity, cfg.CompactFraction = shards, -1, -1
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	rng := xrand.New(50)
	recs := randRecords(n+200, d, 51)
	for i := range recs {
		vec.Scale(recs[i].Vec, math.Exp(1.5*rng.Normal())) // skewed norms
		if i%9 == 8 {
			recs[i].Vec = recs[rng.Intn(i)].Vec.Clone() // norm ties
		}
	}
	queries := append(randQueries(20, d, 52), recs[7].Vec, vec.Scaled(recs[100].Vec, -1))
	var qrecs []store.Record
	for i, q := range queries {
		qrecs = append(qrecs, store.Record{ID: i, Vec: q})
	}
	if _, _, err := s.Ingest("q", &IndexSpec{Kind: KindExact}, 1, qrecs); err != nil {
		t.Fatal(err)
	}
	replaced := make([]store.Record, 200)
	for i := range replaced {
		replaced[i] = store.Record{ID: i * 13, Vec: recs[n+i].Vec}
	}
	dropped := make([]int, 150)
	for i := range dropped {
		dropped[i] = 5 + i*17
	}
	// Both collections take the same writes: batches of about 150 rows a
	// shard, most folding into the base run until it holds 4× a batch,
	// then upserts stacked behind it as a run of their own, and deletes.
	for _, name := range []string{"ex", "ns"} {
		spec := &IndexSpec{Kind: KindExact}
		if name == "ns" {
			spec.Kind = KindNormScan
		}
		for lo := 0; lo < n; lo += batch {
			if _, _, err := s.Ingest(name, spec, 0, recs[lo:lo+batch]); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.Upsert(name, nil, 0, replaced); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := s.Delete(name, dropped); err != nil {
			t.Fatal(err)
		}
	}
	if folds := mustCollection(t, s, "ns").builds.rebuild.Load() - shards; folds < 1 {
		t.Fatalf("%d folds: no write merged into the base run", folds)
	}
	check := func(stage string) {
		t.Helper()
		for _, sn := range mustCollection(t, s, "ns").shardSnaps() {
			if sn.fs != nil {
				t.Fatalf("%s: a normscan shard keeps a store beside its norm-sorted view", stage)
			}
		}
		for _, unsigned := range []bool{false, true} {
			got, err := s.Search("ns", queries, 10, unsigned)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.Search("ex", queries, 10, unsigned)
			if err != nil {
				t.Fatal(err)
			}
			for j := range queries {
				if !sameHitsBitExact([][]Hit{got[j].Hits}, [][]Hit{want[j].Hits}) {
					t.Fatalf("%s: query %d unsigned=%v: normscan %v, exact %v", stage, j, unsigned, got[j].Hits, want[j].Hits)
				}
			}
			variant := map[bool]string{false: "signed", true: "unsigned"}[unsigned]
			for _, topk := range []int{0, 3} {
				for _, c := range []struct{ label, data, queries, engine, refData, refQueries string }{
					{"exact join over normscan data", "ns", "q", "exact", "ex", "q"},
					{"exact self-join of normscan", "ns", "ns", "exact", "ex", "ex"},
					{"normscan queries, exact data", "ex", "ns", "exact", "ex", "ex"},
					{"normpruned self-join", "ns", "ns", "normpruned", "ex", "ex"},
				} {
					req := JoinRequest{Data: c.data, Queries: c.queries, Engine: c.engine, Variant: variant, S: 0.5, TopK: topk}
					got, err := s.Join(req)
					if err != nil {
						t.Fatal(err)
					}
					req.Data, req.Queries, req.Engine = c.refData, c.refQueries, "exact"
					want, err := s.Join(req)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got.Pairs, want.Pairs) || len(want.Pairs) == 0 {
						t.Fatalf("%s: %s, %s, topk=%d: %d pairs, exact %d\n%v\n%v", stage, c.label, variant, topk, len(got.Pairs), len(want.Pairs), got.Pairs, want.Pairs)
					}
					// An exact sweep scores every live pair, and with no
					// tombstone left exactly those, in either row order.
					all := int64(mustCollection(t, s, c.data).Len() * mustCollection(t, s, c.queries).Len())
					if c.engine == "exact" && (got.Compared < all || stage != "tombstoned" && got.Compared != want.Compared) {
						t.Fatalf("%s: %s compared %d pairs of %d live, the exact collection's sweep %d", stage, c.label, got.Compared, all, want.Compared)
					}
				}
			}
		}
		var segs [2][]byte
		for i, name := range []string{"ex", "ns"} {
			c := mustCollection(t, s, name)
			if err := c.log.Checkpoint(c.persistSnapshot); err != nil {
				t.Fatal(err)
			}
			segs[i] = newestSegment(t, filepath.Join(dir, name))
		}
		if !bytes.Equal(segs[0], segs[1]) {
			t.Fatalf("%s: the normscan collection's checkpoint (%d bytes) is not the exact one's (%d bytes)", stage, len(segs[1]), len(segs[0]))
		}
	}
	check("tombstoned")
	for _, name := range []string{"ex", "ns"} {
		if err := mustCollection(t, s, name).compact(); err != nil {
			t.Fatal(err)
		}
	}
	check("compacted")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	check("reopened")
}

// mustCollection returns the named collection of s.
func mustCollection(t *testing.T, s *Server, name string) *Collection {
	t.Helper()
	c, ok := s.Collection(name)
	if !ok {
		t.Fatalf("no collection %q", name)
	}
	return c
}

// newestSegment returns the bytes of the newest checkpoint segment in a
// collection's directory.
func newestSegment(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "segment-") && strings.HasSuffix(name, ".seg") && name > newest {
			newest = name // zero-padded sequence numbers sort as they count
		}
	}
	if newest == "" {
		t.Fatalf("no segment in %s", dir)
	}
	data, err := os.ReadFile(filepath.Join(dir, newest))
	if err != nil {
		t.Fatal(err)
	}
	return data
}
