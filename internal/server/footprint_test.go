package server

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// footprintKinds are the served kind × precision cells and the most heap
// each may keep per live vector once loaded as TestResidentBytesPerKind
// loads it, at d = 16: 8·d = 128 B of f64 row, 8 B of norm and 8 B of
// shard id, the id→row and attrs bookkeeping, and each kind's own
// structure — exact none, normscan its ids and inverse permutation over
// the sorted runs, int8 d code bytes, alsh a row id in each of L = 16
// bucket tables. Each bound is generous — what the kind measures on
// linux/amd64, race detector or not, and a fifth more — and well below
// what a second f64 copy of the rows (≈ 136 B a vector) would add.
var footprintKinds = []struct {
	name    string
	spec    IndexSpec
	maxHeap float64 // bytes per live vector
}{
	{"exact", IndexSpec{Kind: KindExact}, 260},                        // measures ≈ 214
	{"normscan", IndexSpec{Kind: KindNormScan}, 275},                  // ≈ 227
	{"int8", IndexSpec{Kind: KindExact, Precision: PrecisionI8}, 280}, // ≈ 230
	{"alsh", IndexSpec{Kind: KindALSH}, 345},                          // ≈ 286
}

// TestResidentBytesPerKind loads 20 000 rows of d = 16 into a four-shard
// collection of each served kind — twenty ingests of 1 000, then eight
// upserts of 64 that replace live records, and a delete of 64 — and
// holds what the collection keeps resident. Its f64 rows count once:
// vectorBytes, and the vector_bytes /stats serves, are at most 8·d bytes
// per row held, live or tombstoned, plus each shard's open chunk of
// slack, for every kind — normscan included, whose norm-sorted runs are
// its only copy. And the Go heap, measured after two collections before
// the load and after it, grows per live vector by less than the kind's
// bound (footprintKinds). /stats reports each normscan shard's runs as
// its view stacks them, and none on other kinds.
func TestResidentBytesPerKind(t *testing.T) {
	const n, d, shards, batch, upserts = 20_000, 16, 4, 1000, 8
	rng := xrand.New(49)
	recs := make([]store.Record, n+upserts*64)
	for i := range recs {
		// Inside the unit ball, for alsh; skewed norms, for normscan.
		recs[i] = store.Record{ID: i, Vec: vec.Scaled(rng.UnitVec(d), 0.05+0.9*rng.Float64())}
	}
	for _, kind := range footprintKinds {
		t.Run(kind.name, func(t *testing.T) {
			before := settledHeap()
			s := New(Config{DefaultShards: shards, CacheCapacity: -1, CompactFraction: -1})
			defer s.Close()
			for lo := 0; lo < n; lo += batch {
				if _, _, err := s.Ingest("c", &kind.spec, 0, recs[lo:lo+batch]); err != nil {
					t.Fatal(err)
				}
			}
			for u := range upserts {
				replace := make([]store.Record, 64)
				for i := range replace {
					replace[i] = store.Record{ID: (u*997 + i*61) % n, Vec: recs[n+u*64+i].Vec}
				}
				if _, _, err := s.Upsert("c", nil, 0, replace); err != nil {
					t.Fatal(err)
				}
			}
			doomed := make([]int, 64)
			for i := range doomed {
				doomed[i] = 13 + i*301
			}
			if _, _, _, err := s.Delete("c", doomed); err != nil {
				t.Fatal(err)
			}
			grown := settledHeap() - before
			c, _ := s.Collection("c")
			_, held := c.deadTotal()
			live := c.Len()
			runtime.KeepAlive(recs)

			limit := int64(8 * d * (held + shards*flatChunkRows))
			ts := httptest.NewServer(NewHandler(s))
			defer ts.Close()
			res, err := ts.Client().Get(ts.URL + "/stats")
			if err != nil {
				t.Fatal(err)
			}
			defer res.Body.Close()
			var st Stats
			if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			for source, vb := range map[string]map[string]int64{"vectorBytes": c.vectorBytes(), "/stats": st.Collections["c"].VectorBytes} {
				if f64 := vb[PrecisionF64]; f64 < int64(8*d*held) || f64 > limit {
					t.Errorf("%s reports %d f64 bytes for %d rows held (%.1f B a row): want the rows once, %d to %d", source, f64, held, float64(f64)/float64(held), 8*d*held, limit)
				}
			}
			// runs: a normscan shard's stacked runs, 0 on other kinds.
			for i, sh := range st.Collections["c"].Shards {
				want := 0
				if kind.spec.Kind == KindNormScan {
					want = c.shards[i].snap.Load().index.(*flatIndex).view.Runs()
				}
				if sh.Runs != want || kind.spec.Kind == KindNormScan && (sh.Runs < 1 || 1<<(2*(sh.Runs-1)) > sh.Records) {
					t.Errorf("/stats shard %d of %d records reports %d runs, want %d, at most ⌊log₄ records⌋ + 1 and at least 1 on normscan", i, sh.Records, sh.Runs, want)
				}
			}
			perVector := float64(grown) / float64(live)
			t.Logf("%d live of %d rows held: heap +%.1f B a vector, vector_bytes %v", live, held, perVector, st.Collections["c"].VectorBytes)
			if perVector > kind.maxHeap {
				t.Errorf("the heap grew %.1f B per live vector, more than the %s bound of %.0f", perVector, kind.name, kind.maxHeap)
			}
		})
	}
}

// settledHeap returns the bytes of live heap objects after two
// collections, the second sweeping what the first's finalizers freed.
func settledHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
