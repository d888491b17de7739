package server

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// flatChunkRows is internal/flat's (unexported) chunk size: the most
// rows a write may copy per store on top of its batch.
const flatChunkRows = 1024

// TestWriteCopiesOnlyTheBatch pins what each index kind pays per write,
// as the index_build span reports it: exact copies the batch plus at most
// one chunk of each touched shard — the open chunk — whatever the
// collection holds; normscan copies, in each touched shard, the run its
// batch merges into (normStack models the stack: for these writes, each
// under a 64th of the shard, the batch and the newest runs while the run
// below holds fewer than 4× their rows), and rebuilds on the write whose
// merge takes in the base run, a fold, copying the shard whole. The other exceptions: an int8 batch that raises the
// quantization scale; and alsh, which hashes only the batch but copies
// the ids of every bucket table of a touched shard — an extend whose
// rows_copied is the shard, and says so.
func TestWriteCopiesOnlyTheBatch(t *testing.T) {
	const shards = 2
	s := New(Config{DefaultShards: shards, Tracing: true})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	const n, d, batch = 3000, 4, 10 // 1500 rows a shard: more than one chunk
	rng := xrand.New(3)
	recs := func(lo, hi int, scale float64) []RecordJSON {
		out := make([]RecordJSON, 0, hi-lo)
		for id := lo; id < hi; id++ {
			v := rng.NormalVec(d)
			vec.Scale(v, scale/(1+vec.Norm(v))) // inside the unit ball, for alsh
			out = append(out, RecordJSON{ID: &id, Vec: v})
		}
		return out
	}
	for _, tc := range []struct {
		name string
		spec IndexSpec
	}{
		{"f64", IndexSpec{Kind: KindExact}},
		{"int8", IndexSpec{Kind: KindExact, Precision: PrecisionI8}},
		{"alsh", IndexSpec{Kind: KindALSH}},
		{"normscan", IndexSpec{Kind: KindNormScan}},
	} {
		path := "/collections/" + tc.name
		spec := tc.spec
		indexBuildAttrs(t, ts, http.MethodPut, path, IngestRequest{Index: &spec, Records: recs(0, n, 1)})
		// stacks[si]: shard si's normscan runs (the ingest above sorted
		// each shard into one). The fold cadence is the contract: a shard
		// rebuilds on exactly the write the model folds, and extends on
		// every other, copying the run the model merges.
		stacks := [shards]normStack{{n / shards}, {n / shards}}
		// held[si]: the rows shard si holds, dead ones included — what an
		// alsh extend re-writes the bucket entries of.
		held := [shards]int{n / shards, n / shards}
		const limit = batch + shards*flatChunkRows
		write := func(method, path string, rs []RecordJSON) {
			t.Helper()
			var extend, rebuild, rewritten, merged int64
			var touched [shards]int
			for _, r := range rs {
				touched[*r.ID%shards]++
			}
			for si, rows := range touched {
				held[si] += rows
				switch {
				case rows == 0:
				case spec.Kind == KindNormScan:
					copied, folded := stacks[si].push(rows)
					merged += int64(copied)
					if folded {
						rebuild++
					} else {
						extend++
					}
				default:
					extend, rewritten = extend+1, rewritten+int64(held[si])
				}
			}
			a := indexBuildAttrs(t, ts, method, path, IngestRequest{Records: rs})
			if a["extend"] != extend || a["rebuild"] != rebuild || (a["rows_copied"] > limit && spec.Kind != KindALSH && spec.Kind != KindNormScan) {
				t.Fatalf("%s %s of ids %d..: index_build attrs %v, want extend=%d rebuild=%d and rows_copied <= %d",
					tc.name, method, *rs[0].ID, a, extend, rebuild, limit)
			}
			if spec.Kind == KindNormScan && a["rows_copied"] != merged {
				t.Fatalf("normscan %s of ids %d..: index_build attrs %v, want rows_copied = %d, the runs merged (stacks %v)", method, *rs[0].ID, a, merged, stacks)
			}
			if spec.Kind == KindALSH && a["rows_copied"] != rewritten {
				t.Fatalf("alsh %s of ids %d..: index_build attrs %v, want rows_copied = %d, the touched shards' rows", method, *rs[0].ID, a, rewritten)
			}
		}
		write(http.MethodPut, path, recs(n, n+batch, 0.5))
		write(http.MethodPost, path+"/vectors", recs(0, batch, 0.5))
		if spec.Kind != KindNormScan {
			continue
		}
		for next := n + batch; next < n+2*shards*flatChunkRows+batch; next += batch {
			write(http.MethodPut, path, recs(next, next+batch, 0.5))
		}
	}
	// A batch that raises max|x| moves every int8 code.
	if a := indexBuildAttrs(t, ts, http.MethodPut, "/collections/int8", IngestRequest{Records: recs(n+batch, n+batch+2, 50)}); a["rows_copied"] < n {
		t.Errorf("int8 scale-raising ingest: index_build attrs %v, want rows_copied >= %d", a, n)
	}
}

// TestUpsertAllocationIsBatchSized: what a fixed-size upsert allocates
// must not grow with the collection it lands in — on the exact and
// normscan kinds, which are the two it covers. Ingested in one batch, a
// normscan shard is one run, and the 41 upserts of 16 rows a shard stack
// runs behind it, each write copying the runs it merges: at n = 5 000
// some fold into the base run too, at 40 000 none. An alsh upsert is not batch-sized — it
// allocates every bucket table's ids of a touched shard afresh, L a row
// (TestWriteCopiesOnlyTheBatch pins that it says so).
func TestUpsertAllocationIsBatchSized(t *testing.T) {
	for _, kind := range []string{KindExact, KindNormScan} {
		t.Run(kind, func(t *testing.T) { testUpsertAllocationIsBatchSized(t, kind) })
	}
}

func testUpsertAllocationIsBatchSized(t *testing.T, kind string) {
	const d, width, writes = 64, 64, 40
	perUpsert := func(n int) float64 {
		s := New(Config{DefaultShards: 4, CacheCapacity: -1, CompactFraction: -1})
		defer s.Close()
		recs := randRecords(n+width, d, uint64(n))
		step := 1000
		if kind == KindNormScan {
			step = n
		}
		for lo := 0; lo < n; lo += step {
			mustIngest(t, s, "c", &IndexSpec{Kind: kind}, 0, recs[lo:min(lo+step, n)])
		}
		c, _ := s.Collection("c")
		upsert := func(w int) {
			batch := make([]store.Record, width)
			for i := range batch {
				batch[i] = store.Record{ID: (w*width + i) % n, Vec: recs[n+i].Vec}
			}
			if _, err := c.Upsert(batch); err != nil {
				t.Fatal(err)
			}
		}
		upsert(0) // the first upsert builds each shard's id→row map, once
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for w := 1; w <= writes; w++ {
			upsert(w)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / writes
	}
	small, large := perUpsert(5000), perUpsert(40000)
	t.Logf("bytes allocated per %d-record upsert: %.0f at n=5000, %.0f at n=40000", width, small, large)
	if large > 2*small {
		t.Fatalf("a %d-record upsert allocates %.0f B at n=40000 but %.0f B at n=5000: writes are not O(batch)", width, large, small)
	}
}

// TestIndexBuildCountersWithoutTrace: the merge cadence of a normscan
// shard — and any other write amplification — shows on /metrics with
// tracing off: of 70 upserts of 16 rows into one shard of 2 000, the ones
// whose merge takes in the base run rebuild — fold every run into one —
// and the others extend, each copying the run it merges (normStack
// models which).
func TestIndexBuildCountersWithoutTrace(t *testing.T) {
	s := New(Config{DefaultShards: 1, CacheCapacity: -1, CompactFraction: -1})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	const n, d, width, writes = 2000, 8, 16, 70
	recs := randRecords(n+width, d, 5)
	mustIngest(t, s, "c", &IndexSpec{Kind: KindNormScan}, 0, recs[:n])
	counters := func() (extend, rebuild, copied int64) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		page, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		validatePromText(t, string(page))
		read := func(series string) (v int64) {
			_, rest, ok := strings.Cut(string(page), "\n"+series+" ")
			if _, err := fmt.Sscan(rest, &v); !ok || err != nil {
				t.Fatalf("/metrics lacks %s (%v)", series, err)
			}
			return v
		}
		return read(`ipsd_index_builds_total{collection="c",how="extend"}`),
			read(`ipsd_index_builds_total{collection="c",how="rebuild"}`),
			read(`ipsd_index_rows_copied_total{collection="c"}`)
	}
	extend0, rebuild0, copied0 := counters()
	c, _ := s.Collection("c")
	stack := normStack{n}
	var wantExtend, wantRebuild, wantCopied int64
	for w := 0; w < writes; w++ {
		copied, rebuilt := stack.push(width)
		wantCopied += int64(copied)
		if rebuilt {
			wantRebuild++
		} else {
			wantExtend++
		}
		batch := make([]store.Record, width)
		for i := range batch {
			batch[i] = store.Record{ID: (w*width + i) % n, Vec: recs[n+i].Vec}
		}
		if _, err := c.Upsert(batch); err != nil {
			t.Fatal(err)
		}
	}
	extend, rebuild, copied := counters()
	if extend-extend0 != wantExtend || rebuild-rebuild0 != wantRebuild || wantRebuild == 0 {
		t.Fatalf("%d upserts of %d rows: extend +%d, rebuild +%d, want +%d and +%d, at least one", writes, width, extend-extend0, rebuild-rebuild0, wantExtend, wantRebuild)
	}
	if got := copied - copied0; got != wantCopied {
		t.Fatalf("rows copied +%d, want +%d, the runs merged", got, wantCopied)
	}
}

// shardRows returns a copy of sh's id→row map, read on its owner
// goroutine — nil if the shard keeps none — after checking that it is
// the published snapshot's: each ID's newest row.
func shardRows(t *testing.T, sh *shard) map[int]int {
	t.Helper()
	var rows map[int]int
	done := make(chan struct{})
	sh.ops <- func() {
		defer close(done)
		if sh.rows == nil {
			return
		}
		want := make(map[int]int)
		for r, id := range sh.snap.Load().ids {
			want[id] = r
		}
		if !reflect.DeepEqual(sh.rows, want) {
			t.Errorf("shard %d: id→row map %v, the published snapshot's is %v", sh.id, sh.rows, want)
		}
		rows = maps.Clone(sh.rows)
	}
	<-done
	return rows
}

// TestRowMapOnlyForAKill: a shard builds its id→row map on the first
// write that tombstones one of its rows, and never for appends: not for
// an ingest, nor for an upsert of IDs that are all new. An upsert that
// replaces a live record builds the map of that record's shard alone.
func TestRowMapOnlyForAKill(t *testing.T) {
	s := New(Config{DefaultShards: 2, CacheCapacity: -1, CompactFraction: -1})
	defer s.Close()
	recs := randRecords(40, 4, 9)
	mustIngest(t, s, "c", nil, 0, recs[:20])
	c, _ := s.Collection("c")
	noMaps := func(after string) {
		t.Helper()
		for si, sh := range c.shards {
			if rows := shardRows(t, sh); rows != nil {
				t.Fatalf("after %s, shard %d holds an id→row map of %d IDs", after, si, len(rows))
			}
		}
	}
	noMaps("an ingest")
	if _, _, err := s.Upsert("c", nil, 0, recs[20:30]); err != nil {
		t.Fatal(err)
	}
	noMaps("an upsert of new IDs")
	// ID 7 lives on shard 1; IDs 30 and 32, new, go to shard 0.
	if _, _, err := s.Upsert("c", nil, 0, []store.Record{{ID: 7, Vec: recs[30].Vec}, recs[30], recs[32]}); err != nil {
		t.Fatal(err)
	}
	if rows := shardRows(t, c.shards[0]); rows != nil {
		t.Fatalf("shard 0, where no record was replaced, holds an id→row map of %d IDs", len(rows))
	}
	// Shard 1 held the odd IDs below 30, 15 rows: ID 7's new row is 15.
	if rows := shardRows(t, c.shards[1]); rows[7] != 15 {
		t.Fatalf("shard 1's id→row map %v does not send ID 7 to its new row 15", rows)
	}
}
