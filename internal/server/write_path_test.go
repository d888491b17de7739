package server

import (
	"context"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/errfs"
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
			if _, _, err := s.Ingest("c", &IndexSpec{Kind: kind}, 0, recs[lo:min(lo+step, n)]); err != nil {
				t.Fatal(err)
			}
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
	if _, _, err := s.Ingest("c", &IndexSpec{Kind: KindNormScan}, 0, recs[:n]); err != nil {
		t.Fatal(err)
	}
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

// TestReadsDuringWritesEveryPrecision runs searches, batches and joins
// beside ingests, upserts and deletes on the exact index at every
// precision (under -race in CI). Record i is b·e_{i mod d} with
// b = (i mod 50)+1, an upsert doubles it, and small integers are exact
// in both tiers — so against the all-ones query a hit for ID i
// scores b or 2b whichever snapshot answers, and anything else is a row
// read while it was being written.
func TestReadsDuringWritesEveryPrecision(t *testing.T) {
	const d, batches, batchSize = 8, 40, 60
	mkRec := func(i int, scale float64) store.Record {
		v := vec.New(d)
		v[i%d] = scale * float64(i%50+1)
		return store.Record{ID: i, Vec: v}
	}
	ones := vec.New(d)
	for i := range ones {
		ones[i] = 1
	}
	for _, precision := range []string{PrecisionF64, PrecisionI8} {
		t.Run(precision, func(t *testing.T) {
			s := New(Config{DefaultShards: 2, CacheCapacity: -1, CompactFraction: 0.05, CompactMinDead: -1})
			defer s.Close()
			spec := &IndexSpec{Kind: KindExact, Precision: precision}
			batch := func(b int, scale float64) []store.Record {
				recs := make([]store.Record, batchSize)
				for i := range recs {
					recs[i] = mkRec(b*batchSize+i, scale)
				}
				return recs
			}
			if _, _, err := s.Ingest("c", spec, 0, batch(0, 1)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Ingest("q", nil, 1, []store.Record{{ID: 0, Vec: ones}}); err != nil {
				t.Fatal(err)
			}
			check := func(what string, id int, score float64) {
				if b := float64(id%50 + 1); score != b && score != 2*b {
					t.Errorf("%s: ID %d scored %v, want %v or %v (torn row?)", what, id, score, b, 2*b)
				}
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer stop.Store(true)
				for b := 1; b < batches; b++ {
					if _, _, err := s.Ingest("c", nil, 0, batch(b, 1)); err != nil {
						t.Error(err)
						return
					}
					if _, _, err := s.Upsert("c", nil, 0, batch(b-1, 2)[:batchSize/2]); err != nil {
						t.Error(err)
						return
					}
					if _, _, _, err := s.Delete("c", []int{b * batchSize, b*batchSize + 1}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			reader := func(read func() error) {
				defer wg.Done()
				for done := false; !done; {
					done = stop.Load() // one more pass over the final state
					if err := read(); err != nil {
						t.Error(err)
						return
					}
				}
			}
			wg.Add(3)
			go reader(func() error {
				res, err := s.SearchWithOpts(context.Background(), "c", []vec.Vector{ones}, SearchOpts{K: 20})
				if err != nil || res[0].Err != nil {
					return fmt.Errorf("search: %v %v", err, res[0].Err)
				}
				for _, h := range res[0].Hits {
					check("search", h.ID, h.Score)
				}
				return nil
			})
			go reader(func() error {
				res, err := s.Search("c", []vec.Vector{ones, ones, ones}, 20, false)
				if err != nil {
					return err
				}
				for _, r := range res {
					if r.Err != nil {
						return r.Err
					}
					for _, h := range r.Hits {
						check("batch", h.ID, h.Score)
					}
				}
				return nil
			})
			go reader(func() error {
				res, err := s.Join(JoinRequest{Data: "c", Queries: "q", S: 40, TopK: 30})
				if err != nil {
					return err
				}
				for _, p := range res.Pairs {
					check("join", p.DataID, p.Value)
				}
				return nil
			})
			wg.Wait()
		})
	}
}

// TestReadersSeeAWriteOnEveryShardOrNone pauses an upsert between its
// shard commits — the last shard's owner goroutine lets the upsert's
// build through, then receives its commit and holds it, which the
// writer sends only after every earlier shard has committed — and reads
// the collection there: a search, a batch, a self-join, and on a
// cache-on server each search twice (the second a cache hit), at 2 and
// 4 shards. Record i lives on shard i and is g·(e₀ + e_{i+1}) at
// generation g, so against e₀ every hit scores g and every self-join
// pair g², and a read that mixes generations mixes scores. Every read
// must see generation 1 while the write is paused and 2 after it; the
// read before the write asks for k+1, so the paused read is no cache
// hit of it. Deterministic: the pause is a handshake on the shard's ops
// loop.
func TestReadersSeeAWriteOnEveryShardOrNone(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for _, capacity := range []int{-1, 64} {
			t.Run(fmt.Sprintf("shards=%d/cache=%v", shards, capacity > 0), func(t *testing.T) {
				s := New(Config{DefaultShards: shards, CacheCapacity: capacity, CompactFraction: -1})
				defer s.Close()
				d := shards + 1
				gen := func(g float64) []store.Record {
					recs := make([]store.Record, shards)
					for i := range recs {
						v := vec.New(d)
						v[0], v[i+1] = g, g
						recs[i] = store.Record{ID: i, Vec: v}
					}
					return recs
				}
				if _, _, err := s.Ingest("c", &IndexSpec{Kind: KindExact}, 0, gen(1)); err != nil {
					t.Fatal(err)
				}
				e0 := vec.New(d)
				e0[0] = 1
				read := func(when string, k int, g float64) {
					t.Helper()
					for pass := 0; pass < 2; pass++ {
						res, err := s.Search("c", []vec.Vector{e0}, k, false)
						if err != nil || res[0].Err != nil {
							t.Fatalf("%s: search: %v %v", when, err, res[0].Err)
						}
						batch, err := s.Search("c", []vec.Vector{e0, e0, e0}, k, false)
						if err != nil {
							t.Fatalf("%s: batch: %v", when, err)
						}
						for i, r := range append(res, batch...) {
							if r.Err != nil || len(r.Hits) != shards {
								t.Fatalf("%s: %d hits, err %v", when, len(r.Hits), r.Err)
							}
							what := "batch"
							if i == 0 {
								what = "search"
							}
							for _, h := range r.Hits {
								if h.Score != g {
									t.Errorf("%s: %s pass %d (cached %v): ID %d scored %v, want %v: %v", when, what, pass, r.Cached, h.ID, h.Score, g, r.Hits)
									break
								}
							}
						}
					}
					join, err := s.Join(selfJoinRequest("c", JoinRequest{S: 0.5, TopK: shards}))
					if err != nil {
						t.Fatalf("%s: self-join: %v", when, err)
					}
					if len(join.Pairs) != shards*(shards-1) {
						t.Fatalf("%s: self-join %d pairs, want %d", when, len(join.Pairs), shards*(shards-1))
					}
					for _, p := range join.Pairs {
						if p.Value != g*g {
							t.Errorf("%s: self-join pair (%d, %d) = %v, want %v", when, p.DataID, p.QueryID, p.Value, g*g)
							break
						}
					}
				}
				read("before the upsert", shards+1, 1)

				c, _ := s.Collection("c")
				last := c.shards[shards-1]
				paused, release := make(chan struct{}), make(chan struct{})
				var once sync.Once
				unpause := func() { once.Do(func() { close(release) }) }
				defer unpause() // before s.Close, which waits for the owner goroutine
				last.ops <- func() {
					(<-last.ops)()       // the upsert's build
					commit := <-last.ops // sent once every earlier shard committed
					close(paused)
					<-release
					commit()
				}
				done := make(chan error, 1)
				go func() {
					_, _, err := s.Upsert("c", nil, 0, gen(2))
					done <- err
				}()
				<-paused
				read("between the upsert's shard commits", shards, 1)
				unpause()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				read("after the upsert", shards, 2)
			})
		}
	}
}

// TestWALFaultLeavesNoTrace: a write whose shard snapshots were
// prepared — rows written into the open chunk's tail, id→row maps
// consulted, indexes extended or re-masked — but whose WAL append then
// failed must leave nothing behind: not its rows, not its tombstones,
// not its attributes, not a reserved ID, not a version bump, and the
// writes that follow reuse the memory it touched without disturbing a
// reader. Ingest, upsert and delete each take the fault.
func TestWALFaultLeavesNoTrace(t *testing.T) {
	const n, d, k = 600, 6, 5
	recs := randRecords(n, d, 31)
	doomedAttrs := map[string]string{"doomed": "yes"}
	// The doomed writes: fresh IDs (450..469, which the writes after the
	// repair then ingest), live IDs replaced with new vectors and attrs
	// next to fresh ones, and live IDs removed.
	var fresh, replace []store.Record
	var kill []int
	for i := 0; i < 20; i++ {
		fresh = append(fresh, store.Record{ID: 450 + i, Vec: recs[450+i].Vec, Attrs: doomedAttrs})
		replace = append(replace,
			store.Record{ID: i, Vec: recs[500+i].Vec, Attrs: doomedAttrs},
			store.Record{ID: 450 + i, Vec: recs[450+i].Vec, Attrs: doomedAttrs})
		kill = append(kill, 3*i)
	}
	for _, tc := range []struct {
		name   string
		doomed func(s *Server) error
	}{
		{"ingest", func(s *Server) error { _, _, err := s.Ingest("c", nil, 0, fresh); return err }},
		{"upsert", func(s *Server) error { _, _, err := s.Upsert("c", nil, 0, replace); return err }},
		{"delete", func(s *Server) error { _, _, _, err := s.Delete("c", kill); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := errfs.NewFaulty(nil, 1)
			s, err := Open(faultyConfig(t.TempDir(), f))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			queries := randQueries(15, d, 32)
			m := liveSet{}
			if _, _, err := s.Ingest("c", nil, 2, recs[:400]); err != nil {
				t.Fatal(err)
			}
			m.upsert(recs[:400])
			// One upsert replacing a record on each shard, so every shard
			// keeps an id→row map from here on.
			if _, _, err := s.Upsert("c", nil, 0, recs[:2]); err != nil {
				t.Fatal(err)
			}
			c, _ := s.Collection("c")
			verify := func(label string) {
				t.Helper()
				for qi, q := range queries {
					got := searchAll(t, s, "c", []vec.Vector{q}, k)[0]
					if want := m.topK(q, k, false); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s query %d: hits diverge from model\n got %v\nwant %v", label, qi, got, want)
					}
				}
				// Every live ID answers a search that asks for all of them.
				if got, want := searchAll(t, s, "c", queries[:1], len(m))[0], m.topK(queries[0], len(m), false); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: a search for every record diverges from model\n got %v\nwant %v", label, got, want)
				}
				got := c.records()
				if len(got) != len(m) || c.Len() != len(m) {
					t.Fatalf("%s: %d records (Len %d), model has %d", label, len(got), c.Len(), len(m))
				}
				for _, r := range got {
					if !reflect.DeepEqual(r.Attrs, m[r.ID].Attrs) || !vec.EqualTol(r.Vec, m[r.ID].Vec, 0) {
						t.Fatalf("%s: record %d is %+v, model has %+v", label, r.ID, r, m[r.ID])
					}
				}
			}
			verify("before the fault")
			version := c.Version()
			rowMaps := make([]map[int]int, len(c.shards))
			for si, sh := range c.shards {
				if rowMaps[si] = shardRows(t, sh); rowMaps[si] == nil {
					t.Fatalf("shard %d keeps no id→row map after an upsert that replaced one of its records", si)
				}
			}

			f.Inject(errfs.Rule{Op: errfs.OpWrite, Path: "wal-", Count: 1})
			if err := tc.doomed(s); err == nil {
				t.Fatalf("%s succeeded while the WAL append faults", tc.name)
			}
			verify("after the failed " + tc.name)
			if c.Version() != version {
				t.Fatalf("failed %s moved the version %d -> %d", tc.name, version, c.Version())
			}
			for si, sh := range c.shards {
				if got := shardRows(t, sh); !reflect.DeepEqual(got, rowMaps[si]) {
					t.Fatalf("failed %s changed shard %d's id→row map", tc.name, si)
				}
			}

			waitFor(t, "repair probe to reactivate", func() bool { return c.healthState() == HealthActive })
			if _, _, err := s.Ingest("c", nil, 0, recs[400:480]); err != nil {
				t.Fatalf("ingest after repair: %v", err)
			}
			m.upsert(recs[400:480])
			// AutoID hands out the lowest IDs not live: 480 on, never an ID
			// a failed delete named.
			auto := []store.Record{{ID: AutoID, Vec: recs[480].Vec}, {ID: AutoID, Vec: recs[481].Vec}}
			if _, _, err := s.Ingest("c", nil, 0, auto); err != nil {
				t.Fatalf("auto-ID ingest after repair: %v", err)
			}
			m.upsert([]store.Record{{ID: 480, Vec: recs[480].Vec}, {ID: 481, Vec: recs[481].Vec}})
			if _, _, err := s.Upsert("c", nil, 0, recs[10:30]); err != nil {
				t.Fatalf("upsert after repair: %v", err)
			}
			m.upsert(recs[10:30])
			verify("after the writes that followed")
			if c.Version() != version+3 {
				t.Fatalf("version %d after three more writes, want %d", c.Version(), version+3)
			}
		})
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
	if _, _, err := s.Ingest("c", nil, 0, recs[:20]); err != nil {
		t.Fatal(err)
	}
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

// TestAttrsFollowMutations: attributes live beside the shards, keyed by
// ID — an upsert replaces or clears them, a delete drops them, and both
// effects survive a checkpoint and a reopen.
func TestAttrsFollowMutations(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	v := vec.Vector{1, 2}
	if _, _, err := s1.Ingest("col", nil, 2, []store.Record{
		{ID: 1, Vec: v, Attrs: map[string]string{"title": "first"}},
		{ID: 2, Vec: v, Attrs: map[string]string{"title": "second"}},
		{ID: 3, Vec: v, Attrs: map[string]string{"title": "third"}},
		{ID: 4, Vec: v},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Upsert("col", nil, 0, []store.Record{
		{ID: 1, Vec: v, Attrs: map[string]string{"title": "replaced", "lang": "go"}},
		{ID: 2, Vec: v}, // no attributes: clears them
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s1.Delete("col", []int{3}); err != nil {
		t.Fatal(err)
	}
	want := map[int]map[string]string{1: {"title": "replaced", "lang": "go"}, 2: nil, 4: nil}
	check := func(s *Server, label string) {
		t.Helper()
		c, _ := s.Collection("col")
		got := c.records()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
		}
		for _, r := range got {
			if !reflect.DeepEqual(r.Attrs, want[r.ID]) {
				t.Fatalf("%s: record %d has attrs %v, want %v", label, r.ID, r.Attrs, want[r.ID])
			}
		}
		if len(c.attrs) != 1 {
			t.Fatalf("%s: attribute map holds %d entries, want 1: %v", label, len(c.attrs), c.attrs)
		}
	}
	check(s1, "live")
	c1, _ := s1.Collection("col")
	if err := c1.log.Checkpoint(c1.persistSnapshot); err != nil {
		t.Fatal(err)
	}
	// A delete-then-reinsert after the checkpoint rides the WAL tail.
	if _, _, err := s1.Ingest("col", nil, 0, []store.Record{{ID: 3, Vec: v, Attrs: map[string]string{"title": "again"}}}); err != nil {
		t.Fatal(err)
	}
	want[3] = map[string]string{"title": "again"}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2, _ := s2.Collection("col")
	if len(c2.attrs) != 2 {
		t.Fatalf("reopened attribute map holds %d entries, want 2: %v", len(c2.attrs), c2.attrs)
	}
	delete(want, 3)
	got := c2.records()
	if len(got) != 4 || got[2].ID != 3 || got[2].Attrs["title"] != "again" {
		t.Fatalf("reopened records %+v", got)
	}
	for _, r := range got {
		if r.ID != 3 && !reflect.DeepEqual(r.Attrs, want[r.ID]) {
			t.Fatalf("reopened: record %d has attrs %v, want %v", r.ID, r.Attrs, want[r.ID])
		}
	}
}

// TestCheckpointFromShardsBitIdentical: a segment written from the
// shards' live rows — after upserts and deletes have left tombstones
// and reordered rows — recovers, from a kill -9 image, a collection
// that answers bit-identically at every precision.
func TestCheckpointFromShardsBitIdentical(t *testing.T) {
	const n, d, k = 2500, 8, 5
	recs := randRecords(n+200, d, 41)
	queries := randQueries(25, d, 42)
	for _, precision := range []string{PrecisionF64, PrecisionI8} {
		t.Run(precision, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			cfg.CompactFraction = -1 // keep the tombstones: the segment must shed them itself
			s1, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s1.Close()
			spec := &IndexSpec{Kind: KindExact, Precision: precision}
			for lo := 0; lo < n; lo += 500 {
				if _, _, err := s1.Ingest("col", spec, 3, recs[lo:lo+500]); err != nil {
					t.Fatal(err)
				}
			}
			replaced := make([]store.Record, 100)
			for i := range replaced {
				replaced[i] = store.Record{ID: i * 7, Vec: recs[n+i].Vec}
			}
			if _, _, err := s1.Upsert("col", nil, 0, replaced); err != nil {
				t.Fatal(err)
			}
			dropped := make([]int, 100)
			for i := range dropped {
				dropped[i] = 3 + i*11
			}
			if _, _, _, err := s1.Delete("col", dropped); err != nil {
				t.Fatal(err)
			}
			c1, _ := s1.Collection("col")
			if err := c1.log.Checkpoint(c1.persistSnapshot); err != nil {
				t.Fatal(err)
			}
			// One more write after the checkpoint, so recovery replays a
			// WAL tail over the segment.
			if _, _, err := s1.Upsert("col", nil, 0, []store.Record{{ID: 5, Vec: recs[n+150].Vec}}); err != nil {
				t.Fatal(err)
			}
			answers := func(s *Server) [][]Hit {
				out := make([][]Hit, len(queries))
				for i, q := range queries {
					res, err := s.SearchWithOpts(context.Background(), "col", []vec.Vector{q}, SearchOpts{K: k})
					if err != nil || res[0].Err != nil {
						t.Fatal(err, res[0].Err)
					}
					out[i] = res[0].Hits
				}
				return out
			}
			want := answers(s1)

			crashed := t.TempDir()
			copyTree(t, dir, crashed)
			s2, err := Open(durableConfig(crashed))
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if c2, _ := s2.Collection("col"); c2.Len() != c1.Len() {
				t.Fatalf("recovered %d records, want %d", c2.Len(), c1.Len())
			}
			if got := answers(s2); !sameHitsBitExact(got, want) {
				t.Fatal("answers differ after recovering the checkpoint written from the shards")
			}
		})
	}
}
