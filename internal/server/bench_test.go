package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// benchServer builds a populated server for the search benchmarks.
func benchServer(b testing.TB, n, d, shards int, spec IndexSpec) (*Server, []vec.Vector) {
	return benchServerSkewed(b, n, d, shards, 0.5, spec)
}

// benchServerSkewed is benchServer over latent factors whose item norms
// spread by a lognormal of the given σ. No background compaction runs,
// so a cell's shape is what its writes leave, as in the benchmark's
// workloads.
func benchServerSkewed(b testing.TB, n, d, shards int, sigma float64, spec IndexSpec) (*Server, []vec.Vector) {
	b.Helper()
	rng := xrand.New(1)
	lf := dataset.NewLatentFactor(rng, n, 256, d, sigma)
	lf.ScaleItemsToUnitBall()
	s := New(Config{DefaultShards: shards, CacheCapacity: -1, CompactFraction: -1})
	b.Cleanup(func() { s.Close() })
	recs := records(lf.Items, 0)
	mustIngest(b, s, "bench", &spec, shards, recs)
	return s, lf.Users
}

// steadyWrites upserts writes batches of 64 records into the n-row
// collection "bench" of s, each replacing live IDs with fresh latent
// factors of dimension d whose norms spread by a lognormal of σ — what
// small-hot's mutate phase does, whose 48 rounds × 8 are 384 such
// writes: the collection is then in the state a run of that workload
// ends in, each normscan shard sweeping the run stack its writes built.
func steadyWrites(b testing.TB, s *Server, n, d int, sigma float64, writes int) {
	b.Helper()
	if writes == 0 {
		return
	}
	rng := xrand.New(7)
	fresh := dataset.NewLatentFactor(rng, writes*64, 1, d, sigma)
	fresh.ScaleItemsToUnitBall()
	for w := range writes {
		recs := records(fresh.Items[w*64:(w+1)*64], 0)
		seen := map[int]bool{}
		for i := range recs {
			id := rng.Intn(n)
			for seen[id] {
				id = rng.Intn(n)
			}
			recs[i].ID, seen[id] = id, true
		}
		if _, _, err := s.Upsert("bench", nil, 0, recs); err != nil {
			b.Fatal(err)
		}
	}
}

// searchCells runs bench once per served index kind on a 4-shard
// collection: 20 000 × 16 latent-factor rows and their 256 users as
// signed queries; for normscan-skewed small-hot's shape — item norms
// spread by a lognormal of σ = 1, 64 queries — where a batch's tiles
// visiting the shards in turn pass each query's k-th best on as the next
// shard's floor, and for normscan-written the same after small-hot's 384
// upserts of 64 (steadyWrites), each shard sweeping a stack of runs; for
// alsh the planted-alsh benchmark's shape — 64
// unsigned unit-norm queries against 6 000 × 32 unit-ball rows; and for
// exact-int8 mixed-durable's — 40 000 × 32 int8 rows, re-ranked.
func searchCells(b *testing.B, bench func(b *testing.B, s *Server, users []vec.Vector, unsigned bool)) {
	for _, c := range []struct {
		name     string
		spec     IndexSpec
		n, d     int
		sigma    float64
		queries  int // 0: all 256
		unsigned bool
		writes   int // upserts of 64 after the load
	}{
		{KindExact, IndexSpec{Kind: KindExact}, 20000, 16, 0.5, 0, false, 0},
		{KindNormScan, IndexSpec{Kind: KindNormScan}, 20000, 16, 0.5, 0, false, 0},
		{"normscan-skewed", IndexSpec{Kind: KindNormScan}, 20000, 16, 1, 64, false, 0},
		{"normscan-written", IndexSpec{Kind: KindNormScan}, 20000, 16, 1, 64, false, 384},
		{KindALSH, IndexSpec{Kind: KindALSH}, 6000, 32, 0.5, 64, true, 0},
		{"exact-int8", IndexSpec{Kind: KindExact, Precision: PrecisionI8}, 40000, 32, 0.5, 0, false, 0},
	} {
		b.Run("index="+c.name, func(b *testing.B) {
			s, users := benchServerSkewed(b, c.n, c.d, 4, c.sigma, c.spec)
			steadyWrites(b, s, c.n, c.d, c.sigma, c.writes)
			if c.queries > 0 {
				users = users[:c.queries]
			}
			if c.spec.Kind == KindALSH {
				for _, u := range users {
					vec.Normalize(u)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			bench(b, s, users, c.unsigned)
		})
	}
}

// BenchmarkServerSearchSingle measures one top-10 query per iteration:
// the tile of one, its shards scanned on the pool.
func BenchmarkServerSearchSingle(b *testing.B) {
	searchCells(b, func(b *testing.B, s *Server, users []vec.Vector, unsigned bool) {
		for i := 0; i < b.N; i++ {
			j := i % len(users)
			if _, err := s.Search("bench", users[j:j+1], 10, unsigned); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServerSearchCached prices the cache layer at small-hot's shape:
// a 4-shard normscan collection of 20 000 × 16 latent-factor rows whose
// norms spread by a lognormal of σ = 1, loaded 1 000 rows a write, with
// the cache on, and one top-10 query of 256 per iteration. hit asks each
// at the version its answer was cached at. revalidated asks it after one
// 64-row upsert since (untimed), revalidated/writes=w after w of them:
// each replaces rows no cached answer holds with fresh rows of the same
// law, so the answer is brought forward across every write. kept/op is
// the share that was. miss asks a query never seen, nudged by an ulp,
// which is scanned and cached. The writes=w cells spend w upserts a round
// of 256 queries outside the timer, so a fixed count (-benchtime 2560x)
// keeps their wall time short.
func BenchmarkServerSearchCached(b *testing.B) {
	const n, d, width = 20000, 16, 64
	rng := xrand.New(1)
	lf := dataset.NewLatentFactor(rng, n, 256, d, 1)
	lf.ScaleItemsToUnitBall()
	fresh := dataset.NewLatentFactor(rng, n, 1, d, 1)
	fresh.ScaleItemsToUnitBall()
	users := lf.Users
	for _, cell := range []struct {
		name   string
		writes int // upserts before each round
	}{{"hit", 0}, {"revalidated", 1}, {"revalidated/writes=16", 16}, {"revalidated/writes=128", 128}, {"miss", 0}} {
		b.Run(cell.name, func(b *testing.B) {
			s := New(Config{DefaultShards: 4, CacheCapacity: 4096, CompactFraction: -1})
			defer s.Close()
			spec := IndexSpec{Kind: KindNormScan}
			for lo := 0; lo < n; lo += 1000 {
				mustIngest(b, s, "bench", &spec, 0, records(lf.Items[lo:lo+1000], lo))
			}
			for _, u := range users {
				if _, err := s.Search("bench", []vec.Vector{u}, 10, false); err != nil {
					b.Fatal(err)
				}
			}
			held := make([]bool, n) // the rows an answer holds, not to replace
			next := 0               // the next row to replace, and its fresh vector, mod n
			q := make(vec.Vector, d)
			kept := s.cache.revalidated.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(users)
				switch {
				case cell.writes > 0 && j == 0:
					b.StopTimer()
					clear(held)
					s.cache.mu.Lock()
					for _, el := range s.cache.items {
						for _, h := range el.Value.(*cacheEntry).hits {
							held[h.ID] = true
						}
					}
					s.cache.mu.Unlock()
					for range cell.writes {
						recs := make([]store.Record, width)
						for w := range recs {
							for held[next%n] {
								next++
							}
							recs[w] = store.Record{ID: next % n, Vec: fresh.Items[next%n]}
							next++
						}
						if _, _, err := s.Upsert("bench", nil, 0, recs); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				case cell.name == "miss":
					copy(q, users[j])
					q[0] = math.Float64frombits(math.Float64bits(q[0]) + uint64(1+i/len(users))) // a new key each round
				}
				qs := users[j : j+1]
				if cell.name == "miss" {
					qs = []vec.Vector{q}
				}
				res, err := s.Search("bench", qs, 10, false)
				if err != nil || res[0].Err != nil || cell.writes == 0 && res[0].Cached == (cell.name == "miss") {
					b.Fatalf("%s: cached %v, %v %v", cell.name, res[0].Cached, err, res[0].Err)
				}
			}
			b.ReportMetric(float64(s.cache.revalidated.Load()-kept)/float64(b.N), "kept/op")
		})
	}
}

// BenchmarkServerSearchBatch measures one request of every query (256, or
// 64 for normscan-skewed, normscan-written and alsh) at top-10, its tiles run on the pool;
// ns/op is per batch.
// The alsh cell is the planted-alsh benchmark's batch beside
// BenchmarkServerJoin's lsh-on-alsh.
func BenchmarkServerSearchBatch(b *testing.B) {
	searchCells(b, func(b *testing.B, s *Server, users []vec.Vector, unsigned bool) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Search("bench", users, 10, unsigned); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServerJoin measures one join of 64 queries against 6 000 × 32
// unit-ball rows on 4 shards — the planted-alsh benchmark's shape — per
// iteration: the lsh engine walking the indexes an alsh collection keeps,
// and the exact sweeps it is up against: the f64 rows, the norm-sorted
// view of a normscan collection, and — at mixed-durable's 40 000 × 32 —
// the codes of an int8 collection, their certified candidates re-ranked
// through the f64 rows, whole and, as mixed-durable joins them, with 5 %
// of the rows deleted (exact-int8-deleted: nearly every block holds a
// dead row, so the sweep offers through the dead set); normscan-written
// sweeps the runs a normscan collection of small-hot's shape stacks after
// its 384 upserts of 64 (searchCells' normscan-written). Few
// latent-factor queries have a partner ≥ c·s, so lsh-on-alsh walks nearly
// every table; lsh-planted gives each query one at 0.95·q̂, as
// planted-alsh does, so its walks stop at the first table step holding
// it. compared/query is the rows a query scored (JoinResponse.Compared:
// the candidates lsh verified), and rerank/query, on the int8 cells, the
// candidates a query re-ranked (the scan span's rerank_candidates).
func BenchmarkServerJoin(b *testing.B) {
	for _, c := range []struct {
		name, engine string
		spec         IndexSpec
		n, d         int
		sigma        float64
		planted      bool
		writes       int     // upserts of 64 after the load
		deleted      float64 // share of the rows deleted after the load
	}{
		{"lsh-on-alsh", "lsh", IndexSpec{Kind: KindALSH}, 6000, 32, 0.5, false, 0, 0},
		{"lsh-planted", "lsh", IndexSpec{Kind: KindALSH}, 6000, 32, 0.5, true, 0, 0},
		{"exact", "exact", IndexSpec{Kind: KindExact}, 6000, 32, 0.5, false, 0, 0},
		{"normscan", "normpruned", IndexSpec{Kind: KindNormScan}, 6000, 32, 0.5, false, 0, 0},
		{"normscan-written", "normpruned", IndexSpec{Kind: KindNormScan}, 20000, 16, 1, false, 384, 0},
		{"exact-int8", "exact", IndexSpec{Kind: KindExact, Precision: PrecisionI8}, 40000, 32, 0.5, false, 0, 0},
		{"exact-int8-deleted", "exact", IndexSpec{Kind: KindExact, Precision: PrecisionI8}, 40000, 32, 0.5, false, 0, 0.05},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, users := benchServerSkewed(b, c.n, c.d, 4, c.sigma, c.spec)
			steadyWrites(b, s, c.n, c.d, c.sigma, c.writes)
			if c.deleted > 0 {
				if _, _, _, err := s.Delete("bench", xrand.New(9).Perm(c.n)[:int(c.deleted*float64(c.n))]); err != nil {
					b.Fatal(err)
				}
			}
			for _, u := range users {
				vec.Normalize(u)
			}
			queries := users[:64]
			if c.planted {
				partners := make([]vec.Vector, len(queries))
				for i, q := range queries {
					partners[i] = vec.Scaled(q, 0.95)
				}
				if _, _, err := s.Upsert("bench", nil, 0, records(partners, 0)); err != nil {
					b.Fatal(err)
				}
				bc, _ := s.Collection("bench")
				if err := bc.compact(); err != nil {
					b.Fatal(err)
				}
			}
			mustIngest(b, s, "q", nil, 1, records(queries, 0))
			req := JoinRequest{Data: "bench", Queries: "q", Engine: c.engine, S: 0.9, C: 0.8}
			var compared int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := s.Join(req)
				if err != nil {
					b.Fatal(err)
				}
				compared += resp.Compared
			}
			b.ReportMetric(float64(compared)/float64(b.N*len(queries)), "compared/query")
			if c.spec.Precision == PrecisionI8 {
				b.StopTimer()
				tr := trace.New("join", "")
				if _, err := s.JoinCtx(trace.NewContext(context.Background(), tr), req); err != nil {
					b.Fatal(err)
				}
				for _, sp := range tr.Export().Spans {
					if sp.Name == "scan" {
						b.ReportMetric(float64(sp.Attrs["rerank_candidates"])/float64(len(queries)), "rerank/query")
					}
				}
			}
		})
	}
}

// BenchmarkServerIngest measures sustained ingest across durability
// modes: pure in-memory, and WAL-backed under each fsync policy. One
// iteration pre-seeds a fresh 4-shard collection with 20k vectors
// (untimed), then times 30 appended batches of 1000×16 — the loadgen
// chunk shape against a realistically sized collection, so the number
// reflects steady-state ingest (snapshot rebuild + index build + WAL)
// rather than the first-batch corner. The interval-mode number is the
// one the durability acceptance bar compares against memory (within
// 20%).
//
// The bulk cells time a bulk load instead: 40 ingests of 1 000 Gaussian
// rows onto a fresh in-memory collection of 4 empty shards, exact
// against normscan at d = 16 and 64. A normscan load sorts and merges
// each shard's 40 batches of ≈ 250 rows into its run stack, where an
// exact one appends them; the normscan cell is to stay within 1.2× the
// exact one.
func BenchmarkServerIngest(b *testing.B) {
	const base, batches, per = 20_000, 30, 1000
	rng := xrand.New(2)
	vs := dataset.Gaussian(rng, base+batches*per, 16, false)
	seed := records(vs[:base], 0)
	for _, mode := range []string{"memory", "wal-never", "wal-interval", "wal-always"} {
		b.Run("durability="+mode, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := Config{DefaultShards: 4}
				if mode != "memory" {
					cfg.DataDir = b.TempDir()
					cfg.Fsync = mode[len("wal-"):]
				}
				s, err := Open(cfg)
				if err != nil {
					b.Fatal(err)
				}
				mustIngest(b, s, "bench", nil, 0, seed)
				b.StartTimer()
				for j := 0; j < batches; j++ {
					lo := base + j*per
					mustIngest(b, s, "bench", nil, 0, records(vs[lo:lo+per], lo))
				}
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
		})
	}
	const bulk = 40
	for _, d := range []int{16, 64} {
		vs := dataset.Gaussian(xrand.New(3), bulk*per, d, false)
		for _, kind := range []string{KindExact, KindNormScan} {
			b.Run(fmt.Sprintf("bulk/kind=%s/d=%d", kind, d), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := New(Config{DefaultShards: 4, CacheCapacity: -1, CompactFraction: -1})
					for lo := 0; lo < len(vs); lo += per {
						mustIngest(b, s, "bench", &IndexSpec{Kind: kind}, 0, records(vs[lo:lo+per], lo))
					}
					b.StopTimer()
					s.Close()
					b.StartTimer()
				}
			})
		}
	}
}

// upsertShapes are the write shapes of the upsert benchmarks, each a
// loaded 4-shard in-memory collection taking 64-record replacements of
// live IDs: the benchmark's four workloads' writes, on the paths that
// differ. Exact f64 and int8 extend their stores and mirrors by the
// batch, normscan sorts the batch into each touched shard's tail run,
// and alsh (unit-ball rows, planted-alsh's shape) hashes the batch and
// merges it into all L bucket tables of each touched shard.
//
// Every upsert tombstones 64 rows and appends 64, so the shards grow
// with b.N; every compactEvery upserts a compaction, outside the timer,
// takes them back to n rows, so ns/op and B/op do not depend on b.N.
// An alsh write copies every table's ids and compacts every 16 writes
// (≤ 1 024 extra rows on 6 000); the others every 64. A compaction
// leaves a normscan shard one run, and 64 writes of 16 rows a shard
// stack up to ⌊log₄ n⌋ + 1 again — some merge with the newest runs, none
// reaches the base run's quarter, so none folds: each writes its
// batch, times the runs it merges.
var upsertShapes = []struct {
	name         string
	n, d         int
	spec         IndexSpec
	compactEvery int
}{
	{"exact-f64/n=40000/d=64", 40_000, 64, IndexSpec{Kind: KindExact}, 64},
	{"normscan/n=20000/d=16", 20_000, 16, IndexSpec{Kind: KindNormScan}, 64},
	{"exact-int8/n=40000/d=32", 40_000, 32, IndexSpec{Kind: KindExact, Precision: PrecisionI8}, 64},
	{"alsh/n=6000/d=32", 6_000, 32, IndexSpec{Kind: KindALSH}, 16},
}

// benchUpserts runs one sub-benchmark per upsert shape: a server loaded
// with the shape's n rows vs, then b.N calls of the upsert prepare
// returns for it, the compactions between them untimed. Upsert i moves
// 64 of vs between live IDs, so the int8 scale never rises.
func benchUpserts(b *testing.B, prepare func(b *testing.B, s *Server, vs []vec.Vector, n int) (upsert func(i int))) {
	for _, bc := range upsertShapes {
		b.Run(bc.name, func(b *testing.B) {
			vs := dataset.Gaussian(xrand.New(4), bc.n, bc.d, false)
			if bc.spec.Kind == KindALSH {
				vs = dataset.UnitBall(xrand.New(4), bc.n, bc.d)
			}
			s := New(Config{DefaultShards: 4, CacheCapacity: -1, CompactFraction: -1})
			defer s.Close()
			spec := bc.spec
			for lo := 0; lo < bc.n; lo += 1000 {
				mustIngest(b, s, "bench", &spec, 0, records(vs[lo:lo+1000], lo))
			}
			c, _ := s.Collection("bench")
			upsert := prepare(b, s, vs, bc.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upsert(i)
				if (i+1)%bc.compactEvery == 0 {
					b.StopTimer()
					if err := c.compact(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkServerUpsert measures one 64-record upsert in process on
// each upsert shape. B/op is the point: it should track the batch, not
// the collection — on every shape but alsh, whose fresh tables hold an
// id per row of the shard in each of its L tables.
func BenchmarkServerUpsert(b *testing.B) {
	const width = 64
	benchUpserts(b, func(b *testing.B, s *Server, vs []vec.Vector, n int) func(int) {
		return func(i int) {
			lo := i * width % (n - width)
			if _, _, err := s.Upsert("bench", nil, 0, records(vs[lo:lo+width], (lo+width)%(n-width))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchServe runs one request through h and fails on anything but 200.
func benchServe(b *testing.B, h http.Handler, method, path string, body []byte) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		b.Fatalf("%s %s: %d %s", method, path, w.Code, w.Body)
	}
}

// BenchmarkServerUpsertHTTP is BenchmarkServerUpsert one layer up: the
// same shapes' 64-record replacements through the HTTP handler, body
// decode and response included — each workload's write as its client
// sends it. Against BenchmarkServerUpsert it prices the wire.
func BenchmarkServerUpsertHTTP(b *testing.B) {
	const width = 64
	benchUpserts(b, func(b *testing.B, s *Server, vs []vec.Vector, n int) func(int) {
		h := NewHandler(s)
		// A few distinct bodies, each moving rows between live IDs.
		bodies := make([][]byte, 16)
		for k := range bodies {
			lo := k * width
			recs := make([]RecordJSON, width)
			for j := range recs {
				id := (lo + width + j) % (n - width)
				recs[j] = RecordJSON{ID: &id, Vec: vs[lo+j]}
			}
			var err error
			if bodies[k], err = json.Marshal(IngestRequest{Records: recs}); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(bodies[0])))
		return func(i int) {
			benchServe(b, h, http.MethodPost, "/collections/bench/vectors", bodies[i%len(bodies)])
		}
	})
}

// BenchmarkServerSearchHTTP measures a search through the HTTP handler
// on a collection small enough (4 000 rows) that the request's fixed
// costs — body decode, response encode — are not lost under the scan:
// one query of 16 floats, and the benchmark's 64-query batches at d = 16
// and d = 64.
func BenchmarkServerSearchHTTP(b *testing.B) {
	for _, bc := range []struct {
		name  string
		d, nq int
	}{
		{"single/d=16", 16, 1},
		{"batch=64/d=16", 16, 64},
		{"batch=64/d=64", 64, 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, users := benchServer(b, 4000, bc.d, 4, IndexSpec{Kind: KindExact})
			h := NewHandler(s)
			req := SearchRequest{K: 10}
			if bc.nq == 1 {
				req.Q = users[0]
			} else {
				for _, u := range users[:bc.nq] {
					req.Queries = append(req.Queries, u)
				}
			}
			body, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchServe(b, h, http.MethodPost, "/collections/bench/search", body)
			}
		})
	}
}

// BenchmarkMergeTopK measures the k-way merge over 8 shard lists.
func BenchmarkMergeTopK(b *testing.B) {
	lists := make([][]Hit, 8)
	rng := xrand.New(3)
	for s := range lists {
		l := make([]Hit, 10)
		v := 10.0
		for i := range l {
			v -= rng.Float64()
			l[i] = Hit{ID: s*10 + i, Score: v}
		}
		lists[s] = l
	}
	var heap mergeHeap
	dst := make([]Hit, 0, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeTopKInto(lists, nil, 10, dst, nil, &heap)
	}
}
