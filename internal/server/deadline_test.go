package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/lsh"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transform"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// waitPoolIdle asserts every scan-pool slot has been released: a
// cancelled request that leaked a slot (or a goroutine still holding
// one) would leave len(sem) > 0 forever.
func waitPoolIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(s.pool.sem) == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("pool not idle: %d/%d slots still held", len(s.pool.sem), cap(s.pool.sem))
}

// seedKind builds a collection of the given index kind over unit vectors
// (inside alsh's ball) and returns the query set; the same n and d give
// the same vectors whatever the kind.
func seedKind(t *testing.T, s *Server, name, kind string, n, d, nq int) []vec.Vector {
	t.Helper()
	rng := xrand.New(77)
	items := dataset.Gaussian(rng, n, d, true)
	queries := dataset.Gaussian(rng, nq, d, true)
	recs := make([]store.Record, len(items))
	for i, v := range items {
		recs[i] = store.Record{ID: i, Vec: v}
	}
	if _, _, err := s.Ingest(name, &IndexSpec{Kind: kind}, 3, recs); err != nil {
		t.Fatalf("ingest %s: %v", kind, err)
	}
	return queries
}

// expiredCtx returns a context whose deadline has already fired.
func expiredCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestDeadlineMatrix drives every index kind through single and
// batched searches under three deadline regimes: already expired
// (every result must carry a context error), generous (results must be
// bit-identical to the no-deadline answers), and absent (the baseline).
// After each cancelled run the scan pool must drain back to idle.
func TestDeadlineMatrix(t *testing.T) {
	for _, kind := range []string{KindExact, KindNormScan, KindALSH} {
		t.Run(kind, func(t *testing.T) {
			s := New(Config{DefaultShards: 3, CacheCapacity: -1})
			defer s.Close()
			queries := seedKind(t, s, "m", kind, 400, 16, 24)

			base, err := s.Search("m", queries, 5, true)
			if err != nil {
				t.Fatalf("baseline search: %v", err)
			}
			for i, r := range base {
				if r.Err != nil {
					t.Fatalf("baseline query %d: %v", i, r.Err)
				}
			}

			// Generous deadline: bit-identical to the baseline.
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			gen, err := s.SearchCtx(ctx, "m", queries, 5, true)
			cancel()
			if err != nil {
				t.Fatalf("generous-deadline search: %v", err)
			}
			for i := range gen {
				if gen[i].Err != nil {
					t.Fatalf("generous-deadline query %d: %v", i, gen[i].Err)
				}
				if len(gen[i].Hits) != len(base[i].Hits) {
					t.Fatalf("query %d: %d hits with deadline, %d without", i, len(gen[i].Hits), len(base[i].Hits))
				}
				for j := range gen[i].Hits {
					if gen[i].Hits[j] != base[i].Hits[j] {
						t.Fatalf("query %d hit %d: %+v with deadline, %+v without",
							i, j, gen[i].Hits[j], base[i].Hits[j])
					}
				}
			}

			// Expired deadline, single query (SearchOne path).
			res, err := s.SearchCtx(expiredCtx(), "m", queries[:1], 5, true)
			if err != nil {
				t.Fatalf("expired single: top-level %v", err)
			}
			if !errors.Is(res[0].Err, context.Canceled) && !errors.Is(res[0].Err, context.DeadlineExceeded) {
				t.Fatalf("expired single: err = %v, want a context error", res[0].Err)
			}
			if res[0].Hits != nil {
				t.Fatalf("expired single returned %d hits", len(res[0].Hits))
			}

			// Expired deadline, batch (tile pipeline path).
			res, err = s.SearchCtx(expiredCtx(), "m", queries, 5, true)
			if err != nil {
				t.Fatalf("expired batch: top-level %v", err)
			}
			for i, r := range res {
				if !errors.Is(r.Err, context.Canceled) && !errors.Is(r.Err, context.DeadlineExceeded) {
					t.Fatalf("expired batch query %d: err = %v, want a context error", i, r.Err)
				}
			}
			waitPoolIdle(t, s)

			// The timeout counter saw every cancelled query.
			c, _ := s.Collection("m")
			if got := c.timeouts.Load(); got < int64(1+len(queries)) {
				t.Fatalf("timeouts counter = %d, want >= %d", got, 1+len(queries))
			}
		})
	}
}

// hashCounter stands in for an alsh collection's hash functions: the
// same SIMPLE + hyperplane construction, behind a query map that counts
// the probes it is handed and, when onHash is set, reports the count.
type hashCounter struct {
	hashed atomic.Int64
	onHash func(n int64)
}

// countHashes swaps c's hash functions for a hashCounter's and rebuilds
// every shard's index as an extend of them, as c's first write would
// have, publishing the rebuilt shards as a write does.
func countHashes(t *testing.T, c *Collection, d int) *hashCounter {
	t.Helper()
	h := new(hashCounter)
	tr, err := transform.NewSimple(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner, _ := lsh.NewHyperplane(tr.OutputDim())
	fam, err := lsh.NewAsymmetric("counting-simple", lsh.MapPair{Data: tr.Data, Query: func(q vec.Vector) vec.Vector {
		if n := h.hashed.Add(1); h.onHash != nil {
			h.onHash(n)
		}
		return tr.Query(q)
	}}, inner)
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := lsh.NewIndex(fam, 8, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.hashes.Store(hashes)
	for _, sh := range c.shards {
		snap := sh.snap.Load()
		index, _ := (&alshIndex{ix: hashes, u: 1}).extend(snap.fs)
		sh.commit(&shardSnap{ids: snap.ids, fs: snap.fs, index: index}, false)
	}
	c.ingestMu.Lock()
	v := c.view.Load()
	c.publish(v.version, v.epoch, v.writes)
	c.ingestMu.Unlock()
	return h
}

// alshWithQueries builds the alsh collection "m" of 400 unit vectors and
// the exact collection "q" of nq more, both at the given shard count, and
// returns the query vectors.
func alshWithQueries(t *testing.T, s *Server, shards, d, nq int) []vec.Vector {
	t.Helper()
	rng := xrand.New(77)
	var vs []vec.Vector
	for _, c := range []struct {
		name, kind string
		n          int
	}{{"m", KindALSH, 400}, {"q", KindExact, nq}} {
		vs = dataset.Gaussian(rng, c.n, d, true)
		recs := make([]store.Record, len(vs))
		for i, v := range vs {
			recs[i] = store.Record{ID: i, Vec: v}
		}
		mustIngest(t, s, c.name, &IndexSpec{Kind: c.kind}, shards, recs)
	}
	return vs // "q"'s
}

// TestALSHTileDeadline: an alsh request hashes each query once, before
// its shard fan-out, whatever the shard count — a batch tile, a single
// search and an lsh join's query shards alike — polling ctx first, so an
// expired request hashes nothing; keys from other hash functions, even
// ones sampled alike, are refused rather than probed. And what
// TestDeadlineMatrix cannot reach: a context cancelled as the second tile
// of a batch is hashed gives every query of that tile the context's error
// and no partial hits, leaves the first tile answered and cached, and
// puts nothing of the cancelled tile in the cache.
func TestALSHTileDeadline(t *testing.T) {
	const d, k, tail = 16, 5, 8
	const nq = searchTileQ + tail
	for _, shards := range []int{1, 2, 4} {
		s := New(Config{DefaultShards: shards, CacheCapacity: -1})
		queries := alshWithQueries(t, s, shards, d, nq)
		c, _ := s.Collection("m")
		h := countHashes(t, c, d)
		requests := []struct {
			name string
			run  func(ctx context.Context) error
		}{
			{"batch", func(ctx context.Context) error {
				res, err := s.SearchCtx(ctx, "m", queries, k, true)
				for i := 0; err == nil && i < len(res); i++ {
					err = res[i].Err
				}
				return err
			}},
			{"single", func(ctx context.Context) error {
				_, err := c.SearchOne(ctx, s.pool, queries[0], k, true)
				return err
			}},
			{"join", func(ctx context.Context) error {
				_, err := s.JoinCtx(ctx, JoinRequest{Data: "m", Queries: "q", Engine: "lsh", S: 0.5, Variant: "unsigned"})
				return err
			}},
		}
		for _, r := range requests {
			want := int64(2 * nq) // q′ and −q′ of each query
			if r.name == "single" {
				want = 2
			}
			h.hashed.Store(0)
			if err := r.run(context.Background()); err != nil {
				t.Fatalf("%d shards, %s: %v", shards, r.name, err)
			}
			if got := h.hashed.Load(); got != want {
				t.Fatalf("%d shards, %s: hashed %d probes, want %d: each query once", shards, r.name, got, want)
			}
			h.hashed.Store(0)
			if err := r.run(expiredCtx()); !errors.Is(err, context.Canceled) || h.hashed.Load() != 0 {
				t.Fatalf("%d shards, expired %s: err = %v after hashing %d probes, want the context's error and none", shards, r.name, err, h.hashed.Load())
			}
		}
		qs, err := flat.FromVectors(queries)
		if err != nil {
			t.Fatal(err)
		}
		var qk lsh.QueryKeys
		if keys, err := c.hashQueries(expiredCtx(), &qk, qs, 0, searchTileQ, true); !errors.Is(err, context.Canceled) || keys != nil || h.hashed.Load() != 0 {
			t.Fatalf("%d shards: an expired tile hashed %d probes (err = %v)", shards, h.hashed.Load(), err)
		}
		twin, err := newALSHHashes(c.spec, d, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		twin.HashQueries(&qk, qs, 0, searchTileQ, c.spec.probe(true))
		_, err = c.shards[0].snap.Load().index.(*alshIndex).topKMulti(context.Background(), qs, 0, searchTileQ, k, TopKOpts{Unsigned: true, Keys: &qk}, new(scanScratch))
		if err == nil {
			t.Fatalf("%d shards: a shard probed a tile hashed by other hash functions", shards)
		}
		waitPoolIdle(t, s)
		s.Close()
	}

	s := New(Config{DefaultShards: 2, CacheCapacity: 128, Workers: 1}) // one worker: tiles run in order
	defer s.Close()
	queries := alshWithQueries(t, s, 2, d, nq)
	c, _ := s.Collection("m")
	h := countHashes(t, c, d)
	// Unsigned: two probes a query. Cancel on the second tile's last one.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.onHash = func(n int64) {
		if n == 2*nq {
			cancel()
		}
	}
	res, err := s.SearchCtx(ctx, "m", queries, k, true)
	if err != nil {
		t.Fatalf("cancelled batch: top-level %v", err)
	}
	h.onHash = nil
	for i, r := range res {
		switch {
		case i < searchTileQ && r.Err != nil:
			t.Fatalf("query %d of the tile before the cancellation: %v", i, r.Err)
		case i >= searchTileQ && (!errors.Is(r.Err, context.Canceled) || r.Hits != nil):
			t.Fatalf("query %d of the cancelled tile: err = %v with %d hits, want the context's error and none", i, r.Err, len(r.Hits))
		}
	}
	if got := h.hashed.Load(); got != 2*nq {
		t.Fatalf("hashed %d probes, want %d: both tiles once", got, 2*nq)
	}
	waitPoolIdle(t, s)
	again, err := s.Search("m", queries, k, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range again {
		if r.Err != nil || r.Cached != (i < searchTileQ) {
			t.Fatalf("query %d after the cancelled batch: err = %v, cached = %v", i, r.Err, r.Cached)
		}
		if i < searchTileQ && !reflect.DeepEqual(r.Hits, res[i].Hits) {
			t.Fatalf("query %d: cached %v, computed %v", i, r.Hits, res[i].Hits)
		}
		if alone, err := c.SearchOne(context.Background(), NewPool(1), queries[i], k, true); err != nil || !reflect.DeepEqual(alone, r.Hits) {
			t.Fatalf("query %d: batch %v, alone %v (%v)", i, r.Hits, alone, err)
		}
	}
}

// TestJoinDeadline pins cancellation through the join path: an expired
// context fails with a context error on every engine, a generous one
// matches the no-deadline join exactly, and the pool drains either way.
// The normpruned and lsh engines join the same rows held by a normscan
// and an alsh collection.
func TestJoinDeadline(t *testing.T) {
	s := New(Config{DefaultShards: 2, CacheCapacity: -1})
	defer s.Close()
	seedKind(t, s, "p", KindExact, 300, 12, 1)
	seedKind(t, s, "pn", KindNormScan, 300, 12, 1)
	seedKind(t, s, "pa", KindALSH, 300, 12, 1)
	seedKind(t, s, "q", KindExact, 60, 12, 1)

	data := map[string]string{"exact": "p", "normpruned": "pn", "lsh": "pa"}
	for _, engine := range []string{"exact", "normpruned", "lsh"} {
		t.Run(engine, func(t *testing.T) {
			req := JoinRequest{Data: data[engine], Queries: "q", Engine: engine, S: 0.3, Variant: "unsigned"}
			base, err := s.Join(req)
			if err != nil {
				t.Fatalf("baseline join: %v", err)
			}

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			gen, err := s.JoinCtx(ctx, req)
			cancel()
			if err != nil {
				t.Fatalf("generous-deadline join: %v", err)
			}
			if gen.Pairs == nil || len(gen.Pairs) != len(base.Pairs) {
				t.Fatalf("join with deadline found %d pairs, baseline %d", len(gen.Pairs), len(base.Pairs))
			}

			if _, err := s.JoinCtx(expiredCtx(), req); !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("expired join: err = %v, want a context error", err)
			}
			waitPoolIdle(t, s)
		})
	}
	t.Run("inside-tile", joinCancelledInsideTile)
}

// fetchCtx is a live context that counts the fetches of its Done channel
// and cancels itself on the fireAt-th (0: never). An engine fetches the
// channel once as a Q-tile starts and from then on polls the channel,
// not the context, so this is the one deterministic way to cancel a join
// from outside at a known point past its set-up: "as the tile starts".
type fetchCtx struct {
	context.Context
	mu      sync.Mutex
	done    chan struct{}
	fetches int
	fireAt  int
}

func newFetchCtx(fireAt int) *fetchCtx {
	return &fetchCtx{Context: context.Background(), done: make(chan struct{}), fireAt: fireAt}
}

func (c *fetchCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fetches++; c.fetches == c.fireAt {
		close(c.done)
	}
	return c.done
}

func (c *fetchCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// joinCancelledInsideTile: a join of one shard pair and one Q-tile —
// searchTileQ queries, one tile for every engine — over 17 row blocks,
// cancelled the moment its tile starts — past
// admission, snapshot pinning and engine set-up, where only the engine's
// own polling can notice. It must come back with the context's error
// having scored, per query, less than the one block a driver may be
// into when the channel closes (the traced scan span says how much),
// not the whole sweep; the pool must drain, and the next join must be
// untouched by it. The normpruned engine sweeps pn, p's rows in a
// normscan collection, and the lsh engine probes pa, p's rows in an alsh
// collection.
func joinCancelledInsideTile(t *testing.T) {
	s := New(Config{CacheCapacity: -1})
	defer s.Close()
	const n, nq, block = 17*256 - 100, searchTileQ, 256
	rng := xrand.New(5)
	for _, c := range []struct {
		names []string
		size  int
	}{{[]string{"p", "pn", "pa"}, n}, {[]string{"q"}, nq}} {
		recs := make([]store.Record, c.size)
		for i, v := range dataset.Gaussian(rng, c.size, 8, true) {
			recs[i] = store.Record{ID: i, Vec: v}
		}
		for _, name := range c.names {
			spec := map[string]*IndexSpec{"pn": {Kind: KindNormScan}, "pa": {Kind: KindALSH, K: 2, L: 4}}[name]
			mustIngest(t, s, name, spec, 1, recs)
		}
	}
	traced := func(ctx context.Context, req JoinRequest) (*JoinResponse, int64, error) {
		tr := trace.New("join", "")
		resp, err := s.JoinCtx(trace.NewContext(ctx, tr), req)
		for _, sp := range tr.Export().Spans {
			if sp.Name == "scan" {
				return resp, sp.Attrs["rows_scanned"], err
			}
		}
		t.Fatalf("no scan span in %+v", tr.Export())
		return nil, 0, nil
	}
	data := map[string]string{"exact": "p", "normpruned": "pn", "lsh": "pa"}
	for _, engine := range []string{"exact", "normpruned", "lsh"} {
		t.Run(engine, func(t *testing.T) {
			req := JoinRequest{Data: data[engine], Queries: "q", Engine: engine, S: 0.5, C: 0.5, Variant: "unsigned"}
			dry := newFetchCtx(0)
			base, scanned, err := traced(dry, req)
			if err != nil {
				t.Fatalf("baseline join: %v", err)
			}
			if scanned != base.Compared || scanned == 0 {
				t.Fatalf("scan span says %d rows, the response %d", scanned, base.Compared)
			}
			if exact := engine == "exact" || engine == "normpruned"; exact && scanned < 16*block*nq {
				t.Fatalf("baseline scored %d rows: fewer than 16 blocks per query, the cancellation would prove nothing", scanned)
			}

			// The engine's fetch is the join's last; cancel on it.
			ctx := newFetchCtx(dry.fetches)
			_, scanned, err = traced(ctx, req)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled join: err = %v", err)
			}
			if ctx.fetches != dry.fetches {
				t.Fatalf("cancelled join fetched Done %d times, the baseline %d: the cancel did not land on the tile", ctx.fetches, dry.fetches)
			}
			if scanned > block*nq {
				t.Fatalf("cancelled join scored %d rows, more than one block for each of %d queries (the whole sweep is %d)", scanned, nq, base.Compared)
			}
			waitPoolIdle(t, s)

			again, err := s.Join(req)
			if err != nil || !reflect.DeepEqual(again.Pairs, base.Pairs) || again.Compared != base.Compared {
				t.Fatalf("join after the cancelled one: %v, %d pairs (baseline %d)", err, len(again.Pairs), len(base.Pairs))
			}
		})
	}
}

// TestDeadlineFinishesEveryTile: a request of three tiles cancelled at
// each point of its fan-out — a join of every engine and a search of every
// kind, on one worker (each tile one task, in order) and on four (two
// shard groups a tile, side by side) — finishes every tile. A join fails
// with the context's error or returns the baseline's pairs; every search
// query carries its hits or the context's error, never a zero result.
// Every tile scratch taken goes back to its pool once; a tile no task ran
// takes none and is finished with a nil scratch, which some cancel on one
// worker reaches. The pool drains.
func TestDeadlineFinishesEveryTile(t *testing.T) {
	var mu sync.Mutex
	held, got, bad := map[*tileScratch]bool{}, 0, 0
	get, put := getTileScratch, putTileScratch
	defer func() { getTileScratch, putTileScratch = get, put }()
	getTileScratch = func() *tileScratch {
		ts := get()
		mu.Lock()
		held[ts] = true
		got++
		mu.Unlock()
		return ts
	}
	putTileScratch = func(ts *tileScratch) {
		mu.Lock()
		defer mu.Unlock()
		if !held[ts] {
			bad++ // put twice, or never taken
			return
		}
		delete(held, ts)
		put(ts)
	}
	// run sends one request cancelled on its fireAt-th fetch of Done (0:
	// never); it reports how many fetches it made and scratches it took.
	run := func(t *testing.T, s *Server, fireAt int, req func(context.Context) error) (fetches, taken int, err error) {
		t.Helper()
		mu.Lock()
		got = 0
		mu.Unlock()
		ctx := newFetchCtx(fireAt)
		err = req(ctx)
		waitPoolIdle(t, s)
		mu.Lock()
		defer mu.Unlock()
		if len(held) != 0 || bad != 0 {
			t.Fatalf("fire at %d: %d tile scratches kept, %d put back twice or never taken", fireAt, len(held), bad)
		}
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("fire at %d: %v, want the context's error", fireAt, err)
		}
		return ctx.fetches, got, err
	}
	const nq, tiles = 2*searchTileQ + 8, 3
	for _, workers := range []int{1, 4} {
		s := New(Config{DefaultShards: 4, CacheCapacity: -1, Workers: workers})
		defer s.Close()
		var queries []vec.Vector
		for _, kind := range []string{KindExact, KindNormScan, KindALSH} {
			queries = seedKind(t, s, kind, kind, 600, 12, nq)
		}
		mustIngest(t, s, "q", nil, 1, records(queries, 0))
		unfed := false
		for _, engine := range []string{"exact", "normpruned", "lsh"} {
			req := JoinRequest{Data: map[string]string{"exact": KindExact, "normpruned": KindNormScan, "lsh": KindALSH}[engine], Queries: "q", Engine: engine, S: 0.3, Variant: "unsigned"}
			var base *JoinResponse
			join := func(ctx context.Context) (err error) {
				resp, err := s.JoinCtx(ctx, req)
				if err == nil && base != nil && !reflect.DeepEqual(resp.Pairs, base.Pairs) {
					t.Fatalf("workers=%d %s: a join that ran whole returned other pairs", workers, engine)
				}
				base = cmp.Or(base, resp)
				return err
			}
			all, _, err := run(t, s, 0, join)
			if err != nil {
				t.Fatal(err)
			}
			for fireAt := 1; fireAt <= all; fireAt++ {
				if _, taken, err := run(t, s, fireAt, join); err != nil && taken < tiles {
					unfed = true
				}
			}
		}
		if workers == 1 && !unfed {
			t.Fatal("no cancelled join left a tile unfed: the nil-scratch finish went untested")
		}
		for _, kind := range []string{KindExact, KindNormScan, KindALSH} {
			base, err := s.Search(kind, queries, 5, true)
			if err != nil {
				t.Fatal(err)
			}
			search := func(ctx context.Context) error {
				res, err := s.SearchCtx(ctx, kind, queries, 5, true)
				for i := 0; err == nil && i < len(res); i++ {
					if r := res[i]; r.Err != nil && (!errors.Is(r.Err, context.Canceled) || r.Hits != nil) || r.Err == nil && !reflect.DeepEqual(r.Hits, base[i].Hits) {
						t.Fatalf("workers=%d %s: query %d: %v with %d hits, want the context's error or the baseline's %d", workers, kind, i, r.Err, len(r.Hits), len(base[i].Hits))
					}
				}
				return err
			}
			all, _, _ := run(t, s, 0, search)
			for fireAt := 1; fireAt <= all; fireAt++ {
				run(t, s, fireAt, search)
			}
		}
	}
}

// TestHTTPDeadline504 is the acceptance scenario: a short-deadline
// search against a collection whose full scan takes much longer must
// come back 504 quickly — in a fraction of the scan time — and free
// its pool slot. Batched searches and joins expire the same way.
func TestHTTPDeadline504(t *testing.T) {
	s := New(Config{DefaultShards: 1, CacheCapacity: -1, Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	rng := xrand.New(9)
	const n, d = 1 << 17, 32
	var q []float64

	// The scan notices the deadline at its next poll after the timer has
	// run, which on one core can wait out Go's 10ms preemption quantum —
	// twice, on a loaded machine. quantum is that slack.
	const quantum = 20 * time.Millisecond

	// Grow the collection until a full scan takes several quanta over the
	// 2ms deadline; a fixed size would be flaky across kernel speeds.
	var baseline time.Duration
	for grow, next := 0, 0; grow < 4; grow++ {
		items := dataset.Gaussian(rng, n, d, true)
		recs := make([]store.Record, len(items))
		for i, v := range items {
			recs[i] = store.Record{ID: next + i, Vec: v}
		}
		next += len(items)
		mustIngest(t, s, "big", &IndexSpec{Kind: KindExact}, 1, recs)
		if q == nil {
			q = items[0]
		}
		start := time.Now()
		if code := doJSON(t, ts, http.MethodPost, "/collections/big/search",
			SearchRequest{Q: q, K: 3, Unsigned: true}, nil); code != http.StatusOK {
			t.Fatalf("baseline status %d", code)
		}
		baseline = time.Since(start)
		if baseline >= 3*quantum {
			break
		}
	}
	if baseline < 10*time.Millisecond {
		t.Skipf("scan too fast to expire a 2ms deadline (baseline %v)", baseline)
	}

	// The 2ms-deadline run must 504 without riding out the scan.
	var e map[string]string
	start := time.Now()
	code := doJSON(t, ts, http.MethodPost, "/collections/big/search",
		SearchRequest{Q: q, K: 3, Unsigned: true, TimeoutMS: 2}, &e)
	took := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline search status %d (%v), want 504", code, e)
	}
	if baseline >= 3*quantum && took > baseline/2+quantum {
		t.Fatalf("deadline search took %v against a %v scan; cancellation did not cut it short", took, baseline)
	}
	t.Logf("baseline scan %v, 2ms-deadline response %v", baseline, took)

	// Batch path expires too.
	if code := doJSON(t, ts, http.MethodPost, "/collections/big/search",
		SearchRequest{Queries: [][]float64{q, q}, K: 3, Unsigned: true, TimeoutMS: 2}, &e); code != http.StatusGatewayTimeout {
		t.Fatalf("deadline batch status %d (%v), want 504", code, e)
	}

	waitPoolIdle(t, s)
}

// TestCancelledQueryDoesNotPoisonCache is the regression for the
// cache-poisoning hazard: a query abandoned mid-scan must not store
// its partial (empty) result under the query's cache key. The same
// query re-run without a deadline must compute fresh, correct hits —
// and only then become cache-served.
func TestCancelledQueryDoesNotPoisonCache(t *testing.T) {
	for _, kind := range []string{KindExact, KindALSH} {
		t.Run(kind, func(t *testing.T) { testCancelledQueryDoesNotPoisonCache(t, kind) })
	}
}

func testCancelledQueryDoesNotPoisonCache(t *testing.T, kind string) {
	s := New(Config{DefaultShards: 2, CacheCapacity: 128})
	defer s.Close()
	queries := seedKind(t, s, "m", kind, 300, 8, 8)

	// Cancelled single query: must error, must not cache.
	res, err := s.SearchCtx(expiredCtx(), "m", queries[:1], 3, true)
	if err != nil || res[0].Err == nil {
		t.Fatalf("cancelled query: err=%v res.Err=%v", err, res[0].Err)
	}
	fresh, err := s.Search("m", queries[:1], 3, true)
	if err != nil || fresh[0].Err != nil {
		t.Fatalf("post-cancel query: err=%v res.Err=%v", err, fresh[0].Err)
	}
	if fresh[0].Cached {
		t.Fatal("post-cancel query was served from cache: the cancelled run poisoned it")
	}
	if len(fresh[0].Hits) != 3 {
		t.Fatalf("post-cancel query returned %d hits, want 3", len(fresh[0].Hits))
	}
	again, _ := s.Search("m", queries[:1], 3, true)
	if !again[0].Cached {
		t.Fatal("repeat query not cache-served; completed results should populate the cache")
	}
	for i := range again[0].Hits {
		if again[0].Hits[i] != fresh[0].Hits[i] {
			t.Fatalf("cached hit %d = %+v, computed %+v", i, again[0].Hits[i], fresh[0].Hits[i])
		}
	}

	// Same contract for the batch pipeline.
	if _, err := s.SearchCtx(expiredCtx(), "m", queries, 3, true); err != nil {
		t.Fatalf("cancelled batch: %v", err)
	}
	batch, err := s.Search("m", queries, 3, true)
	if err != nil {
		t.Fatalf("post-cancel batch: %v", err)
	}
	for i, r := range batch {
		if r.Err != nil {
			t.Fatalf("post-cancel batch query %d: %v", i, r.Err)
		}
		if i > 0 && r.Cached {
			// queries[0] was legitimately cached above; the rest must
			// have been computed fresh, not replayed from a poisoned
			// entry.
			t.Fatalf("post-cancel batch query %d claims cached", i)
		}
	}
}

// TestAdmissionShedsWith429 pins the overload contract end to end: with
// both execution slots and queue occupied, a search is shed with 429
// and a Retry-After hint, an admission-failed query never reaches the
// cache, and once the slot frees the same request serves normally.
func TestAdmissionShedsWith429(t *testing.T) {
	s := New(Config{DefaultShards: 1, CacheCapacity: 128, MaxInflight: 1, MaxQueue: 0})
	defer s.Close()
	queries := seedKind(t, s, "m", KindExact, 100, 8, 2)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	c, _ := s.Collection("m")
	if err := c.adm.enter(context.Background()); err != nil {
		t.Fatalf("occupying the admission slot: %v", err)
	}

	body := strings.NewReader(fmt.Sprintf(`{"q":%s,"k":1,"unsigned":true}`, jsonVec(queries[0])))
	resp, err := ts.Client().Post(ts.URL+"/collections/m/search", "application/json", body)
	if err != nil {
		t.Fatalf("shed request: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated search status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	// The shed query must not have cached anything.
	c.adm.exit()
	var ok SearchResponse
	if code := doJSON(t, ts, http.MethodPost, "/collections/m/search",
		SearchRequest{Q: queries[0], K: 1, Unsigned: true}, &ok); code != http.StatusOK {
		t.Fatalf("post-shed search status %d", code)
	}
	if ok.Cached != 0 {
		t.Fatal("post-shed search was cache-served; the shed query should never have reached the cache")
	}
	if _, _, shed := c.adm.snapshot(); shed != 1 {
		t.Fatalf("shed counter = %d, want 1", shed)
	}
}

func jsonVec(v vec.Vector) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = fmt.Sprintf("%g", f)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// TestGate unit-tests the admission gate itself: slot accounting,
// immediate shedding on a full queue, queued waiters admitted in turn,
// and waiters abandoning the queue when their context fires.
func TestGate(t *testing.T) {
	g := newGate(1, 0)
	if err := g.enter(context.Background()); err != nil {
		t.Fatalf("first enter: %v", err)
	}
	if err := g.enter(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second enter = %v, want ErrOverloaded", err)
	}
	if inflight, _, shed := g.snapshot(); inflight != 1 || shed != 1 {
		t.Fatalf("snapshot inflight=%d shed=%d, want 1, 1", inflight, shed)
	}
	g.exit()
	if err := g.enter(context.Background()); err != nil {
		t.Fatalf("enter after exit: %v", err)
	}
	g.exit()

	// With queue room, a waiter blocks until the slot frees.
	g = newGate(1, 4)
	if err := g.enter(context.Background()); err != nil {
		t.Fatalf("enter: %v", err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- g.enter(context.Background()) }()
	select {
	case err := <-admitted:
		t.Fatalf("waiter admitted while the slot was held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.exit()
	if err := <-admitted; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	g.exit()

	// A queued waiter whose deadline fires gives up with the ctx error.
	g = newGate(1, 4)
	if err := g.enter(context.Background()); err != nil {
		t.Fatalf("enter: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.enter(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter = %v, want DeadlineExceeded", err)
	}
	g.exit()
	if inflight, queued, _ := g.snapshot(); inflight != 0 || queued != 0 {
		t.Fatalf("final snapshot inflight=%d queued=%d, want 0, 0", inflight, queued)
	}

	// nil gate admits everything.
	var nilGate *gate
	if err := nilGate.enter(context.Background()); err != nil {
		t.Fatalf("nil gate enter: %v", err)
	}
	nilGate.exit()
}

// TestForEachCtx pins the cancellable feed: a nil context runs every
// task, a pre-cancelled one runs none, and a mid-run cancellation
// stops feeding while letting started tasks finish — with every slot
// released afterwards.
func TestForEachCtx(t *testing.T) {
	p := NewPool(2)

	var ran atomic.Int64
	if err := p.ForEachCtx(nil, 16, func(int) { ran.Add(1) }); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if ran.Load() != 16 {
		t.Fatalf("nil ctx ran %d/16 tasks", ran.Load())
	}

	ran.Store(0)
	if err := p.ForEachCtx(expiredCtx(), 16, func(int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired ctx: err = %v, want Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("expired ctx still ran %d tasks", ran.Load())
	}

	ctx, cancel := context.WithCancel(context.Background())
	ran.Store(0)
	err := p.ForEachCtx(ctx, 64, func(i int) {
		if i == 1 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		ran.Add(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want Canceled", err)
	}
	if n := ran.Load(); n == 0 || n == 64 {
		t.Fatalf("mid-run cancel ran %d/64 tasks; want some but not all", n)
	}
	if len(p.sem) != 0 {
		t.Fatalf("%d slots still held after cancelled ForEachCtx", len(p.sem))
	}
}

// TestHTTPBodyLimit413 pins the request-body cap on every route that
// reads a body: an ingest larger than Config.MaxBodyBytes is rejected
// with a structured 413 and the collection is untouched, while a small
// body still lands; so are an oversized search and join.
func TestHTTPBodyLimit413(t *testing.T) {
	s := New(Config{DefaultShards: 1, MaxBodyBytes: 2 << 10})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	rng := xrand.New(3)
	items := dataset.Gaussian(rng, 200, 16, false)
	recs := make([]RecordJSON, len(items))
	for i, v := range items {
		id := i
		recs[i] = RecordJSON{ID: &id, Vec: v}
	}
	var e map[string]string
	if code := doJSON(t, ts, http.MethodPut, "/collections/c",
		IngestRequest{Records: recs}, &e); code != http.StatusRequestEntityTooLarge || e["error"] == "" {
		t.Fatalf("oversized ingest: status %d, error %q; want structured 413", code, e["error"])
	}
	if _, ok := s.Collection("c"); ok {
		if c, _ := s.Collection("c"); c.Len() != 0 {
			t.Fatalf("rejected ingest left %d records behind", c.Len())
		}
	}
	if code := doJSON(t, ts, http.MethodPut, "/collections/c",
		IngestRequest{Records: recs[:2]}, nil); code != http.StatusOK {
		t.Fatalf("small ingest after 413: status %d", code)
	}

	// The read routes are capped too: a search whose batch overruns the
	// limit, and join bodies padded past it by a field the decoder would
	// skip, on all three join routes.
	batch := make([][]float64, len(items))
	for i, v := range items {
		batch[i] = v
	}
	padded := map[string]any{"data": "c", "queries": "c", "s": 0.5, "pad": strings.Repeat("x", 4<<10)}
	for _, c := range []struct {
		path string
		body any
	}{
		{"/collections/c/search", SearchRequest{Queries: batch, K: 1}},
		{"/collections/c/join/c", padded},
		{"/collections/c/join", padded},
		{"/join", padded},
	} {
		e = nil
		if code := doJSON(t, ts, http.MethodPost, c.path, c.body, &e); code != http.StatusRequestEntityTooLarge || e["error"] == "" {
			t.Errorf("oversized %s: status %d, error %q; want structured 413", c.path, code, e["error"])
		}
	}
	if code := doJSON(t, ts, http.MethodPost, "/collections/c/search",
		SearchRequest{Q: items[0], K: 1}, nil); code != http.StatusOK {
		t.Fatalf("small search after 413: status %d", code)
	}
}

// TestMetricsEndpoint exercises GET /metrics: the Prometheus text
// content type, per-route HTTP histograms and status counts, the
// per-collection query/admission/timeout series and the cache's
// revalidation outcomes, all reflecting the traffic the test just
// generated.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{DefaultShards: 2, CacheCapacity: 64, MaxInflight: 1, MaxQueue: 0})
	defer s.Close()
	queries := seedKind(t, s, "met", KindExact, 200, 8, 4)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	// Traffic: two identical searches (second is a cache hit), one
	// expired-deadline search (timeout counter), one shed search (429).
	for i := 0; i < 2; i++ {
		if code := doJSON(t, ts, http.MethodPost, "/collections/met/search",
			SearchRequest{Q: queries[0], K: 2, Unsigned: true}, nil); code != http.StatusOK {
			t.Fatalf("search %d status %d", i, code)
		}
	}
	c, _ := s.Collection("met")
	if _, err := s.SearchCtx(expiredCtx(), "met", []vec.Vector{queries[1]}, 2, true); err != nil {
		t.Fatalf("expired search: %v", err)
	}
	if err := c.adm.enter(context.Background()); err != nil {
		t.Fatalf("occupying slot: %v", err)
	}
	doJSON(t, ts, http.MethodPost, "/collections/met/search",
		SearchRequest{Q: queries[2], K: 2, Unsigned: true}, nil)
	c.adm.exit()
	// In process, on a second collection: an answer cached, its hits
	// rewritten, then searched again — a touched revalidation.
	aux := seedKind(t, s, "aux", KindExact, 20, 8, 1)
	res, err := s.Search("aux", aux, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	ac, _ := s.Collection("aux")
	var rewrite []store.Record
	for _, r := range ac.records() {
		if slices.ContainsFunc(res[0].Hits, func(h Hit) bool { return h.ID == r.ID }) {
			rewrite = append(rewrite, r)
		}
	}
	if _, _, err := s.Upsert("aux", nil, 0, rewrite); err != nil || len(rewrite) != 2 {
		t.Fatalf("rewriting %d hits: %v", len(rewrite), err)
	}
	if res, err = s.Search("aux", aux, 2, true); err != nil || res[0].Cached {
		t.Fatalf("search after the rewrite: cached %v, %v", res[0].Cached, err)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	page := string(raw)
	for _, want := range []string{
		"ipsd_uptime_seconds ",
		"ipsd_pool_workers ",
		"ipsd_cache_hits_total 1",
		"# HELP ipsd_cache_invalidations_total Query cache entries dropped by alsh writes and collection drops.",
		`ipsd_cache_revalidations_total{outcome="kept"} 0`,
		`ipsd_cache_revalidations_total{outcome="touched"} 1`,
		`ipsd_cache_revalidations_total{outcome="expired"} 0`,
		"ipsd_http_inflight ",
		`ipsd_http_requests_total{route="search",code="2xx"} 2`,
		`ipsd_http_requests_total{route="search",code="4xx"} 1`,
		`ipsd_http_request_duration_seconds_bucket{route="search",le="+Inf"}`,
		`ipsd_http_request_duration_seconds_count{route="search"}`,
		`ipsd_collection_records{collection="met"} 200`,
		`ipsd_queries_total{collection="met"}`,
		`ipsd_query_timeouts_total{collection="met"} 1`,
		`ipsd_admission_shed_total{collection="met"} 1`,
		`ipsd_admission_inflight{collection="met"} 0`,
		`ipsd_wal_fsync_lag_seconds{collection="met"} 0`,
		`ipsd_query_duration_seconds_bucket{collection="met",le="+Inf"}`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics page:\n%s", page)
	}

	// Histogram buckets must be cumulative (monotone non-decreasing).
	var last int64 = -1
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, `ipsd_http_request_duration_seconds_bucket{route="search"`) {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil {
			t.Fatalf("parsing bucket line %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = n
	}
	if last < 3 {
		t.Fatalf("search route histogram count = %d, want >= 3", last)
	}
}
