// Command loadgen replays a synthetic MIPS workload against an ipsd
// server and reports ingest/search throughput, latency percentiles,
// and — unless -verify=false — checks the sharded top-k answers are
// identical to a local single-shard exact scan.
//
// With no -addr it spins up an in-process server, so
//
//	loadgen -n 100000 -q 1000 -shards 4 -k 10
//
// is a self-contained end-to-end acceptance run.
//
// -mixed switches to an ingest-heavy mixed workload: -ingest-workers
// goroutines PUT ingest chunks concurrently while a searcher goroutine
// fires batched queries at the moving collection — the shape that
// exercises WAL/ingest-lock contention on a durable server. Once the
// ingest quiesces, -mutate-ops batches of upserts and deletes over
// Zipf-skewed record ids hammer the collection (searches still
// running), exercising tombstoned scans, cache invalidation and
// background compaction; loadgen tracks every mutation it issued and
// the final verified search pass checks the server's answers against
// the tracker's live set, so a hit on a deleted id or a stale vector
// fails the run.
//
// -precision selects the collection's storage tier: int8 answers, which
// the server re-ranks from certified candidates, must be the f64 exact
// scan's too.
//
// -skip-ingest assumes the server already holds the workload (e.g.
// after a restart recovered it from its data directory) and goes
// straight to the verified search pass: together with -seed this makes
// a kill/restart cycle checkable end to end.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/mips"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// routeTracker accumulates client-observed latencies per route label
// and client-side allocation counters per workload phase, reported as
// p50/p95/p99 at exit. The -mixed workload issues requests from
// several goroutines, so observations are mutex-guarded.
type routeTracker struct {
	mu     sync.Mutex
	order  []string
	byName map[string][]float64 // milliseconds
	mem    runtime.MemStats
}

func newRouteTracker() *routeTracker {
	return &routeTracker{byName: map[string][]float64{}}
}

// observe records one request's wall time under the route label.
func (tr *routeTracker) observe(route string, d time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if _, ok := tr.byName[route]; !ok {
		tr.order = append(tr.order, route)
	}
	tr.byName[route] = append(tr.byName[route], float64(d)/float64(time.Millisecond))
}

// phaseAllocs returns the process-wide (mallocs, bytes) delta since
// the previous call. Against a remote -addr this is the loadgen's own
// encode/decode cost (a proxy for wire-level garbage per phase); in
// the default in-process mode it includes the server's work too.
func (tr *routeTracker) phaseAllocs() (uint64, uint64) {
	prevM, prevB := tr.mem.Mallocs, tr.mem.TotalAlloc
	runtime.ReadMemStats(&tr.mem)
	return tr.mem.Mallocs - prevM, tr.mem.TotalAlloc - prevB
}

// report prints per-route request counts and latency percentiles.
func (tr *routeTracker) report() {
	fmt.Printf("per-route latency (client-observed):\n")
	for _, route := range tr.order {
		ms := tr.byName[route]
		fmt.Printf("  %-38s n=%-5d p50=%.3fms p95=%.3fms p99=%.3fms\n",
			route, len(ms), stats.Quantile(ms, 0.50), stats.Quantile(ms, 0.95), stats.Quantile(ms, 0.99))
	}
}

func main() {
	addr := flag.String("addr", "", "server address (empty = run an in-process server)")
	n := flag.Int("n", 100000, "data vectors to ingest")
	q := flag.Int("q", 1000, "queries to run")
	d := flag.Int("d", 16, "vector dimension")
	k := flag.Int("k", 10, "top-k per query")
	batch := flag.Int("batch", 1000, "queries per search request")
	chunk := flag.Int("chunk", 20000, "records per ingest request")
	shards := flag.Int("shards", 4, "shards for the collection")
	index := flag.String("index", "exact", "index kind: exact | normscan (the kinds whose answers an exact scan verifies)")
	precision := flag.String("precision", "f64", "collection storage precision: f64 | int8")
	sigma := flag.Float64("sigma", 0.5, "latent-factor popularity skew")
	seed := flag.Uint64("seed", 1, "workload seed")
	verify := flag.Bool("verify", true, "check sharded results against a local exact scan")
	mixed := flag.Bool("mixed", false, "ingest-heavy mixed workload: concurrent ingest chunks + searches against the moving collection")
	ingestWorkers := flag.Int("ingest-workers", 4, "concurrent ingest requests in -mixed mode")
	mutateOps := flag.Int("mutate-ops", 300, "upsert/delete batches after the -mixed ingest (0 disables)")
	mutatePass := flag.Int("mutate-pass", 0, "after a plain ingest, apply this many deterministic upsert/delete batches; -skip-ingest recomputes the same pass locally, so a restarted server is verified against the post-mutation state")
	zipfA := flag.Float64("zipf", 1.1, "Zipf exponent for mutated record ids")
	skipIngest := flag.Bool("skip-ingest", false, "skip ingest; verify the server's existing data (e.g. after a restart)")
	retries := flag.Int("retries", 0, "client-side retries per request on 429/503, with capped exponential backoff + jitter honoring Retry-After (0 disables)")
	slo := flag.Bool("slo", false, "SLO mode: status-aware multi-tenant traffic with an overload phase (see slo.go)")
	sloSteady := flag.Duration("slo-steady", 5*time.Second, "steady-phase duration in -slo mode")
	sloOverload := flag.Duration("slo-overload", 5*time.Second, "overload-phase duration in -slo mode")
	sloClients := flag.Int("slo-clients", 4, "steady-phase concurrent clients in -slo mode")
	sloOverloadClients := flag.Int("slo-overload-clients", 64, "extra clients during the overload phase")
	sloTenants := flag.Int("slo-tenants", 4, "tenant collections in -slo mode (Zipf-skewed traffic)")
	sloTimeoutMS := flag.Int("slo-timeout-ms", 200, "timeout_ms attached to every -slo search")
	sloMaxInflight := flag.Int("slo-max-inflight", 4, "in-process server per-collection admission cap in -slo mode")
	sloMaxQueue := flag.Int("slo-max-queue", 8, "in-process server admission queue depth in -slo mode")
	sloReportPath := flag.String("slo-report", "", "write the JSON SLO report to this file")
	sloRequireShed := flag.Bool("slo-require-shed", false, "fail unless the overload phase saw 429s with Retry-After")
	flag.Parse()
	retryMax = *retries
	switch *index {
	case server.KindExact, server.KindNormScan:
	default:
		log.Fatalf("loadgen: -index %q is not verifiable here: every answer is checked against an exact scan, so -index takes exact or normscan (bench/'s planted-alsh workload measures alsh against its recall and Definition 1 bounds)", *index)
	}
	switch *precision {
	case server.PrecisionF64, server.PrecisionI8:
	default:
		log.Fatalf("loadgen: unknown -precision %q (want f64 or int8)", *precision)
	}
	// The spec omits the default precision so requests (and durable
	// manifests) stay byte-identical to pre-precision runs.
	specPrecision := *precision
	if specPrecision == server.PrecisionF64 {
		specPrecision = ""
	}
	if *slo {
		os.Exit(runSLO(sloFlags{
			addr: *addr, n: *n, d: *d, k: *k,
			index: *index, shards: *shards, seed: *seed, precision: specPrecision,
			tenants: *sloTenants, zipfA: *zipfA, timeoutMS: *sloTimeoutMS,
			steady: *sloSteady, overload: *sloOverload,
			clients: *sloClients, overloadClients: *sloOverloadClients,
			maxInflight: *sloMaxInflight, maxQueue: *sloMaxQueue,
			report: *sloReportPath, requireShed: *sloRequireShed,
		}))
	}
	if *mixed && *skipIngest {
		log.Fatal("loadgen: -mixed and -skip-ingest are mutually exclusive")
	}
	if *mixed && *mutatePass > 0 {
		log.Fatal("loadgen: -mutate-pass applies to the plain workload; -mixed has its own mutation storm (-mutate-ops)")
	}

	base := *addr
	if base == "" {
		srv := server.New(server.Config{DefaultShards: *shards})
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("loadgen: listen: %v", err)
		}
		hs := &http.Server{Handler: server.NewHandler(srv)}
		go func() {
			if err := hs.Serve(ln); err != http.ErrServerClosed {
				log.Printf("loadgen: serve: %v", err)
			}
		}()
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Printf("in-process ipsd at %s\n", base)
	} else if len(base) >= 4 && base[:4] != "http" {
		base = "http://" + base
	}

	rng := xrand.New(*seed)
	fmt.Printf("generating latent-factor workload: n=%d q=%d d=%d sigma=%g\n", *n, *q, *d, *sigma)
	lf := dataset.NewLatentFactor(rng, *n, *q, *d, *sigma)
	lf.ScaleItemsToUnitBall()

	client := &http.Client{Timeout: 5 * time.Minute}
	collection := "bench"
	tr := newRouteTracker()
	timed := func(route, method, url string, body, out any) error {
		t0 := time.Now()
		err := call(client, method, url, body, out)
		tr.observe(route, time.Since(t0))
		return err
	}
	tr.phaseAllocs() // baseline the client-side allocation counters

	ingestChunk := func(lo, hi int) error {
		recs := make([]server.RecordJSON, hi-lo)
		for i := lo; i < hi; i++ {
			id := i
			recs[i-lo] = server.RecordJSON{ID: &id, Vec: lf.Items[i]}
		}
		req := server.IngestRequest{
			Index:   &server.IndexSpec{Kind: *index, Precision: specPrecision},
			Shards:  *shards,
			Records: recs,
		}
		var resp server.IngestResponse
		return timed("PUT /collections/{name}", http.MethodPut, base+"/collections/"+collection, req, &resp)
	}

	// mutatedLive, when non-nil, is the tracker's view of the collection
	// after a mutation phase: mutatedLive[id] is the record's current
	// vector, nil if deleted. The verification pass then runs against
	// this instead of the pristine workload.
	var mutatedLive [][]float64
	applyOverlay := func(overlay map[int][]float64) {
		mutatedLive = make([][]float64, *n)
		for id := range mutatedLive {
			mutatedLive[id] = lf.Items[id]
		}
		for id, v := range overlay {
			mutatedLive[id] = v // nil marks a delete
		}
	}

	// The deterministic mutation pass is derived entirely from the
	// flags, so a -skip-ingest run against a restarted server recomputes
	// the exact state the mutating run left on disk.
	var passPlan []mutOp
	expectedRecords := *n
	if *mutatePass > 0 {
		var overlay map[int][]float64
		passPlan, overlay = mutationPlan(*seed+0xfeed, *n, *d, *mutatePass, *zipfA)
		for _, v := range overlay {
			if v == nil {
				expectedRecords--
			}
		}
		applyOverlay(overlay)
	}

	switch {
	case *skipIngest:
		// The server is expected to already hold the workload (a
		// restarted durable ipsd); check the record count matches
		// before trusting the search comparison below.
		var st server.Stats
		if err := timed("GET /stats", http.MethodGet, base+"/stats", nil, &st); err != nil {
			log.Fatalf("loadgen: stats: %v", err)
		}
		cs, ok := st.Collections[collection]
		if !ok || cs.Records != expectedRecords {
			log.Fatalf("loadgen: -skip-ingest: server has %d records in %q, want %d", cs.Records, collection, expectedRecords)
		}
		fmt.Printf("skipping ingest: server already holds %d records in %q\n", cs.Records, collection)

	case *mixed:
		// Ingest-heavy mixed workload: ingest chunks race each other
		// (server-side they serialize on the collection's ingest lock
		// and WAL) while a searcher hammers the moving collection.
		type span struct{ lo, hi int }
		var chunks []span
		for lo := 0; lo < *n; lo += *chunk {
			hi := lo + *chunk
			if hi > *n {
				hi = *n
			}
			chunks = append(chunks, span{lo, hi})
		}
		// Create the collection up front (empty ingest) so concurrent
		// first-chunk races cannot fight over the index spec.
		if err := ingestChunk(0, 0); err != nil {
			log.Fatalf("loadgen: mixed: create: %v", err)
		}
		var next atomic.Int64
		var liveSearches atomic.Int64
		ingestDone := make(chan struct{})
		var searchWG sync.WaitGroup
		searchWG.Add(1)
		go func() {
			defer searchWG.Done()
			qb := min(*batch, *q)
			queries := make([][]float64, qb)
			for i := range queries {
				queries[i] = lf.Users[i]
			}
			for {
				select {
				case <-ingestDone:
					return
				default:
				}
				var resp server.SearchResponse
				err := timed("POST /collections/{name}/search (mixed)", http.MethodPost,
					base+"/collections/"+collection+"/search",
					server.SearchRequest{Queries: queries, K: *k}, &resp)
				if err != nil {
					log.Fatalf("loadgen: mixed search: %v", err)
				}
				liveSearches.Add(int64(qb))
			}
		}()
		ingestStart := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < *ingestWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ci := int(next.Add(1)) - 1
					if ci >= len(chunks) {
						return
					}
					c := chunks[ci]
					if err := ingestChunk(c.lo, c.hi); err != nil {
						log.Fatalf("loadgen: mixed ingest [%d,%d): %v", c.lo, c.hi, err)
					}
				}
			}()
		}
		wg.Wait()
		ingestDur := time.Since(ingestStart)

		// Mutation storm: upsert/delete batches over Zipf-skewed ids
		// while the searcher keeps running. Workers own disjoint id
		// stripes (id ≡ w mod workers), so each id's mutation order is
		// the issuing worker's program order and the tracker's final
		// state is exact despite the concurrency.
		var upserted, deleted int64
		if *mutateOps > 0 {
			W := *ingestWorkers
			if W > *mutateOps {
				W = *mutateOps
			}
			stripes := make([]map[int][]float64, W)
			mutStart := time.Now()
			var mwg sync.WaitGroup
			for w := 0; w < W; w++ {
				mwg.Add(1)
				go func(w int) {
					defer mwg.Done()
					stripe := map[int][]float64{}
					stripes[w] = stripe
					mrng := xrand.New(*seed + 0x5eed + uint64(w))
					stripeN := (*n - w + W - 1) / W // ids w, w+W, w+2W, … below n
					if stripeN <= 0 {
						return
					}
					zipf := xrand.NewZipf(mrng, stripeN, *zipfA)
					ops := *mutateOps / W
					if w < *mutateOps%W {
						ops++
					}
					for op := 0; op < ops; op++ {
						// Draw a batch of distinct skewed ids; the draw cap
						// keeps heavy skew from stalling on duplicates.
						want := 1 + mrng.Intn(16)
						batch := map[int]struct{}{}
						for tries := 0; len(batch) < want && tries < 200; tries++ {
							batch[zipf.Draw()*W+w] = struct{}{}
						}
						if mrng.Float64() < 0.55 {
							recs := make([]server.RecordJSON, 0, len(batch))
							for id := range batch {
								id := id
								v := mrng.NormalVec(*d)
								recs = append(recs, server.RecordJSON{ID: &id, Vec: v})
								stripe[id] = v
							}
							var resp server.UpsertResponse
							if err := timed("POST /collections/{name}/vectors", http.MethodPost,
								base+"/collections/"+collection+"/vectors",
								server.IngestRequest{Records: recs}, &resp); err != nil {
								log.Fatalf("loadgen: mixed upsert: %v", err)
							}
							atomic.AddInt64(&upserted, int64(len(recs)))
						} else {
							ids := make([]int, 0, len(batch))
							for id := range batch {
								ids = append(ids, id)
								stripe[id] = nil
							}
							var resp server.DeleteVectorsResponse
							if err := timed("POST /collections/{name}/vectors/delete", http.MethodPost,
								base+"/collections/"+collection+"/vectors/delete",
								server.DeleteVectorsRequest{IDs: ids}, &resp); err != nil {
								log.Fatalf("loadgen: mixed delete: %v", err)
							}
							atomic.AddInt64(&deleted, int64(len(ids)))
						}
					}
				}(w)
			}
			mwg.Wait()
			mutDur := time.Since(mutStart)
			mutatedLive = make([][]float64, *n)
			for id := range mutatedLive {
				mutatedLive[id] = lf.Items[id]
			}
			for _, stripe := range stripes {
				for id, v := range stripe {
					mutatedLive[id] = v // nil marks a delete
				}
			}
			fmt.Printf("mixed: %d mutation batches (%d upserts, %d deletes, zipf a=%g) in %v\n",
				*mutateOps, upserted, deleted, *zipfA, mutDur.Round(time.Millisecond))
		}

		close(ingestDone)
		searchWG.Wait()
		fmt.Printf("mixed: ingested %d vectors in %v (%.0f vec/s, %d ingest workers) with %d live queries alongside (index=%s)\n",
			*n, ingestDur.Round(time.Millisecond), float64(*n)/ingestDur.Seconds(),
			*ingestWorkers, liveSearches.Load(), *index)
		if m, b := tr.phaseAllocs(); true {
			fmt.Printf("  process allocs during mixed phase: %d mallocs, %.1f MB\n", m, float64(b)/(1<<20))
		}

	default:
		// Ingest in chunks.
		ingestStart := time.Now()
		for lo := 0; lo < *n; lo += *chunk {
			hi := lo + *chunk
			if hi > *n {
				hi = *n
			}
			if err := ingestChunk(lo, hi); err != nil {
				log.Fatalf("loadgen: ingest [%d,%d): %v", lo, hi, err)
			}
		}
		ingestDur := time.Since(ingestStart)
		fmt.Printf("ingested %d vectors in %v (%.0f vec/s) across %d shards (index=%s)\n",
			*n, ingestDur.Round(time.Millisecond), float64(*n)/ingestDur.Seconds(), *shards, *index)
		if m, b := tr.phaseAllocs(); true {
			fmt.Printf("  process allocs during ingest: %d mallocs, %.1f MB\n", m, float64(b)/(1<<20))
		}

		// Deterministic mutation pass: replay the precomputed plan so
		// the durable state matches what -skip-ingest will recompute.
		if len(passPlan) > 0 {
			mutStart := time.Now()
			var up, del int
			for _, op := range passPlan {
				if op.recs != nil {
					var resp server.UpsertResponse
					if err := timed("POST /collections/{name}/vectors", http.MethodPost,
						base+"/collections/"+collection+"/vectors",
						server.IngestRequest{Records: op.recs}, &resp); err != nil {
						log.Fatalf("loadgen: mutate-pass upsert: %v", err)
					}
					up += len(op.recs)
				} else {
					var resp server.DeleteVectorsResponse
					if err := timed("POST /collections/{name}/vectors/delete", http.MethodPost,
						base+"/collections/"+collection+"/vectors/delete",
						server.DeleteVectorsRequest{IDs: op.ids}, &resp); err != nil {
						log.Fatalf("loadgen: mutate-pass delete: %v", err)
					}
					del += len(op.ids)
				}
			}
			fmt.Printf("mutation pass: %d batches (%d upserts, %d delete requests) in %v\n",
				len(passPlan), up, del, time.Since(mutStart).Round(time.Millisecond))
		}
	}

	// Batched searches.
	type batchTiming struct {
		queries int
		dur     time.Duration
	}
	var timings []batchTiming
	results := make([][]server.Hit, *q)
	searchStart := time.Now()
	for lo := 0; lo < *q; lo += *batch {
		hi := lo + *batch
		if hi > *q {
			hi = *q
		}
		queries := make([][]float64, hi-lo)
		for i := lo; i < hi; i++ {
			queries[i-lo] = lf.Users[i]
		}
		var resp server.SearchResponse
		t0 := time.Now()
		err := timed("POST /collections/{name}/search", http.MethodPost,
			base+"/collections/"+collection+"/search",
			server.SearchRequest{Queries: queries, K: *k}, &resp)
		if err != nil {
			log.Fatalf("loadgen: search [%d,%d): %v", lo, hi, err)
		}
		timings = append(timings, batchTiming{queries: hi - lo, dur: time.Since(t0)})
		copy(results[lo:hi], resp.Results)
	}
	searchDur := time.Since(searchStart)
	fmt.Printf("ran %d top-%d queries in %v (%.0f q/s, %d per request)\n",
		*q, *k, searchDur.Round(time.Millisecond), float64(*q)/searchDur.Seconds(), *batch)
	for _, bt := range timings {
		fmt.Printf("  batch of %d: %v (%.2f ms/query)\n",
			bt.queries, bt.dur.Round(time.Microsecond),
			float64(bt.dur)/float64(time.Millisecond)/float64(bt.queries))
	}

	if m, b := tr.phaseAllocs(); true {
		fmt.Printf("  process allocs during search: %d mallocs, %.1f MB\n", m, float64(b)/(1<<20))
	}

	// Server-side stats.
	var st server.Stats
	if err := timed("GET /stats", http.MethodGet, base+"/stats", nil, &st); err != nil {
		log.Fatalf("loadgen: stats: %v", err)
	}
	cs := st.Collections[collection]
	fmt.Printf("server stats: records=%d tombstoned=%d compactions=%d version=%d queries=%d latency p50=%.3fms p90=%.3fms p99=%.3fms\n",
		cs.Records, cs.Tombstoned, cs.Compactions, cs.Version, cs.Queries,
		cs.Latency.P50, cs.Latency.P90, cs.Latency.P99)
	for _, sh := range cs.Shards {
		fmt.Printf("  shard %d: %d records (%d live, %d tombstoned), %d queries\n",
			sh.ID, sh.Records, sh.Live, sh.Tombstoned, sh.Queries)
	}
	fmt.Printf("cache: size=%d hits=%d misses=%d invalidations=%d\n",
		st.Cache.Size, st.Cache.Hits, st.Cache.Misses, st.Cache.Invalidations)
	tr.report()
	if retryMax > 0 {
		fmt.Printf("client retries: %d issued (429/503, backoff capped at %v, Retry-After honored)\n",
			retriesIssued.Load(), retryMaxBackoff)
	}

	// The tracker's live set and the server's must agree exactly: the
	// count here, the content via the verified search pass below.
	verifyIDs, verifyItems := make([]int, 0, *n), make([]vec.Vector, 0, *n)
	if mutatedLive != nil {
		for id, v := range mutatedLive {
			if v != nil {
				verifyIDs = append(verifyIDs, id)
				verifyItems = append(verifyItems, v)
			}
		}
		if cs.Records != len(verifyIDs) {
			log.Fatalf("loadgen: FAILED: server holds %d live records, tracker says %d", cs.Records, len(verifyIDs))
		}
		fmt.Printf("live-set count matches tracker: %d records after mutations\n", len(verifyIDs))
	} else {
		for id, v := range lf.Items {
			verifyIDs = append(verifyIDs, id)
			verifyItems = append(verifyItems, v)
		}
	}

	if !*verify {
		return
	}

	// Verify: at every precision — for int8 too, whose certified
	// candidates hold the f64 top k — the sharded answers must be
	// identical to the unsharded exact scan (single-shard ground truth
	// computed locally over the live set; after a mutation storm, the
	// tracker's view of it).
	fmt.Printf("verifying against local exact scan (precision=%s)...\n", *precision)
	var mismatches atomic.Int64
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				qi := int(next.Add(1)) - 1
				if qi >= *q {
					return
				}
				want := exactTopK(verifyIDs, verifyItems, lf.Users[qi], *k)
				got := results[qi]
				ok := len(got) == len(want)
				if ok {
					for i := range want {
						if got[i] != want[i] {
							ok = false
							break
						}
					}
				}
				// Top-1 must also agree with the mips package baseline.
				if ok && len(got) > 0 && len(verifyItems) > 0 {
					ls := mips.LinearScan(verifyItems, lf.Users[qi])
					if got[0].ID != verifyIDs[ls.Index] || got[0].Score != ls.Value {
						ok = false
					}
				}
				if !ok {
					if mismatches.Add(1) <= 3 {
						log.Printf("loadgen: query %d mismatch:\n  got  %v\n  want %v", qi, got, want)
					}
				}
			}
		}()
	}
	wg.Wait()
	if m := mismatches.Load(); m > 0 {
		log.Printf("loadgen: FAILED: %d/%d queries differ from the exact scan", m, *q)
		os.Exit(1)
	}
	fmt.Printf("verified: all %d sharded top-%d answers identical to the single-shard exact scan\n", *q, *k)
}

// mutOp is one precomputed mutation batch: recs non-nil for an
// upsert, ids for a delete.
type mutOp struct {
	recs []server.RecordJSON
	ids  []int
}

// mutationPlan deterministically derives a sequence of upsert/delete
// batches over Zipf-skewed ids, plus the overlay they leave behind
// (id → current vector, nil = deleted). Both the mutating run and the
// later -skip-ingest verification recompute the identical plan from
// the flags alone, which is what makes a kill/restart cycle checkable
// end to end. Batch ids are sorted before the per-id vectors are
// drawn, so map iteration order cannot perturb the RNG stream.
func mutationPlan(seed uint64, n, d, ops int, a float64) ([]mutOp, map[int][]float64) {
	rng := xrand.New(seed)
	zipf := xrand.NewZipf(rng, n, a)
	overlay := map[int][]float64{}
	plan := make([]mutOp, 0, ops)
	for op := 0; op < ops; op++ {
		want := 1 + rng.Intn(16)
		batch := map[int]struct{}{}
		for tries := 0; len(batch) < want && tries < 200; tries++ {
			batch[zipf.Draw()] = struct{}{}
		}
		ids := make([]int, 0, len(batch))
		for id := range batch {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		if rng.Float64() < 0.55 {
			recs := make([]server.RecordJSON, len(ids))
			for i, id := range ids {
				id := id
				v := rng.NormalVec(d)
				recs[i] = server.RecordJSON{ID: &id, Vec: v}
				overlay[id] = v
			}
			plan = append(plan, mutOp{recs: recs})
		} else {
			for _, id := range ids {
				overlay[id] = nil
			}
			plan = append(plan, mutOp{ids: ids})
		}
	}
	return plan, overlay
}

// exactTopK is the unsharded ground truth with the server's canonical
// ordering (score descending, ID ascending on ties); ids[i] is the
// record id of items[i], in ascending order.
func exactTopK(ids []int, items []vec.Vector, q vec.Vector, k int) []server.Hit {
	hits := make([]server.Hit, 0, k+1)
	for i, p := range items {
		v := vec.Dot(p, q)
		if len(hits) == k && v < hits[k-1].Score {
			continue
		}
		hits = append(hits, server.Hit{ID: ids[i], Score: v})
		sort.Slice(hits, func(a, b int) bool {
			if hits[a].Score != hits[b].Score {
				return hits[a].Score > hits[b].Score
			}
			return hits[a].ID < hits[b].ID
		})
		if len(hits) > k {
			hits = hits[:k]
		}
	}
	return hits
}

// call performs one JSON round-trip, decoding an {"error": ...} body
// into a Go error. Every request carries a client-minted W3C
// traceparent (one trace id per logical request, a fresh span id per
// retry attempt), so a traced server stitches the loadgen's requests
// into its /debug plane. With -retries > 0 the transient statuses
// (429/503) are absorbed with capped exponential backoff + jitter,
// honoring the server's Retry-After hint, before the final status is
// reported.
func call(client *http.Client, method, url string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	traceID, _ := trace.NewIDs()
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, url, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		_, spanID := trace.NewIDs()
		req.Header.Set("traceparent", trace.Format(traceID, spanID))
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		if retryableStatus(resp.StatusCode) && attempt < retryMax {
			ra := resp.Header.Get("Retry-After")
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			retriesIssued.Add(1)
			time.Sleep(retryDelay(attempt+1, ra))
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&e)
			if e.Error == "" {
				e.Error = resp.Status
			}
			return fmt.Errorf("%s %s: %s", method, url, e.Error)
		}
		if out != nil {
			return json.NewDecoder(resp.Body).Decode(out)
		}
		return nil
	}
}
