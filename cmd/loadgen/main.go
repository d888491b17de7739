// Command loadgen is ipsd's acceptance client. It replays the paper's
// motivating regime, a latent-factor recommender workload with skewed
// item norms, against a server over HTTP and checks that every sharded
// top-k answer is identical, bit for bit, to an unsharded exact scan of
// the records the server should hold, and that it holds exactly that
// many. bench/ measures the server; loadgen verifies it.
//
// With no -addr it serves an in-process ipsd, so
//
//	loadgen -n 100000 -q 1000 -shards 4 -k 10
//
// is a self-contained end-to-end acceptance run.
//
// -mutate-pass N follows the ingest with N upsert/delete batches over
// Zipf-skewed ids. The batches are drawn from the flags alone
// (mutationPlan), so the live set they leave is known without asking
// the server. -mixed ingests and mutates on concurrent streams while a
// searcher queries the moving collection; stream w sends the records
// whose ids are ≡ w mod the stream count, so each id's writes arrive in
// plan order and the collection ends at the plan's live set whatever
// the interleaving.
//
// -skip-ingest assumes the server already holds that live set (after a
// restart recovered it from its data directory, say) and goes straight
// to the count and search checks, which makes a kill/restart cycle
// checkable end to end.
//
// -precision int8 runs the same checks on an int8 collection, whose
// re-ranked answers must be the f64 exact scan's. -slo runs the
// overload harness of slo.go instead.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// The workload's fixed shape.
const (
	collection = "bench"
	batch      = 1000 // queries per search request
	sigma      = 0.5  // latent-factor popularity skew
	seed       = 1    // workload seed
	zipfA      = 1.1  // Zipf exponent of mutated ids and of SLO tenants
	streams    = 4    // concurrent ingest and mutation streams under -mixed
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

// run replays the workload that args ask for, writes its progress to
// w and returns an error if any check fails.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "", "server address (empty = run an in-process server)")
	n := fs.Int("n", 100000, "data vectors to ingest")
	q := fs.Int("q", 1000, "queries to run")
	d := fs.Int("d", 16, "vector dimension")
	k := fs.Int("k", 10, "top-k per query")
	chunk := fs.Int("chunk", 20000, "records per ingest request")
	shards := fs.Int("shards", 4, "shards for the collection")
	precision := fs.String("precision", "f64", "collection storage precision: f64 | int8")
	mixed := fs.Bool("mixed", false, "ingest and mutate on concurrent streams while a searcher queries the moving collection")
	mutatePass := fs.Int("mutate-pass", 0, "upsert/delete batches after the ingest; -skip-ingest recomputes the same batches, so a restarted server is verified against the post-mutation state")
	skipIngest := fs.Bool("skip-ingest", false, "skip ingest and mutations; verify the server's existing data (e.g. after a restart)")
	retries := fs.Int("retries", 0, "client-side retries per request on 429/503, with capped exponential backoff + jitter honoring Retry-After (0 disables)")
	slo := fs.Bool("slo", false, "SLO mode: status-aware multi-tenant traffic with an overload phase (see slo.go)")
	sloSteady := fs.Duration("slo-steady", 5*time.Second, "steady-phase duration in -slo mode")
	sloOverload := fs.Duration("slo-overload", 5*time.Second, "overload-phase duration in -slo mode")
	sloClients := fs.Int("slo-clients", 4, "steady-phase concurrent clients in -slo mode")
	sloOverloadClients := fs.Int("slo-overload-clients", 64, "extra clients during the overload phase")
	sloTenants := fs.Int("slo-tenants", 4, "tenant collections in -slo mode (Zipf-skewed traffic)")
	sloTimeoutMS := fs.Int("slo-timeout-ms", 200, "timeout_ms attached to every -slo search")
	sloMaxInflight := fs.Int("slo-max-inflight", 4, "in-process server per-collection admission cap in -slo mode")
	sloMaxQueue := fs.Int("slo-max-queue", 8, "in-process server admission queue depth in -slo mode")
	sloReportPath := fs.String("slo-report", "", "write the JSON SLO report to this file")
	sloRequireShed := fs.Bool("slo-require-shed", false, "fail unless the overload phase saw 429s with Retry-After")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with the usage

	switch *precision {
	case server.PrecisionF64, server.PrecisionI8:
	default:
		return fmt.Errorf("unknown -precision %q (want f64 or int8)", *precision)
	}
	if *chunk <= 0 {
		return fmt.Errorf("-chunk %d: want a positive record count", *chunk)
	}
	// The spec omits the default precision so requests (and durable
	// manifests) stay byte-identical to pre-precision runs.
	spec := server.IndexSpec{Kind: server.KindExact, Precision: *precision}
	if spec.Precision == server.PrecisionF64 {
		spec.Precision = ""
	}

	cfg := server.Config{DefaultShards: *shards}
	if *slo {
		cfg.MaxInflight, cfg.MaxQueue, cfg.Seed = *sloMaxInflight, *sloMaxQueue, seed
	}
	base, stop, err := serve(*addr, cfg)
	if err != nil {
		return err
	}
	defer stop()
	if *addr == "" {
		fmt.Fprintf(w, "in-process ipsd at %s\n", base)
	}

	if *slo {
		return runSLO(w, newClient(30*time.Second, *retries), base, sloFlags{
			n: *n, d: *d, k: *k, shards: *shards, spec: spec,
			tenants: *sloTenants, timeoutMS: *sloTimeoutMS,
			steady: *sloSteady, overload: *sloOverload,
			clients: *sloClients, overloadClients: *sloOverloadClients,
			maxInflight: *sloMaxInflight, maxQueue: *sloMaxQueue,
			report: *sloReportPath, requireShed: *sloRequireShed,
		})
	}

	c := newClient(5*time.Minute, *retries)
	url := base + "/collections/" + collection
	fmt.Fprintf(w, "generating latent-factor workload: n=%d q=%d d=%d sigma=%g\n", *n, *q, *d, sigma)
	lf := dataset.NewLatentFactor(xrand.New(seed), *n, *q, *d, sigma)
	lf.ScaleItemsToUnitBall()
	plan := mutationPlan(seed+0xfeed, *n, *d, *mutatePass, zipfA)
	live := replay(lf.Items, plan)

	if !*skipIngest {
		width := 1
		if *mixed {
			width = streams
		}
		// Create the collection before any chunk or search, so concurrent
		// first chunks cannot fight over the index spec.
		create := server.IngestRequest{Index: &spec, Shards: *shards, Records: []server.RecordJSON{}}
		if err := c.call(http.MethodPut, url, create, nil); err != nil {
			return fmt.Errorf("create: %w", err)
		}
		var searches atomic.Int64
		done := make(chan struct{})
		searchErr := make(chan error, 1)
		if *mixed {
			go func() { searchErr <- c.searchUntil(done, url, lf.Users[:min(batch, *q)], *k, &searches) }()
		}
		err := c.putRecords(url, create, lf.Items, *chunk, width)
		if err == nil {
			err = c.mutate(url, plan, width)
		}
		if *mixed {
			close(done)
			err = errors.Join(err, <-searchErr)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "ingested %d vectors across %d shards on %d stream(s), then %d upsert/delete batches\n",
			*n, *shards, width, len(plan))
		if *mixed {
			fmt.Fprintf(w, "mixed: %d queries searched the moving collection alongside\n", searches.Load())
		}
	}

	// The plan's live set and the server's must agree exactly: the count
	// here, the content through the verified search pass below.
	ids, items := liveRows(live)
	var st server.Stats
	if err := c.call(http.MethodGet, base+"/stats", nil, &st); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if got := st.Collections[collection].Records; got != len(ids) {
		return fmt.Errorf("FAILED: server holds %d live records in %q, the plan leaves %d", got, collection, len(ids))
	}
	fmt.Fprintf(w, "live-set count matches the plan: %d records\n", len(ids))

	results := make([][]server.Hit, *q)
	for lo := 0; lo < *q; lo += batch {
		hi := min(lo+batch, *q)
		var resp server.SearchResponse
		req := server.SearchRequest{Queries: floats(lf.Users[lo:hi]), K: *k}
		if err := c.call(http.MethodPost, url+"/search", req, &resp); err != nil {
			return fmt.Errorf("search [%d,%d): %w", lo, hi, err)
		}
		copy(results[lo:hi], resp.Results)
	}
	if *retries > 0 {
		fmt.Fprintf(w, "client retries: %d issued (429/503, backoff capped at %v, Retry-After honored)\n",
			c.retried.Load(), retryMaxBackoff)
	}

	// At every precision — int8 too, whose certified candidates hold the
	// f64 top k — the sharded answers must be the unsharded exact scan's.
	fmt.Fprintf(w, "verifying against local exact scan (precision=%s)...\n", *precision)
	if bad := mismatches(w, results, lf.Users, ids, items, *k); bad > 0 {
		return fmt.Errorf("FAILED: %d/%d queries differ from the exact scan", bad, *q)
	}
	fmt.Fprintf(w, "verified: all %d sharded top-%d answers identical to the single-shard exact scan\n", *q, *k)
	return nil
}

// searchUntil sends queries as one batched search after another until
// done is closed, counting the queries answered in searched.
func (c *client) searchUntil(done <-chan struct{}, url string, queries []vec.Vector, k int, searched *atomic.Int64) error {
	req := server.SearchRequest{Queries: floats(queries), K: k}
	for {
		select {
		case <-done:
			return nil
		default:
		}
		if err := c.call(http.MethodPost, url+"/search", req, nil); err != nil {
			return fmt.Errorf("mixed search: %w", err)
		}
		searched.Add(int64(len(queries)))
	}
}

// putRecords ingests items under ids 0, 1, … in PUT requests of chunk
// records, on width concurrent streams; every request carries spec's
// index and shards.
func (c *client) putRecords(url string, spec server.IngestRequest, items []vec.Vector, chunk, width int) error {
	var next atomic.Int64
	errs := make([]error, width)
	var wg sync.WaitGroup
	for s := range width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= len(items) {
					return
				}
				hi := min(lo+chunk, len(items))
				req := spec
				req.Records = make([]server.RecordJSON, hi-lo)
				for i := lo; i < hi; i++ {
					id := i
					req.Records[i-lo] = server.RecordJSON{ID: &id, Vec: items[i]}
				}
				if err := c.call(http.MethodPut, url, req, nil); err != nil {
					errs[s] = fmt.Errorf("ingest [%d,%d): %w", lo, hi, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// mutate sends plan on width concurrent streams: stream s sends the
// part of each batch whose ids are ≡ s mod width, in plan order.
func (c *client) mutate(url string, plan []mutOp, width int) error {
	errs := make([]error, width)
	var wg sync.WaitGroup
	for s := range width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range stripe(plan, s, width) {
				var err error
				if op.vecs == nil {
					err = c.call(http.MethodPost, url+"/vectors/delete", server.DeleteVectorsRequest{IDs: op.ids}, nil)
				} else {
					recs := make([]server.RecordJSON, len(op.ids))
					for i := range op.ids {
						recs[i] = server.RecordJSON{ID: &op.ids[i], Vec: op.vecs[i]}
					}
					err = c.call(http.MethodPost, url+"/vectors", server.IngestRequest{Records: recs}, nil)
				}
				if err != nil {
					errs[s] = fmt.Errorf("mutate: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// mutOp is one mutation batch: an upsert of vecs[i] under ids[i], or a
// delete of ids when vecs is nil.
type mutOp struct {
	ids  []int
	vecs []vec.Vector
}

// mutationPlan deterministically draws ops upsert/delete batches over
// Zipf-skewed ids below n. Both the mutating run and a later
// -skip-ingest run recompute the identical plan from the flags alone,
// which is what makes a kill/restart cycle checkable end to end. Batch
// ids are sorted before the per-id vectors are drawn, so map iteration
// order cannot perturb the RNG stream.
func mutationPlan(seed uint64, n, d, ops int, a float64) []mutOp {
	if ops == 0 {
		return nil
	}
	rng := xrand.New(seed)
	zipf := xrand.NewZipf(rng, n, a)
	plan := make([]mutOp, 0, ops)
	for range ops {
		want := 1 + rng.Intn(16)
		drawn := map[int]struct{}{}
		for tries := 0; len(drawn) < want && tries < 200; tries++ {
			drawn[zipf.Draw()] = struct{}{}
		}
		op := mutOp{ids: make([]int, 0, len(drawn))}
		for id := range drawn {
			op.ids = append(op.ids, id)
		}
		sort.Ints(op.ids)
		if rng.Float64() < 0.55 {
			op.vecs = make([]vec.Vector, len(op.ids))
			for i := range op.ids {
				op.vecs[i] = rng.NormalVec(d)
			}
		}
		plan = append(plan, op)
	}
	return plan
}

// stripe returns the part of plan whose ids are ≡ s mod width, in plan
// order, leaving out batches with none of them. Keying on the id alone
// keeps every write of one id in one stream.
func stripe(plan []mutOp, s, width int) []mutOp {
	var part []mutOp
	for _, op := range plan {
		var mine mutOp
		for i, id := range op.ids {
			if id%width != s {
				continue
			}
			mine.ids = append(mine.ids, id)
			if op.vecs != nil {
				mine.vecs = append(mine.vecs, op.vecs[i])
			}
		}
		if len(mine.ids) > 0 {
			part = append(part, mine)
		}
	}
	return part
}

// replay applies ops in order to records 0…len(items)-1, which start
// as items: live[id] is record id's vector, nil once deleted.
func replay(items []vec.Vector, ops []mutOp) []vec.Vector {
	live := append([]vec.Vector(nil), items...)
	for _, op := range ops {
		for i, id := range op.ids {
			live[id] = nil
			if op.vecs != nil {
				live[id] = op.vecs[i]
			}
		}
	}
	return live
}

// liveRows returns the ids of live's records, ascending, and their
// vectors.
func liveRows(live []vec.Vector) ([]int, []vec.Vector) {
	ids, items := make([]int, 0, len(live)), make([]vec.Vector, 0, len(live))
	for id, v := range live {
		if v != nil {
			ids = append(ids, id)
			items = append(items, v)
		}
	}
	return ids, items
}

// mismatches counts the queries whose results differ from exactTopK
// over the live rows, on one goroutine per CPU, and writes the first
// three to w.
func mismatches(w io.Writer, results [][]server.Hit, queries []vec.Vector, ids []int, items []vec.Vector, k int) int64 {
	var bad, next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := int(next.Add(1)) - 1; qi < len(results); qi = int(next.Add(1)) - 1 {
				want, got := exactTopK(ids, items, queries[qi], k), results[qi]
				same := len(got) == len(want)
				for i := 0; same && i < len(want); i++ {
					same = got[i] == want[i]
				}
				if !same && bad.Add(1) <= 3 {
					mu.Lock()
					fmt.Fprintf(w, "query %d mismatch:\n  got  %v\n  want %v\n", qi, got, want)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return bad.Load()
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

// floats converts vectors to the wire's [][]float64.
func floats(vs []vec.Vector) [][]float64 {
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}
