package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/flat"
	"repro/internal/join"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vec"
)

// layerMetrics is every per-layer metric, in the order BENCHMARK.json
// lists them. A run prints all of them: a layer the workload does not
// exercise (persist without a data directory, lsh without an ALSH
// index) reads zero.
var layerMetrics = []struct{ name, unit string }{
	// Search ladder: the same queries down each layer's public entry.
	{"flat.topk_ms", "ms"},
	{"server.search_one_ms", "ms"},
	{"server.search_inproc_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.http_ms", "ms"},
	{"server.fanout_merge_self_ms", "ms"},
	{"server.api_self_ms", "ms"},
	{"server.json_self_ms", "ms"},
	{"server.net_self_ms", "ms"},
	{"server.residual_ratio", "ratio"},
	{"server.ladder_violations", "count"},
	// Batch and join.
	{"flat.topk_multi_qps", "queries/s"},
	{"server.batch_inproc_qps", "queries/s"},
	{"join.engine_mpairs_per_s", "Mpairs/s"},
	{"server.join_inproc_mpairs_per_s", "Mpairs/s"},
	// Mutate and ingest.
	{"flat.clone_append_ms", "ms"},
	{"flat.index_rebuild_ms", "ms"},
	{"persist.wal_append_ms", "ms"},
	{"persist.wal_fsync_ms", "ms"},
	{"server.upsert_inproc_ms", "ms"},
	{"server.upsert_handler_ms", "ms"},
	{"server.upsert_alloc_bytes_per_vector", "B"},
	{"server.ingest_alloc_bytes_per_vector", "B"},
	{"server.ingest_inproc_vps", "vectors/s"},
	{"server.ingest_http_vps", "vectors/s"},
	{"server.setup_cold_s", "s"},
	// Storage tiers on the workload's own rows.
	{"flat.membw_gbps", "GB/s"},
	{"flat.topk_f64_gbps", "GB/s"},
	{"flat.topk_f32_gbps", "GB/s"},
	{"flat.topk_i8_gbps", "GB/s"},
	{"flat.normscan_scanned_frac", "ratio"},
	{"flat.masked25_ms", "ms"},
	// Counts from explain and Stats.
	{"flat.rows_scanned_per_query", "count"},
	{"flat.cs_pruned_block_frac", "ratio"},
	{"server.rerank_candidates_per_query", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_hit_ms", "ms"},
	{"server.cache_miss_ms", "ms"},
	{"server.compactions", "count"},
	{"server.vector_bytes_per_vector", "B"},
	// Persistence (durable workloads only).
	{"persist.wal_append_mbps", "MB/s"},
	{"persist.checkpoint_s", "s"},
	{"persist.recover_s", "s"},
	{"persist.disk_bytes_per_vector", "B"},
	{"persist.wal_bytes_per_user_byte", "ratio"},
	// LSH (ALSH workloads only).
	{"lsh.build_ms", "ms"},
	{"lsh.candidates_per_query", "count"},
	{"lsh.candidates_ms", "ms"},
	{"lsh.argmax_recall", "ratio"},
	{"lsh.guarantee_rate", "ratio"},
	// Tails and plumbing.
	{"server.http_search_p50_ms", "ms"},
	{"server.http_search_p99_ms", "ms"},
	{"server.http_mutate_p50_ms", "ms"},
	{"server.http_mutate_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"bench.canary_ms", "ms"},
	{"bench.host_noise_ratio", "ratio"},
}

// readSum keeps the read-sum loop's result alive.
var readSum float64

type layerResult struct {
	metrics []metric
	report  []string
}

// tracer is the traced pass in progress.
type tracer struct {
	ss   *session
	rec  *recorder
	vals map[string]float64
	out  *layerResult

	s       *server.Server
	e       *endpoint
	fl      *flatLayer
	pool    *server.Pool
	queries []vec.Vector // the fixed recallSet queries
}

func (t *tracer) ms(name string, seconds []float64) { t.vals[name] = 1e3 * median(seconds) }

// reps shrinks a sample count with the requested run length: full at
// the committed --seconds, proportionally fewer below it (the tests run
// at a tenth), never under floor.
func (t *tracer) reps(full, floor int) int {
	n := full * t.ss.o.seconds / defaultSeconds
	return min(max(n, floor), full)
}

// nudge returns q with its first component moved by ulps units in the
// last place. The answer does not change, the cache key does: every
// rung of the ladder pays a genuine cache miss on the same query.
func nudge(q vec.Vector, ulps int) vec.Vector {
	c := q.Clone()
	for i := 0; i < ulps; i++ {
		c[0] = math.Nextafter(c[0], math.Inf(1))
	}
	return c
}

func nudgeAll(qs []vec.Vector, ulps int) []vec.Vector {
	out := make([]vec.Vector, len(qs))
	for i, q := range qs {
		out[i] = nudge(q, ulps)
	}
	return out
}

// runLayers is the traced pass: it replays a fixed sample of the
// end-to-end operations down a ladder of each layer's public functions,
// recording a span around every call, and writes the spans out after
// the last operation.
func (ss *session) runLayers() (*layerResult, error) {
	// The pass loads its own server from the generated inputs, so the
	// journal (and with it the verification mirror) starts over.
	ss.journal, ss.plan.revive = nil, nil
	t := &tracer{ss: ss, rec: newRecorder(), vals: map[string]float64{}, out: &layerResult{},
		queries: ss.in.queries[:recallSet]}
	steps := []func() error{
		t.setUp, t.ladder, t.tracingOverhead, t.batchAndJoin, t.tiers,
		t.counts, t.mutate, t.persist, t.lsh, t.replay,
	}
	var err error
	for _, step := range steps {
		ss.canary.sample()
		if err = step(); err != nil {
			break
		}
	}
	if t.e != nil {
		t.e.close()
	}
	if t.s != nil {
		t.s.Close()
	}
	if err != nil {
		return nil, err
	}
	if err := t.rec.write(ss.o.outDir, ss.w.name, ss.o.seed); err != nil {
		return nil, err
	}
	v := ss.verify()
	t.vals["lsh.argmax_recall"] = v.argmaxRecall
	t.vals["lsh.guarantee_rate"] = v.guaranteeRate
	t.vals["bench.canary_ms"] = 1e3 * median(ss.canary.samples)
	t.vals["bench.host_noise_ratio"] = ss.canary.noise()
	for _, m := range layerMetrics {
		t.out.metrics = append(t.out.metrics, metric{m.name, m.unit, t.vals[m.name]})
	}
	return t.out, nil
}

// setUp loads the server the rest of the pass drives. The first set-up
// in a process is the cold one; a second gives the warm ingest rate.
func (t *tracer) setUp() error {
	ss := t.ss
	n := float64(len(ss.in.items))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var s *server.Server
	var cold time.Duration
	var err error
	t.rec.solo("server.setup_cold", func() { s, cold, err = ss.setUp(false) })
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	t.vals["server.setup_cold_s"] = cold.Seconds()
	t.vals["server.ingest_alloc_bytes_per_vector"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	if err := s.Close(); err != nil {
		return err
	}
	ss.cleanupDirs()
	runtime.GC()
	var warm time.Duration
	t.rec.solo("server.setup_warm", func() { t.s, warm, err = ss.setUp(false) })
	if err != nil {
		return err
	}
	t.vals["server.ingest_inproc_vps"] = n / warm.Seconds()
	if t.e, err = listen(server.NewHandler(t.s)); err != nil {
		return err
	}
	if t.fl, err = newFlatLayer(ss.w, ss.in); err != nil {
		return err
	}
	t.pool = server.NewPool(runtime.GOMAXPROCS(0))
	return nil
}

// handle runs one request through the handler on a recorder, timing
// only ServeHTTP.
func (t *tracer) handle(op int, parent int32, name, method, path string, body []byte) (float64, error) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	w := httptest.NewRecorder()
	d := t.rec.timed(op, parent, name, func() { t.e.handler.ServeHTTP(w, req) })
	if w.Code != http.StatusOK {
		return 0, fmt.Errorf("%s: handler status %d: %.120s", name, w.Code, w.Body.Bytes())
	}
	return d, nil
}

// ladder times the same queries back to back on each rung, so drift
// hits every rung of one query alike.
func (t *tracer) ladder() error {
	ss, w := t.ss, t.ss.w
	col, ok := t.s.Collection(dataName)
	if !ok {
		return fmt.Errorf("collection %q missing", dataName)
	}
	ctx := context.Background()
	opts := server.SearchOpts{K: topK, Unsigned: w.unsigned}
	rungs := []string{"flat.topk", "server.search_one", "server.search_inproc", "server.handler", "server.http"}
	times := make([][]float64, len(rungs))

	one := func(q vec.Vector, keep bool) error {
		var err error
		note := func(err2 error) {
			if err == nil {
				err = err2
			}
		}
		// Each rung above the cache gets its own one-ulp copy of q. Each
		// data set (the flat layer's rows, then the server's shards) is
		// touched once, untimed, just before its first rung: otherwise
		// that rung pays the cache misses for the rungs above it.
		q3, q4, q5 := nudge(q, 1), nudge(q, 2), nudge(q, 3)
		body4 := searchBody(q4, w.unsigned, false)
		req5 := request("POST", searchPath, searchBody(q5, w.unsigned, false))
		id, root := t.rec.op("search")
		var d [5]float64
		_, e := t.fl.topK(q)
		note(e)
		d[0] = t.rec.timed(id, root, rungs[0], func() { _, e := t.fl.topK(q); note(e) })
		_, e = col.SearchOne(ctx, t.pool, q, topK, w.unsigned)
		note(e)
		d[1] = t.rec.timed(id, root, rungs[1], func() { _, e := col.SearchOne(ctx, t.pool, q, topK, w.unsigned); note(e) })
		d[2] = t.rec.timed(id, root, rungs[2], func() {
			res, e := t.s.SearchWithOpts(ctx, dataName, []vec.Vector{q3}, opts)
			note(e)
			if e == nil {
				note(res[0].Err)
			}
		})
		var e4 error
		d[3], e4 = t.handle(id, root, rungs[3], "POST", searchPath, body4)
		note(e4)
		d[4] = t.rec.timed(id, root, rungs[4], func() {
			status, _, _, e := t.e.do(req5)
			note(e)
			if e == nil && status != http.StatusOK {
				note(fmt.Errorf("http search: status %d", status))
			}
		})
		t.rec.end(root)
		ss.attempted++
		if err != nil {
			return err
		}
		if keep {
			for i := range d {
				times[i] = append(times[i], d[i])
			}
		}
		return nil
	}
	for _, q := range nudgeAll(t.queries[:16], 16) { // untimed warm-up
		if err := one(q, false); err != nil {
			return err
		}
	}
	runtime.GC()
	for _, q := range t.queries[:t.reps(len(t.queries), 32)] {
		if err := one(q, true); err != nil {
			return err
		}
	}

	names := []string{"flat.topk_ms", "server.search_one_ms", "server.search_inproc_ms", "server.handler_ms", "server.http_ms"}
	selves := []string{"server.fanout_merge_self_ms", "server.api_self_ms", "server.json_self_ms", "server.net_self_ms"}
	for i, name := range names {
		t.ms(name, times[i])
	}
	explained := t.vals[names[0]]
	for i, name := range selves {
		diff := make([]float64, len(times[i]))
		for j := range diff {
			diff[j] = times[i+1][j] - times[i][j]
		}
		t.ms(name, diff)
		explained += t.vals[name]
	}
	total := t.vals[names[4]]
	t.vals["server.residual_ratio"] = (total - explained) / total

	// Reconciliation: each rung contains the one below it.
	t.out.report = append(t.out.report, "ladder (p50 ms, self = median paired difference):")
	for i, name := range names {
		line := fmt.Sprintf("  L%d %-26s %10.4f", i+1, name, t.vals[name])
		if i > 0 {
			line += fmt.Sprintf("   self %-30s %10.4f", selves[i-1], t.vals[selves[i-1]])
			if t.vals[names[i-1]] > 1.10*t.vals[name] {
				t.vals["server.ladder_violations"]++
				line += "   LADDER VIOLATION: the rung below is slower"
			}
		}
		t.out.report = append(t.out.report, line)
	}
	t.out.report = append(t.out.report, fmt.Sprintf("  residual %.3f of http; flat.topk is %.0f%% of http",
		t.vals["server.residual_ratio"], 100*t.vals[names[0]]/total))
	return nil
}

// tracingOverhead replays searches against a twin server with
// Config.Tracing on, alternating with the un-traced one.
func (t *tracer) tracingOverhead() error {
	ss := t.ss
	twin, _, err := ss.setUp(true)
	if err != nil {
		return err
	}
	defer twin.Close()
	e2, err := listen(server.NewHandler(twin))
	if err != nil {
		return err
	}
	defer e2.close()
	var off, on []float64
	for i, q := range nudgeAll(t.queries[:t.reps(128, 24)], 4) {
		req := request("POST", searchPath, searchBody(q, ss.w.unsigned, false))
		for _, side := range []struct {
			e    *endpoint
			name string
			dst  *[]float64
		}{{t.e, "http.search.untraced", &off}, {e2, "http.search.traced", &on}} {
			var status int
			var err error
			d := t.rec.solo(side.name, func() { status, _, _, err = side.e.do(req) })
			ss.attempted++
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				ss.fail("tracing overhead: status %d", status)
			}
			if i >= 8 {
				*side.dst = append(*side.dst, d)
			}
		}
	}
	t.vals["trace.overhead_ratio"] = median(on) / median(off)
	return nil
}

func (t *tracer) batchAndJoin() error {
	w, in := t.ss.w, t.ss.in
	ctx := context.Background()
	opts := server.SearchOpts{K: topK, Unsigned: w.unsigned}
	var multi, inproc []float64
	for rep := 0; rep < 6; rep++ {
		lo := (rep * batchWidth) % (len(in.queries) - batchWidth + 1)
		qs := nudgeAll(in.queries[lo:lo+batchWidth], 5+rep)
		var err error
		multi = append(multi, t.rec.solo("flat.topk_multi", func() { err = t.fl.multi(qs) }))
		if err != nil {
			return err
		}
		var res []server.SearchResult
		inproc = append(inproc, t.rec.solo("server.batch_inproc", func() { res, err = t.s.SearchWithOpts(ctx, dataName, qs, opts) }))
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != nil {
				return r.Err
			}
		}
	}
	t.vals["flat.topk_multi_qps"] = batchWidth / median(multi)
	t.vals["server.batch_inproc_qps"] = batchWidth / median(inproc)

	engines := make([]join.Engine, len(t.fl.parts))
	for p, part := range t.fl.parts {
		eng, err := newJoinEngine(w, part)
		if err != nil {
			return err
		}
		engines[p] = eng
	}
	qst, err := flat.FromVectors(in.joinQ)
	if err != nil {
		return err
	}
	c := w.joinC
	if c == 0 {
		c = 1
	}
	req := server.JoinRequest{Data: dataName, Queries: queryName, Engine: w.joinEngine, S: in.joinS, C: c}
	var engine, served []float64
	for rep := 0; rep < 5; rep++ {
		engine = append(engine, t.rec.solo("join.engine", func() {
			for p, part := range t.fl.parts {
				if _, err = engines[p].Join(part, qst, in.joinS, c*in.joinS, join.Opts{Runner: t.pool}); err != nil {
					return
				}
			}
		}))
		if err != nil {
			return err
		}
		served = append(served, t.rec.solo("server.join_inproc", func() { _, err = t.s.JoinCtx(ctx, req) }))
		if err != nil {
			return err
		}
	}
	pairs := float64(len(in.items)) * joinQueries / 1e6
	t.vals["join.engine_mpairs_per_s"] = pairs / median(engine)
	t.vals["server.join_inproc_mpairs_per_s"] = pairs / median(served)
	return nil
}

// tiers scans the workload's rows at each storage precision, beside the
// benchmark's own read-sum ceiling over the same bytes.
func (t *tracer) tiers() error {
	in := t.ss.in
	tr := newTiers(t.fl.all)
	n, d := float64(len(in.items)), float64(t.ss.w.d)
	best := func(name string, f func() error) (float64, error) {
		var ds []float64
		for rep := 0; rep < 5; rep++ {
			var err error
			ds = append(ds, t.rec.solo(name, func() { err = f() }))
			if err != nil {
				return 0, err
			}
		}
		return minOf(ds), nil
	}
	var sink [4]float64
	sec, _ := best("bench.read_sum", func() error {
		for _, row := range in.items {
			for i := 0; i+4 <= len(row); i += 4 {
				sink[0] += row[i]
				sink[1] += row[i+1]
				sink[2] += row[i+2]
				sink[3] += row[i+3]
			}
		}
		return nil
	})
	readSum = sink[0] + sink[1] + sink[2] + sink[3]
	t.vals["flat.membw_gbps"] = n * d * 8 / sec / 1e9
	q := t.queries[0]
	for _, tier := range []struct {
		name  string
		bytes float64
		scan  func() error
	}{
		{"flat.topk_f64_gbps", 8, func() error { _, err := tr.f64.TopK(q, topK, false, 1); return err }},
		{"flat.topk_f32_gbps", 4, func() error { _, err := tr.f32.TopK(q, topK, false, 1); return err }},
		{"flat.topk_i8_gbps", 1, func() error { _, err := tr.i8.TopK(q, topK, false, 1); return err }},
	} {
		sec, err := best(tier.name, tier.scan)
		if err != nil {
			return err
		}
		t.vals[tier.name] = n * d * tier.bytes / sec / 1e9
	}
	var scanned float64
	var masked []float64
	for _, q := range t.queries[:32] {
		_, rows, err := tr.sorted.TopK(q, topK, t.ss.w.unsigned)
		if err != nil {
			return err
		}
		scanned += float64(rows)
		masked = append(masked, t.rec.solo("flat.masked25", func() {
			_, err = tr.f64.TopKMasked(q, topK, false, 1, tr.masked)
		}))
		if err != nil {
			return err
		}
	}
	t.vals["flat.normscan_scanned_frac"] = scanned / (32 * n)
	t.ms("flat.masked25_ms", masked)
	return nil
}

// counts reads the program's own accounting: explain on a sample of
// queries, then Stats.
func (t *tracer) counts() error {
	ss := t.ss
	var rows, rerank, pruned, blocks float64
	const sample = 64
	for _, q := range nudgeAll(t.queries[:sample], 12) {
		status, body, _, err := t.e.do(request("POST", searchPath, searchBody(q, ss.w.unsigned, true)))
		ss.attempted++
		if err != nil {
			return err
		}
		var r server.SearchResponse
		if status != http.StatusOK || json.Unmarshal(body, &r) != nil || r.Explain == nil {
			ss.fail("explain: status %d, no explain payload", status)
			continue
		}
		rows += float64(r.Explain.RowsScanned)
		rerank += float64(r.Explain.RerankCandidates)
		for _, sh := range r.Explain.Shards {
			pruned += float64(sh.CSPrunedBlocks)
			blocks += math.Ceil(float64(sh.Records) / scanBlockRows)
		}
	}
	t.vals["flat.rows_scanned_per_query"] = rows / sample
	t.vals["server.rerank_candidates_per_query"] = rerank / sample
	if blocks > 0 {
		t.vals["flat.cs_pruned_block_frac"] = pruned / blocks
	}
	cs := t.s.Stats().Collections[dataName]
	var vbytes int64
	for _, b := range cs.VectorBytes {
		vbytes += b
	}
	if total := cs.Records + cs.Tombstoned; total > 0 {
		t.vals["server.vector_bytes_per_vector"] = float64(vbytes) / float64(total)
	}

	if ss.w.cache > 0 {
		var miss, hit []float64
		for _, q := range nudgeAll(t.queries[:sample], 13) {
			req := request("POST", searchPath, searchBody(q, ss.w.unsigned, false))
			for _, dst := range []*[]float64{&miss, &hit} {
				_, _, d, err := t.e.do(req)
				ss.attempted++
				if err != nil {
					return err
				}
				*dst = append(*dst, d.Seconds())
			}
		}
		t.ms("server.cache_miss_ms", miss)
		t.ms("server.cache_hit_ms", hit)
	}
	return nil
}

// noteWrite journals a write applied outside the HTTP client, so the
// verification mirror stays in step with the server.
func (ss *session) noteWrite(w *write) {
	ss.journal = append(ss.journal, op{kind: opUpsert, w: w, status: http.StatusOK})
}

func writeRecords(w *write) []store.Record {
	recs := make([]store.Record, len(w.ids))
	for i, id := range w.ids {
		recs[i] = store.Record{ID: id, Vec: w.vecs[i].Clone()}
	}
	return recs
}

// mutate prices one upsert at each layer: the store copy and index
// rebuild a shard repeats, then the server in process and behind its
// handler; and ingest through JSON over loopback.
func (t *tracer) mutate() error {
	ss := t.ss
	reps := t.reps(16, 2)
	perShard := upsertWidth / shardCount
	var clone, rebuild, inproc, handler []float64
	for rep := 0; rep < reps; rep++ {
		vs := ss.in.fresh[rep*perShard : (rep+1)*perShard]
		var err error
		clone = append(clone, t.rec.solo("flat.clone_append", func() { err = t.fl.cloneAppend(vs) }))
		if err != nil {
			return err
		}
		if t.fl.rebuild != nil && rep < 6 {
			rebuild = append(rebuild, t.rec.solo("flat.index_rebuild", func() { err = t.fl.rebuild(t.fl.parts[0]) }))
			if err != nil {
				return err
			}
		}
	}
	t.ms("flat.clone_append_ms", clone)
	t.ms("flat.index_rebuild_ms", rebuild)

	var before, after runtime.MemStats
	writes := make([]*write, 2*reps)
	recs := make([][]store.Record, reps)
	for i := range writes {
		writes[i] = ss.planUpsert(nil)
		if i < reps {
			recs[i] = writeRecords(writes[i])
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		var err error
		inproc = append(inproc, t.rec.solo("server.upsert_inproc", func() { _, _, err = t.s.Upsert(dataName, nil, 0, recs[i]) }))
		if err != nil {
			return err
		}
		ss.noteWrite(writes[i])
	}
	runtime.ReadMemStats(&after)
	t.vals["server.upsert_alloc_bytes_per_vector"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(reps*upsertWidth)
	t.ms("server.upsert_inproc_ms", inproc)
	for _, w := range writes[reps:] {
		id, root := t.rec.op("upsert")
		d, err := t.handle(id, root, "server.upsert_handler", "POST", upsertPath, recordsBody(w.ids, w.vecs))
		t.rec.end(root)
		if err != nil {
			return err
		}
		handler = append(handler, d)
		ss.noteWrite(w)
	}
	t.ms("server.upsert_handler_ms", handler)

	// Ingest over the wire: a fresh collection of the same kind, loaded
	// by PUT in set-up sized batches.
	sample := min(10000, len(ss.in.items))
	spec, err := json.Marshal(ss.w.spec)
	if err != nil {
		return err
	}
	var total float64
	for lo := 0; lo < sample; lo += ss.w.ingestBatch {
		hi := min(lo+ss.w.ingestBatch, sample)
		ids := make([]int, hi-lo)
		for i := range ids {
			ids[i] = lo + i
		}
		body := recordsBody(ids, ss.in.items[lo:hi])
		body = append([]byte(fmt.Sprintf(`{"index":%s,"shards":%d,`, spec, shardCount)), body[1:]...)
		req := request("PUT", "/collections/ingest", body)
		var status int
		total += t.rec.solo("server.ingest_http", func() { status, _, _, err = t.e.do(req) })
		ss.attempted++
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			ss.fail("http ingest: status %d", status)
		}
	}
	t.vals["server.ingest_http_vps"] = float64(sample) / total
	_, err = t.s.Drop("ingest")
	return err
}

// persist prices the durability layer alone on scratch logs: append
// under fsync never and always, a bulk load, a checkpoint and a
// recovery. Workloads without a data directory skip it, so their
// persist.* metrics read zero.
func (t *tracer) persist() error {
	ss := t.ss
	if !ss.w.durable {
		return nil
	}
	items := ss.in.items
	scratch := func(name string, mode persist.FsyncMode) (*persist.Log, string, error) {
		dir := filepath.Join(ss.root, name)
		lg, err := persist.Create(dir, persist.Manifest{Name: name, Shards: 1}, persist.Policy{Mode: mode})
		return lg, dir, err
	}
	appendTimes := func(name string, mode persist.FsyncMode) ([]float64, error) {
		lg, _, err := scratch(name, mode)
		if err != nil {
			return nil, err
		}
		defer lg.Remove()
		var ds []float64
		for rep := 0; rep < 24; rep++ {
			lo := rep * upsertWidth % (len(items) - upsertWidth)
			recs := records(items[lo:lo+upsertWidth], lo)
			ds = append(ds, t.rec.solo("persist.wal_append."+name, func() { _, err = lg.AppendUpsert(recs) }))
			if err != nil {
				return nil, err
			}
		}
		return ds, nil
	}
	never, err := appendTimes("never", persist.FsyncNever)
	if err != nil {
		return err
	}
	always, err := appendTimes("always", persist.FsyncAlways)
	if err != nil {
		return err
	}
	t.ms("persist.wal_append_ms", never)
	t.vals["persist.wal_fsync_ms"] = max(0, 1e3*(median(always)-median(never)))

	lg, dir, err := scratch("bulk", persist.FsyncNever)
	if err != nil {
		return err
	}
	all := records(items, 0)
	var appendSec float64
	for lo := 0; lo < len(all); lo += ss.w.ingestBatch {
		batch := all[lo:min(lo+ss.w.ingestBatch, len(all))]
		appendSec += t.rec.solo("persist.wal_append.bulk", func() { _, err = lg.Append(batch) })
		if err != nil {
			return err
		}
	}
	walBytes := float64(lg.WALBytes())
	userBytes := float64(len(items) * ss.w.d * 8)
	t.vals["persist.wal_append_mbps"] = walBytes / appendSec / 1e6
	t.vals["persist.wal_bytes_per_user_byte"] = walBytes / userBytes
	t.vals["persist.checkpoint_s"] = t.rec.solo("persist.checkpoint", func() {
		err = lg.Checkpoint(func() ([]store.Record, uint64) { return all, lg.LastSeq() })
	})
	if err != nil {
		return err
	}
	if err := lg.Close(); err != nil {
		return err
	}
	t.vals["persist.disk_bytes_per_vector"] = float64(dirBytes(dir)) / float64(len(items))
	var back *persist.Log
	var got *persist.Recovered
	t.vals["persist.recover_s"] = t.rec.solo("persist.recover", func() {
		back, got, err = persist.Open(dir, persist.Policy{Mode: persist.FsyncNever})
	})
	if err != nil {
		return err
	}
	ss.attempted++
	if len(got.Recs) != len(items) {
		ss.fail("persist: recovered %d of %d records", len(got.Recs), len(items))
	}
	return back.Remove()
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// lsh prices the banding index alone: build, probe, candidates.
func (t *tracer) lsh() error {
	if t.fl.indexes == nil {
		return nil
	}
	w := t.ss.w
	var build, probe []float64
	for rep := 0; rep < 3; rep++ {
		var err error
		build = append(build, t.rec.solo("lsh.build", func() { _, err = buildALSH(t.fl.parts[0]) }))
		if err != nil {
			return err
		}
	}
	var cands float64
	for _, q := range t.queries[:t.reps(len(t.queries), 32)] {
		probe = append(probe, t.rec.solo("lsh.candidates", func() {
			for _, ix := range t.fl.indexes {
				cands += float64(len(alshCandidates(ix, q, w.unsigned)))
			}
		}))
	}
	t.ms("lsh.build_ms", build)
	t.ms("lsh.candidates_ms", probe)
	t.vals["lsh.candidates_per_query"] = cands / float64(len(probe))
	return nil
}

// replay runs the end-to-end rounds again (one warm-up, five recorded)
// for the advisory tails and the cache and compaction counters, then
// the closing recall pass, so the traced pass verifies answers too.
func (t *tracer) replay() error {
	ss := t.ss
	before := t.s.Stats().Cache
	c := &cells{}
	for r := 0; r <= t.reps(5, 1); r++ {
		dst := c
		if r == 0 {
			dst = nil
		}
		_, root := t.rec.op("round")
		err := ss.round(t.e, ss.planRound(), dst)
		t.rec.end(root)
		if err != nil {
			return err
		}
	}
	for i := range t.queries {
		if _, err := ss.send(t.e, op{kind: opSearch, arg: i, check: true, recall: true}, ss.searchReq[i]); err != nil {
			return err
		}
	}
	st := t.s.Stats()
	for wait := 0; st.Collections[dataName].Compacting && wait < 60; wait++ {
		time.Sleep(50 * time.Millisecond)
		st = t.s.Stats()
	}
	if looks := float64(st.Cache.Hits - before.Hits + st.Cache.Misses - before.Misses); looks > 0 {
		t.vals["server.cache_hit_ratio"] = float64(st.Cache.Hits-before.Hits) / looks
	}
	t.vals["server.compactions"] = float64(st.Collections[dataName].Compactions)
	t.vals["server.http_search_p50_ms"] = 1e3 * median(c.search)
	t.vals["server.http_search_p99_ms"] = 1e3 * quantile(c.search, 0.99)
	t.vals["server.http_mutate_p50_ms"] = 1e3 * median(c.mutate)
	t.vals["server.http_mutate_p99_ms"] = 1e3 * quantile(c.mutate, 0.99)
	return nil
}
