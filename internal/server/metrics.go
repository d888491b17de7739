// Prometheus-text metrics for ipsd, hand-rolled: the exposition format
// is a dozen lines of fmt, which is cheaper than a client library and
// keeps the module dependency-free. Everything here is lock-free on
// the hot path — observations touch only atomics — and the /metrics
// handler assembles the page from counter loads, so scraping never
// contends with serving.
package server

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets are the latency histogram upper bounds in seconds,
// spanning cache hits (sub-millisecond) through multi-second overload
// tails. The last implicit bucket is +Inf.
var histBuckets = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// latencyHist is a fixed-bucket cumulative histogram in the Prometheus
// style: per-bucket counts plus a running sum, all atomics, so observe
// costs a branchy search over 14 bounds and two atomic adds.
type latencyHist struct {
	counts [len(histBuckets) + 1]atomic.Int64 // +1: the +Inf bucket
	sumNS  atomic.Int64
	count  atomic.Int64
}

func newLatencyHist() *latencyHist { return &latencyHist{} }

func (h *latencyHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	i := sort.SearchFloat64s(histBuckets[:], s)
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.count.Add(1)
}

// writeProm renders the histogram as a Prometheus histogram metric
// with the given (possibly empty) label set. labels must already be
// rendered ("route=\"search\"") or empty.
func (h *latencyHist) writeProm(w io.Writer, name, labels string) {
	sep, end := "{", "}"
	if labels != "" {
		sep, end = "{"+labels+",", "}"
	}
	cum := int64(0)
	for i, ub := range histBuckets[:] {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=\"%s\"%s %d\n", name, sep, formatBound(ub), end, cum)
	}
	cum += h.counts[len(histBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"%s %d\n", name, sep, end, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count.Load())
	}
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest decimal form, no exponent for this range.
func formatBound(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", f), "0"), ".")
}

// promLabel escapes a label value per the exposition format (backslash,
// double quote, newline).
func promLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// stageCardinalityCap bounds the live (stage, collection) series count:
// stage names are a small fixed set and collections are few, so the cap
// is far above any sane deployment — it only guards against a pathological
// churn of collection names growing the map without bound.
const stageCardinalityCap = 512

// stageMetrics holds the ipsd_stage_seconds{stage,collection}
// histograms. The hot path (observe) takes a read lock and two atomic
// adds; the write lock is only taken the first time a (stage,
// collection) pair appears.
type stageMetrics struct {
	mu    sync.RWMutex
	hists map[string]*stageHist // key: stage + "\x00" + collection
}

// stageHist is one (stage, collection) series.
type stageHist struct {
	stage      string
	collection string
	hist       *latencyHist
}

func newStageMetrics() *stageMetrics {
	return &stageMetrics{hists: make(map[string]*stageHist)}
}

func (m *stageMetrics) observe(stage, collection string, d time.Duration) {
	key := stage + "\x00" + collection
	m.mu.RLock()
	h, ok := m.hists[key]
	m.mu.RUnlock()
	if !ok {
		m.mu.Lock()
		h, ok = m.hists[key]
		if !ok {
			if len(m.hists) >= stageCardinalityCap {
				m.mu.Unlock()
				return
			}
			h = &stageHist{stage: stage, collection: collection, hist: newLatencyHist()}
			m.hists[key] = h
		}
		m.mu.Unlock()
	}
	h.hist.observe(d)
}

// writeTo renders the stage histograms in stable (stage, collection)
// order; a server that has observed nothing emits nothing.
func (m *stageMetrics) writeTo(w io.Writer) {
	m.mu.RLock()
	hs := make([]*stageHist, 0, len(m.hists))
	for _, h := range m.hists {
		hs = append(hs, h)
	}
	m.mu.RUnlock()
	if len(hs) == 0 {
		return
	}
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].stage != hs[j].stage {
			return hs[i].stage < hs[j].stage
		}
		return hs[i].collection < hs[j].collection
	})
	fmt.Fprintf(w, "# HELP ipsd_stage_seconds Pipeline stage duration by stage and collection.\n")
	fmt.Fprintf(w, "# TYPE ipsd_stage_seconds histogram\n")
	for _, h := range hs {
		h.hist.writeProm(w, "ipsd_stage_seconds",
			fmt.Sprintf("stage=%q,collection=%q", promLabel(h.stage), promLabel(h.collection)))
	}
}

// writeRuntimeMetrics emits the Go runtime gauges and the build-info
// series, so dashboards can correlate serving latency with GC activity
// and pin a scrape to a binary version.
func writeRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP go_goroutines Number of goroutines that currently exist.\n")
	fmt.Fprintf(w, "# TYPE go_goroutines gauge\n")
	fmt.Fprintf(w, "go_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP go_memstats_heap_alloc_bytes Heap bytes allocated and in use.\n")
	fmt.Fprintf(w, "# TYPE go_memstats_heap_alloc_bytes gauge\n")
	fmt.Fprintf(w, "go_memstats_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP go_memstats_heap_sys_bytes Heap bytes obtained from the OS.\n")
	fmt.Fprintf(w, "# TYPE go_memstats_heap_sys_bytes gauge\n")
	fmt.Fprintf(w, "go_memstats_heap_sys_bytes %d\n", ms.HeapSys)
	fmt.Fprintf(w, "# HELP go_gc_cycles_total Completed GC cycles.\n")
	fmt.Fprintf(w, "# TYPE go_gc_cycles_total counter\n")
	fmt.Fprintf(w, "go_gc_cycles_total %d\n", ms.NumGC)
	fmt.Fprintf(w, "# HELP go_gc_pause_seconds_total Cumulative GC stop-the-world pause time.\n")
	fmt.Fprintf(w, "# TYPE go_gc_pause_seconds_total counter\n")
	fmt.Fprintf(w, "go_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
	fmt.Fprintf(w, "# HELP ipsd_build_info Build metadata (value is always 1).\n")
	fmt.Fprintf(w, "# TYPE ipsd_build_info gauge\n")
	fmt.Fprintf(w, "ipsd_build_info{version=%q,go=%q} 1\n",
		promLabel(buildVersion()), promLabel(runtime.Version()))
}

// buildVersion reports the main module's version as embedded by the Go
// toolchain ("(devel)" for a plain go build).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// routeMetrics is one HTTP route's counters: a latency histogram plus
// per-status-class request counts.
type routeMetrics struct {
	route    string
	hist     *latencyHist
	statuses [6]atomic.Int64 // index status/100: [2]=2xx … [5]=5xx
}

func (rm *routeMetrics) observe(status int, d time.Duration) {
	rm.hist.observe(d)
	class := status / 100
	if class < 1 || class > 5 {
		class = 5
	}
	rm.statuses[class].Add(1)
}

// httpMetrics aggregates per-route request metrics. Routes are
// registered once at mux construction, so the map is effectively
// read-only after startup; the mutex only guards registration.
type httpMetrics struct {
	mu     sync.Mutex
	routes []*routeMetrics
	// inflight counts requests currently inside any instrumented
	// handler.
	inflight atomic.Int64
}

func newHTTPMetrics() *httpMetrics { return &httpMetrics{} }

// register creates (or returns) the metrics slot for a route label.
func (m *httpMetrics) register(route string) *routeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rm := range m.routes {
		if rm.route == route {
			return rm
		}
	}
	rm := &routeMetrics{route: route, hist: newLatencyHist()}
	m.routes = append(m.routes, rm)
	return rm
}

// snapshotRoutes returns the registered routes sorted by label for
// stable exposition order.
func (m *httpMetrics) snapshotRoutes() []*routeMetrics {
	m.mu.Lock()
	rs := make([]*routeMetrics, len(m.routes))
	copy(rs, m.routes)
	m.mu.Unlock()
	sort.Slice(rs, func(i, j int) bool { return rs[i].route < rs[j].route })
	return rs
}

// writeMetrics renders the whole /metrics page: server-wide gauges,
// per-route HTTP histograms and status counts, and per-collection
// query/admission/durability series.
func writeMetrics(w io.Writer, s *Server, hm *httpMetrics) {
	fmt.Fprintf(w, "# HELP ipsd_uptime_seconds Time since the server started.\n")
	fmt.Fprintf(w, "# TYPE ipsd_uptime_seconds gauge\n")
	fmt.Fprintf(w, "ipsd_uptime_seconds %g\n", time.Since(s.start).Seconds())

	fmt.Fprintf(w, "# HELP ipsd_pool_workers Scan pool capacity.\n")
	fmt.Fprintf(w, "# TYPE ipsd_pool_workers gauge\n")
	fmt.Fprintf(w, "ipsd_pool_workers %d\n", s.pool.Workers())
	fmt.Fprintf(w, "# HELP ipsd_pool_in_use Scan pool slots currently held.\n")
	fmt.Fprintf(w, "# TYPE ipsd_pool_in_use gauge\n")
	fmt.Fprintf(w, "ipsd_pool_in_use %d\n", len(s.pool.sem))

	fmt.Fprintf(w, "# HELP ipsd_cache_hits_total Query cache hits.\n")
	fmt.Fprintf(w, "# TYPE ipsd_cache_hits_total counter\n")
	fmt.Fprintf(w, "ipsd_cache_hits_total %d\n", s.cache.hits.Load())
	fmt.Fprintf(w, "# HELP ipsd_cache_misses_total Query cache misses.\n")
	fmt.Fprintf(w, "# TYPE ipsd_cache_misses_total counter\n")
	fmt.Fprintf(w, "ipsd_cache_misses_total %d\n", s.cache.misses.Load())
	fmt.Fprintf(w, "# HELP ipsd_cache_invalidations_total Query cache entries dropped by alsh writes and collection drops.\n")
	fmt.Fprintf(w, "# TYPE ipsd_cache_invalidations_total counter\n")
	fmt.Fprintf(w, "ipsd_cache_invalidations_total %d\n", s.cache.invalidations.Load())
	fmt.Fprintf(w, "# HELP ipsd_cache_revalidations_total Cached exact answers of an earlier version looked up: kept (brought forward across the writes since, a hit), touched (a write since removed one of their hits) or expired (their writes lie past the note horizon, or a compaction came between).\n")
	fmt.Fprintf(w, "# TYPE ipsd_cache_revalidations_total counter\n")
	fmt.Fprintf(w, "ipsd_cache_revalidations_total{outcome=\"kept\"} %d\n", s.cache.revalidated.Load())
	fmt.Fprintf(w, "ipsd_cache_revalidations_total{outcome=\"touched\"} %d\n", s.cache.touched.Load())
	fmt.Fprintf(w, "ipsd_cache_revalidations_total{outcome=\"expired\"} %d\n", s.cache.expired.Load())
	fmt.Fprintf(w, "# HELP ipsd_cache_size Query cache entries resident.\n")
	fmt.Fprintf(w, "# TYPE ipsd_cache_size gauge\n")
	fmt.Fprintf(w, "ipsd_cache_size %d\n", s.cache.len())

	fmt.Fprintf(w, "# HELP ipsd_joins_total Join requests served.\n")
	fmt.Fprintf(w, "# TYPE ipsd_joins_total counter\n")
	fmt.Fprintf(w, "ipsd_joins_total %d\n", s.joins.Load())

	writeRuntimeMetrics(w)
	s.stages.writeTo(w)

	if hm != nil {
		fmt.Fprintf(w, "# HELP ipsd_http_inflight HTTP requests currently being served.\n")
		fmt.Fprintf(w, "# TYPE ipsd_http_inflight gauge\n")
		fmt.Fprintf(w, "ipsd_http_inflight %d\n", hm.inflight.Load())
		routes := hm.snapshotRoutes()
		fmt.Fprintf(w, "# HELP ipsd_http_requests_total HTTP requests by route and status class.\n")
		fmt.Fprintf(w, "# TYPE ipsd_http_requests_total counter\n")
		for _, rm := range routes {
			for class := 1; class <= 5; class++ {
				if n := rm.statuses[class].Load(); n > 0 {
					fmt.Fprintf(w, "ipsd_http_requests_total{route=%q,code=\"%dxx\"} %d\n",
						promLabel(rm.route), class, n)
				}
			}
		}
		fmt.Fprintf(w, "# HELP ipsd_http_request_duration_seconds HTTP request latency by route.\n")
		fmt.Fprintf(w, "# TYPE ipsd_http_request_duration_seconds histogram\n")
		for _, rm := range routes {
			rm.hist.writeProm(w, "ipsd_http_request_duration_seconds",
				fmt.Sprintf("route=%q", promLabel(rm.route)))
		}
	}

	s.mu.RLock()
	names := make([]string, 0, len(s.cols))
	cols := make(map[string]*Collection, len(s.cols))
	for n, c := range s.cols {
		names = append(names, n)
		cols[n] = c
	}
	s.mu.RUnlock()
	sort.Strings(names)
	if len(names) == 0 {
		return
	}

	emit := func(name, typ, help string, val func(c *Collection) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, n := range names {
			fmt.Fprintf(w, "%s{collection=%q} %s\n", name, promLabel(n), val(cols[n]))
		}
	}
	emit("ipsd_collection_records", "gauge", "Live plus tombstoned rows per collection.",
		func(c *Collection) string { _, rows := c.deadTotal(); return fmt.Sprintf("%d", rows) })
	emit("ipsd_collection_tombstones", "gauge", "Tombstoned rows awaiting compaction.",
		func(c *Collection) string { dead, _ := c.deadTotal(); return fmt.Sprintf("%d", dead) })
	emit("ipsd_compactions_total", "counter", "Completed background compactions.",
		func(c *Collection) string { return fmt.Sprintf("%d", c.compactions.Load()) })
	emit("ipsd_queries_total", "counter", "Queries executed (cache misses reaching the scan layer).",
		func(c *Collection) string { return fmt.Sprintf("%d", c.queries.Load()) })
	emit("ipsd_query_timeouts_total", "counter", "Queries abandoned because their deadline fired.",
		func(c *Collection) string { return fmt.Sprintf("%d", c.timeouts.Load()) })
	emit("ipsd_admission_inflight", "gauge", "Queries currently admitted past the gate.",
		func(c *Collection) string { inflight, _, _ := c.adm.snapshot(); return fmt.Sprintf("%d", inflight) })
	emit("ipsd_admission_queued", "gauge", "Queries waiting for an admission slot.",
		func(c *Collection) string { _, queued, _ := c.adm.snapshot(); return fmt.Sprintf("%d", queued) })
	emit("ipsd_admission_shed_total", "counter", "Queries rejected with 429 by the admission gate.",
		func(c *Collection) string { _, _, shed := c.adm.snapshot(); return fmt.Sprintf("%d", shed) })
	emit("ipsd_wal_fsync_lag_seconds", "gauge", "Age of the oldest acknowledged-but-unsynced WAL append.",
		func(c *Collection) string { return fmt.Sprintf("%g", c.walFsyncLag().Seconds()) })
	emit("ipsd_collection_repairs_total", "counter", "Successful background repairs (degraded back to active).",
		func(c *Collection) string { return fmt.Sprintf("%d", c.repairs.Load()) })
	emit("ipsd_collection_scrubs_total", "counter", "Completed integrity scrub passes over segment files.",
		func(c *Collection) string { return fmt.Sprintf("%d", c.scrubs.Load()) })
	emit("ipsd_collection_scrub_errors_total", "counter", "Scrub passes that found a corrupt segment.",
		func(c *Collection) string { return fmt.Sprintf("%d", c.scrubErrors.Load()) })
	emit("ipsd_collection_last_scrub_timestamp_seconds", "gauge", "Unix time of the last completed scrub pass (0 before the first).",
		func(c *Collection) string { return fmt.Sprintf("%d", c.lastScrub.Load()) })

	emit("ipsd_index_rows_copied_total", "counter", "Rows the shards' index builds copied: those of each new snapshot that share no memory with the one before it.",
		func(c *Collection) string { return fmt.Sprintf("%d", c.builds.rowsCopied.Load()) })

	fmt.Fprintf(w, "# HELP ipsd_index_builds_total Shard index builds by writes: extend grew the previous snapshot's index by the batch, rebuild made a new one over every row.\n")
	fmt.Fprintf(w, "# TYPE ipsd_index_builds_total counter\n")
	for _, n := range names {
		b := &cols[n].builds
		fmt.Fprintf(w, "ipsd_index_builds_total{collection=%q,how=\"extend\"} %d\n", promLabel(n), b.extend.Load())
		fmt.Fprintf(w, "ipsd_index_builds_total{collection=%q,how=\"rebuild\"} %d\n", promLabel(n), b.rebuild.Load())
	}

	// Health is one series per (collection, state) pair, Kubernetes
	// kube_pod_status_phase style: exactly one of the three is 1, so
	// alerts can match on state by label instead of decoding an enum.
	fmt.Fprintf(w, "# HELP ipsd_collection_health Collection failure-domain state (1 for the current state, 0 otherwise).\n")
	fmt.Fprintf(w, "# TYPE ipsd_collection_health gauge\n")
	for _, n := range names {
		cur := cols[n].healthState()
		for _, st := range healthStates {
			v := 0
			if st == cur {
				v = 1
			}
			fmt.Fprintf(w, "ipsd_collection_health{collection=%q,state=%q} %d\n",
				promLabel(n), st.String(), v)
		}
	}

	// Vector residency is multi-series per collection (one series per
	// storage precision), so it cannot ride the single-series emit
	// helper above.
	fmt.Fprintf(w, "# HELP ipsd_collection_vector_bytes Resident vector payload bytes by storage precision.\n")
	fmt.Fprintf(w, "# TYPE ipsd_collection_vector_bytes gauge\n")
	for _, n := range names {
		vb := cols[n].vectorBytes()
		precs := make([]string, 0, len(vb))
		for p := range vb {
			precs = append(precs, p)
		}
		sort.Strings(precs)
		for _, p := range precs {
			fmt.Fprintf(w, "ipsd_collection_vector_bytes{collection=%q,precision=%q} %d\n",
				promLabel(n), p, vb[p])
		}
	}

	fmt.Fprintf(w, "# HELP ipsd_query_duration_seconds Served query latency per collection.\n")
	fmt.Fprintf(w, "# TYPE ipsd_query_duration_seconds histogram\n")
	for _, n := range names {
		cols[n].hist.writeProm(w, "ipsd_query_duration_seconds",
			fmt.Sprintf("collection=%q", promLabel(n)))
	}
}
