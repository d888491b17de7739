package main

// The -slo mode: a status-aware, multi-tenant traffic generator that
// drives an ipsd server through a steady phase and an overload phase
// and grades the outcome against serving SLOs instead of throughput.
// Unlike the main workload (which treats any non-200 as fatal), this
// client classifies responses — 2xx served, 429 shed, 504 deadline
// miss, other 4xx client error, 5xx server fault — because shedding
// and deadline misses are the behaviors under test: an overloaded
// server should degrade by answering 429/504 quickly, never by
// collapsing into 5xx or unbounded latency.
//
// Tenants are picked Zipf-skewed, so one hot collection absorbs most
// of the load while cold tenants measure cross-tenant interference.
// Ops are mixed (single search, batched search, upsert, delete) with
// every search carrying a timeout_ms. The run writes a JSON SLO
// report (per-route p50/p95/p99, shed rate, deadline-miss rate,
// status counts per phase) and exits non-zero on any server 5xx or —
// with -slo-require-shed — when overload produced no shedding at all.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// sloFlags carries the -slo* knobs from run.
type sloFlags struct {
	n, d, k         int
	shards          int
	spec            server.IndexSpec
	tenants         int
	timeoutMS       int
	steady          time.Duration
	overload        time.Duration
	clients         int
	overloadClients int
	maxInflight     int
	maxQueue        int
	report          string
	requireShed     bool
}

// sloCounts are the per-phase response-class tallies.
type sloCounts struct {
	Served    int64 `json:"served"`     // 2xx
	Shed      int64 `json:"shed"`       // 429
	Deadline  int64 `json:"deadline"`   // 504
	ClientErr int64 `json:"client_err"` // other 4xx
	ServerErr int64 `json:"server_err"` // 5xx
	Transport int64 `json:"transport"`  // connection-level failures
}

func (c *sloCounts) total() int64 {
	return c.Served + c.Shed + c.Deadline + c.ClientErr + c.ServerErr + c.Transport
}

// sloRouteStats is one route's latency summary in the report.
type sloRouteStats struct {
	Route string  `json:"route"`
	N     int     `json:"n"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
	// SlowestTraceIDs names the (up to) 5 slowest requests on this
	// route, slowest first, by the trace id the client minted into the
	// traceparent header — resolvable at the server's /debug/trace/{id}
	// while they remain in its ring.
	SlowestTraceIDs []string `json:"slowest_trace_ids,omitempty"`
}

// sloReport is the JSON artifact the CI smoke step uploads.
type sloReport struct {
	Tenants          int             `json:"tenants"`
	TimeoutMS        int             `json:"timeout_ms"`
	MaxInflight      int             `json:"max_inflight"`
	MaxQueue         int             `json:"max_queue"`
	Steady           sloCounts       `json:"steady"`
	Overload         sloCounts       `json:"overload"`
	ShedRate         float64         `json:"shed_rate"`          // overload phase
	DeadlineMissRate float64         `json:"deadline_miss_rate"` // both phases
	Routes           []sloRouteStats `json:"routes"`
	RetryAfterSeen   bool            `json:"retry_after_seen"`
	// RetryMax echoes -retries; Retries counts retry attempts the
	// client actually issued on 429/503 across both phases.
	RetryMax int      `json:"retry_max"`
	Retries  int64    `json:"retries"`
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

// sloObs is one classified request: its latency and the trace id the
// client stamped into the traceparent header.
type sloObs struct {
	ms      float64
	traceID string
}

// sloTracker accumulates classified responses and latencies from many
// client goroutines.
type sloTracker struct {
	mu      sync.Mutex
	byRoute map[string][]sloObs
	order   []string

	phase      atomic.Int32 // 0 steady, 1 overload
	counts     [2]sloCounts
	retryAfter atomic.Bool
}

func newSLOTracker() *sloTracker {
	return &sloTracker{byRoute: map[string][]sloObs{}}
}

// observe classifies one request by its final status, 0 when no
// response arrived.
func (t *sloTracker) observe(route string, status int, gotRetryAfter bool, d time.Duration, traceID string) {
	p := t.phase.Load()
	c := &t.counts[p]
	switch {
	case status == 0:
		atomic.AddInt64(&c.Transport, 1)
	case status/100 == 2:
		atomic.AddInt64(&c.Served, 1)
	case status == http.StatusTooManyRequests:
		atomic.AddInt64(&c.Shed, 1)
		if gotRetryAfter {
			t.retryAfter.Store(true)
		}
	case status == http.StatusGatewayTimeout:
		atomic.AddInt64(&c.Deadline, 1)
	case status/100 == 4:
		atomic.AddInt64(&c.ClientErr, 1)
	default:
		atomic.AddInt64(&c.ServerErr, 1)
	}
	t.mu.Lock()
	if _, ok := t.byRoute[route]; !ok {
		t.order = append(t.order, route)
	}
	t.byRoute[route] = append(t.byRoute[route], sloObs{ms: float64(d) / float64(time.Millisecond), traceID: traceID})
	t.mu.Unlock()
}

// runSLO is the -slo entry point: it drives the server at base through
// both phases, writes the report to w, and returns an error when the
// run fails its SLOs.
func runSLO(w io.Writer, c *client, base string, f sloFlags) error {
	// Seed every tenant with its own slice of a latent-factor workload.
	nPer := max(f.n/f.tenants, 512)
	lf := dataset.NewLatentFactor(xrand.New(seed), nPer*f.tenants, 256, f.d, sigma)
	lf.ScaleItemsToUnitBall()
	tenant := func(i int) string { return fmt.Sprintf("slo-%d", i) }
	fmt.Fprintf(w, "slo: seeding %d tenants with %d vectors each (max-inflight=%d max-queue=%d)\n",
		f.tenants, nPer, f.maxInflight, f.maxQueue)
	const seedChunk = 8192 // stay under the server's body cap
	for t := range f.tenants {
		spec := server.IngestRequest{Index: &f.spec, Shards: f.shards}
		if err := c.putRecords(base+"/collections/"+tenant(t), spec, lf.Items[t*nPer:(t+1)*nPer], seedChunk, 1); err != nil {
			return fmt.Errorf("slo seed tenant %d: %w", t, err)
		}
	}

	tr := newSLOTracker()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var clientGate sync.RWMutex // overload clients wait on this until phase 2
	clientGate.Lock()

	worker := func(id int, overloadOnly bool) {
		defer wg.Done()
		wrng := xrand.New(seed + 0xc11e27 + uint64(id))
		zipf := xrand.NewZipf(wrng, f.tenants, zipfA)
		if overloadOnly {
			clientGate.RLock() // released at Unlock; holds until gate opens
			clientGate.RUnlock()
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			t := zipf.Draw()
			col := base + "/collections/" + tenant(t)
			var (
				route string
				r     reply
			)
			t0 := time.Now()
			switch u := wrng.Float64(); {
			case u < 0.55: // single search
				route = "search"
				q := lf.Users[wrng.Intn(len(lf.Users))]
				r, _ = c.do(http.MethodPost, col+"/search",
					server.SearchRequest{Q: q, K: f.k, TimeoutMS: f.timeoutMS})
			case u < 0.85: // batched search
				route = "search_batch"
				qs := make([][]float64, 16)
				for i := range qs {
					qs[i] = lf.Users[wrng.Intn(len(lf.Users))]
				}
				r, _ = c.do(http.MethodPost, col+"/search",
					server.SearchRequest{Queries: qs, K: f.k, TimeoutMS: f.timeoutMS})
			case u < 0.95: // upsert a handful of hot ids
				route = "upsert"
				nrec := 1 + wrng.Intn(4)
				recs := make([]server.RecordJSON, nrec)
				for i := range recs {
					id := wrng.Intn(nPer)
					recs[i] = server.RecordJSON{ID: &id, Vec: wrng.NormalVec(f.d)}
				}
				r, _ = c.do(http.MethodPost, col+"/vectors",
					server.IngestRequest{Records: recs})
			default: // delete-then-reinsertable ids (unknown ids are no-ops)
				route = "delete"
				ids := []int{wrng.Intn(nPer)}
				r, _ = c.do(http.MethodPost, col+"/vectors/delete",
					server.DeleteVectorsRequest{IDs: ids})
			}
			tr.observe(route, r.status, r.retryAfter, time.Since(t0), r.traceID)
		}
	}

	fmt.Fprintf(w, "slo: steady phase: %d clients for %v (timeout_ms=%d, zipf a=%g over %d tenants)\n",
		f.clients, f.steady, f.timeoutMS, zipfA, f.tenants)
	for id := range f.clients {
		wg.Add(1)
		go worker(id, false)
	}
	for id := range f.overloadClients {
		wg.Add(1)
		go worker(f.clients+id, true)
	}
	time.Sleep(f.steady)
	tr.phase.Store(1)
	clientGate.Unlock() // open the gate: overload clients start
	fmt.Fprintf(w, "slo: overload phase: +%d clients for %v\n", f.overloadClients, f.overload)
	time.Sleep(f.overload)
	close(stop)
	wg.Wait()

	// Assemble and grade the report.
	rep := sloReport{
		Tenants:        f.tenants,
		TimeoutMS:      f.timeoutMS,
		MaxInflight:    f.maxInflight,
		MaxQueue:       f.maxQueue,
		Steady:         tr.counts[0],
		Overload:       tr.counts[1],
		RetryAfterSeen: tr.retryAfter.Load(),
		RetryMax:       c.retries,
		Retries:        c.retried.Load(),
	}
	if tot := rep.Overload.total(); tot > 0 {
		rep.ShedRate = float64(rep.Overload.Shed) / float64(tot)
	}
	if tot := rep.Steady.total() + rep.Overload.total(); tot > 0 {
		rep.DeadlineMissRate = float64(rep.Steady.Deadline+rep.Overload.Deadline) / float64(tot)
	}
	tr.mu.Lock()
	sort.Strings(tr.order)
	for _, route := range tr.order {
		obs := tr.byRoute[route]
		ms := make([]float64, len(obs))
		for i, o := range obs {
			ms[i] = o.ms
		}
		maxMS := 0.0
		for _, v := range ms {
			if v > maxMS {
				maxMS = v
			}
		}
		// The 5 slowest requests, slowest first, named by the trace id
		// the client minted — the handle for /debug/trace/{id} and for
		// grepping the server's slow-query log.
		slowest := make([]sloObs, len(obs))
		copy(slowest, obs)
		sort.Slice(slowest, func(a, b int) bool { return slowest[a].ms > slowest[b].ms })
		if len(slowest) > 5 {
			slowest = slowest[:5]
		}
		slowIDs := make([]string, 0, len(slowest))
		for _, o := range slowest {
			slowIDs = append(slowIDs, o.traceID)
		}
		rep.Routes = append(rep.Routes, sloRouteStats{
			Route: route, N: len(ms),
			P50MS:           stats.Quantile(ms, 0.50),
			P95MS:           stats.Quantile(ms, 0.95),
			P99MS:           stats.Quantile(ms, 0.99),
			MaxMS:           maxMS,
			SlowestTraceIDs: slowIDs,
		})
	}
	tr.mu.Unlock()

	if rep.Steady.ServerErr+rep.Overload.ServerErr > 0 {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"server 5xx under load: %d steady, %d overload",
			rep.Steady.ServerErr, rep.Overload.ServerErr))
	}
	if rep.Steady.Transport+rep.Overload.Transport > 0 {
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"transport failures: %d steady, %d overload (server collapsed?)",
			rep.Steady.Transport, rep.Overload.Transport))
	}
	if f.requireShed && rep.Overload.Shed == 0 {
		rep.Failures = append(rep.Failures,
			"overload produced zero 429s: admission control did not engage")
	}
	if f.requireShed && rep.Overload.Shed > 0 && !rep.RetryAfterSeen {
		rep.Failures = append(rep.Failures, "429 responses carried no Retry-After header")
	}
	rep.Pass = len(rep.Failures) == 0

	fmt.Fprintf(w, "slo report:\n")
	fmt.Fprintf(w, "  steady:   served=%d shed=%d deadline=%d 4xx=%d 5xx=%d transport=%d\n",
		rep.Steady.Served, rep.Steady.Shed, rep.Steady.Deadline,
		rep.Steady.ClientErr, rep.Steady.ServerErr, rep.Steady.Transport)
	fmt.Fprintf(w, "  overload: served=%d shed=%d deadline=%d 4xx=%d 5xx=%d transport=%d (shed rate %.1f%%)\n",
		rep.Overload.Served, rep.Overload.Shed, rep.Overload.Deadline,
		rep.Overload.ClientErr, rep.Overload.ServerErr, rep.Overload.Transport,
		100*rep.ShedRate)
	fmt.Fprintf(w, "  deadline miss rate: %.2f%%  retry-after seen: %v  client retries: %d (max %d/request)\n",
		100*rep.DeadlineMissRate, rep.RetryAfterSeen, rep.Retries, rep.RetryMax)
	for _, rs := range rep.Routes {
		fmt.Fprintf(w, "  %-14s n=%-6d p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
			rs.Route, rs.N, rs.P50MS, rs.P95MS, rs.P99MS, rs.MaxMS)
		if len(rs.SlowestTraceIDs) > 0 {
			fmt.Fprintf(w, "    slowest trace ids: %v\n", rs.SlowestTraceIDs)
		}
	}

	if f.report != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		data = append(data, '\n')
		if err := os.WriteFile(f.report, data, 0o644); err != nil {
			return fmt.Errorf("slo report: %w", err)
		}
		fmt.Fprintf(w, "slo: report written to %s\n", f.report)
	}
	if !rep.Pass {
		return fmt.Errorf("SLO FAILED: %s", strings.Join(rep.Failures, "; "))
	}
	fmt.Fprintf(w, "slo: PASS\n")
	return nil
}
