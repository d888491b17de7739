package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
)

// NewHandler wires the server's HTTP/JSON API:
//
//	PUT  /collections/{name}          bulk ingest (creates on first use)
//	DELETE /collections/{name}        drop the collection and its data dir
//	PUT  /collections/{name}/vectors/{id}    upsert one record by ID
//	DELETE /collections/{name}/vectors/{id}  delete one record by ID
//	POST /collections/{name}/vectors         batch upsert (explicit IDs)
//	POST /collections/{name}/vectors/delete  batch delete by ID list
//	POST /collections/{name}/search   top-k MIPS, single or batched
//	POST /collections/{a}/join/{b}    (cs, s) join: {a} is the data
//	                                  collection P, {b} the queries Q
//	POST /collections/{name}/join     self-join of {name}, identity
//	                                  pairs excluded
//	POST /join                        body-addressed join (data/queries
//	                                  named in the request body)
//	GET  /healthz                     liveness (503 once the server closes)
//	GET  /readyz                      readiness (503 while any collection
//	                                  is degraded or quarantined)
//	GET  /stats                       shard sizes, query counts, latency
//	GET  /metrics                     Prometheus text exposition
//
// Every route is instrumented (per-route latency histogram + status
// counts, served at /metrics), and every route that reads a request body
// reads it through readBody, capped at Config.MaxBodyBytes (default
// 32 MiB; oversized bodies get a structured 413). A body is exactly one
// JSON value; wire.go decodes the vector-bearing ones.
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	hm := newHTTPMetrics()
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, instrument(s, hm, label, h))
	}
	route("PUT /collections/{name}", "ingest", s.handleIngest)
	route("DELETE /collections/{name}", "drop", s.handleDrop)
	route("PUT /collections/{name}/vectors/{id}", "upsert_one", s.handleUpsertOne)
	route("DELETE /collections/{name}/vectors/{id}", "delete_one", s.handleDeleteOne)
	route("POST /collections/{name}/vectors", "upsert_batch", s.handleUpsertBatch)
	route("POST /collections/{name}/vectors/delete", "delete_batch", s.handleDeleteBatch)
	route("POST /collections/{name}/search", "search", s.handleSearch)
	route("POST /collections/{a}/join/{b}", "join", s.handleJoin)
	route("POST /collections/{name}/join", "join", s.handleJoin)
	route("POST /join", "join", s.handleJoin)
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /readyz", "readyz", s.handleReadyz)
	route("GET /stats", "stats", s.handleStats)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.handleMetrics(hm, w, r)
	})
	// The debug plane is deliberately outside instrument(): polling
	// /debug/requests must not mint traces of itself or skew the
	// per-route latency histograms.
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleDebugTrace)
	return mux
}

// defaultMaxBodyBytes caps request bodies when the config leaves
// Config.MaxBodyBytes zero.
const defaultMaxBodyBytes = 32 << 20

// statusRecorder captures the status a handler wrote so the metrics
// middleware can count it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-route metrics — latency
// histogram, status-class counters, the server-wide in-flight gauge —
// and, when tracing is on, a per-request trace: W3C traceparent is
// honored inbound and echoed outbound, the trace rides the request
// context through every stage, and the finished trace lands in the
// debug registry, the stage histograms, and (past the threshold) the
// slow-query log. With tracing off the request path is exactly the
// pre-tracing one: no trace allocation, no context wrapping.
func instrument(s *Server, hm *httpMetrics, label string, h http.HandlerFunc) http.HandlerFunc {
	rm := hm.register(label)
	return func(w http.ResponseWriter, r *http.Request) {
		hm.inflight.Add(1)
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if s.traces == nil {
			h(sr, r)
			rm.observe(sr.status, time.Since(start))
			hm.inflight.Add(-1)
			return
		}
		tr := trace.New(label, r.Header.Get("traceparent"))
		w.Header().Set("Traceparent", tr.Traceparent())
		s.traces.Start(tr)
		h(sr, r.WithContext(trace.NewContext(r.Context(), tr)))
		d := time.Since(start)
		tr.Finish(sr.status, d)
		s.traces.Finish(tr)
		s.recordTrace(tr)
		s.maybeLogSlow(tr)
		rm.observe(sr.status, d)
		hm.inflight.Add(-1)
	}
}

// DebugRequests is the GET /debug/requests body: requests in flight
// right now plus the most recent finished traces, grouped by route.
type DebugRequests struct {
	Active []trace.Exported            `json:"active"`
	Recent map[string][]trace.Exported `json:"recent"`
}

// handleDebugRequests serves GET /debug/requests from the trace
// registry: in-flight requests (oldest first — the stuck ones surface
// at the top) and the per-route rings of recent traces (newest first).
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	if s.traces == nil {
		httpError(w, http.StatusNotFound, errTracingDisabled)
		return
	}
	active := s.traces.Active()
	resp := DebugRequests{
		Active: make([]trace.Exported, 0, len(active)),
		Recent: make(map[string][]trace.Exported),
	}
	for _, tr := range active {
		resp.Active = append(resp.Active, tr.Export())
	}
	routes, byRoute := s.traces.Recent()
	for _, route := range routes {
		exps := make([]trace.Exported, 0, len(byRoute[route]))
		for _, tr := range byRoute[route] {
			exps = append(exps, tr.Export())
		}
		resp.Recent[route] = exps
	}
	writeJSON(w, http.StatusOK, resp)
}

var errTracingDisabled = errors.New("server: tracing is disabled")

// handleDebugTrace serves GET /debug/trace/{id}: the full span tree of
// one request, active or recently finished, by trace id (as reported in
// slow-query log lines, explain output, and Traceparent response
// headers).
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		httpError(w, http.StatusNotFound, errTracingDisabled)
		return
	}
	id := r.PathValue("id")
	tr := s.traces.Lookup(id)
	if tr == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("server: no trace %q (buffer holds the most recent per route)", id))
		return
	}
	writeJSON(w, http.StatusOK, tr.Export())
}

// handleMetrics serves GET /metrics in the Prometheus text format.
func (s *Server) handleMetrics(hm *httpMetrics, w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeMetrics(w, s, hm)
}

// requestCtx derives the query's working context from the HTTP request:
// the client's timeout_ms wins when positive (even when longer than
// the server default), otherwise Config.DefaultTimeout applies; zero
// both ways leaves only the connection's own cancellation. The cancel
// func must always be called.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// queryStatus maps a search/join failure to its HTTP status: shed
// queries are 429 (retryable now), deadline/cancellation 504, server
// faults 503, everything else a plain 400.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// hintRetry attaches a Retry-After header to the retryable status
// classes — 429 (shed) and 503 (degraded/closing/quarantined) — so
// well-behaved clients back off instead of hammering a server that
// already said "not now".
func hintRetry(w http.ResponseWriter, status int) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
}

// queryError writes a search/join failure, attaching Retry-After to
// the retryable (429/503) responses so well-behaved clients back off.
func queryError(w http.ResponseWriter, err error) {
	status := queryStatus(err)
	hintRetry(w, status)
	httpError(w, status, err)
}

// bodyError writes a request-body read or decode failure: 413 when
// readBody's cap tripped, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, fmt.Errorf("decoding body: %w", err))
}

// RecordJSON is a record on the wire. A missing "id" asks the server
// to assign one.
type RecordJSON struct {
	ID    *int              `json:"id,omitempty"`
	Vec   []float64         `json:"vec"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// IngestRequest is the PUT /collections/{name} body.
type IngestRequest struct {
	// Index and Shards configure the collection on first use; on an
	// existing collection they must match or be omitted.
	Index   *IndexSpec   `json:"index,omitempty"`
	Shards  int          `json:"shards,omitempty"`
	Records []RecordJSON `json:"records"`
}

// IngestResponse reports the ingest outcome. Invalidated counts the
// cached answers the write dropped: an alsh collection's; other kinds
// bring theirs forward across the write and drop none.
type IngestResponse struct {
	Collection  string `json:"collection"`
	Appended    int    `json:"appended"`
	Records     int    `json:"records"`
	Version     uint64 `json:"version"`
	Invalidated int    `json:"invalidated"`
}

// SearchRequest is the POST /collections/{name}/search body. Exactly
// one of Q (single query) or Queries (batch) must be set.
type SearchRequest struct {
	Q        []float64   `json:"q,omitempty"`
	Queries  [][]float64 `json:"queries,omitempty"`
	K        int         `json:"k,omitempty"` // default 1
	Unsigned bool        `json:"unsigned,omitempty"`
	// TimeoutMS is the client's deadline for the whole request in
	// milliseconds; it overrides the server's default timeout (in both
	// directions). Zero means use the default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Explain asks for a per-shard execution breakdown (rows scanned,
	// blocks pruned, rerank candidates, per-stage timings) alongside the
	// hits. Single-query requests only; it works even when server-side
	// tracing is disabled.
	Explain bool `json:"explain,omitempty"`
}

// SearchResponse reports search hits: Matches for a single query,
// Results (one list per query, in order) for a batch.
type SearchResponse struct {
	Matches []Hit   `json:"matches,omitempty"`
	Results [][]Hit `json:"results,omitempty"`
	Cached  int     `json:"cached"`
	TookMS  float64 `json:"took_ms"`
	// Explain is present iff the request set "explain": true.
	Explain *QueryExplain `json:"explain,omitempty"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	wb, err := s.decodeWire(w, r, (*wireBuf).parseIngest)
	if err != nil {
		bodyError(w, err)
		return
	}
	defer wb.release()
	recs := wb.storeRecords()
	version, invalidated, err := s.IngestCtx(r.Context(), name, wb.index, wb.shards, recs)
	if err != nil {
		status := mutationStatus(err)
		hintRetry(w, status)
		httpError(w, status, err)
		return
	}
	total := len(recs)
	if c, ok := s.Collection(name); ok {
		total = c.Len()
		c.observeStage("decode", wb.took)
	}
	writeJSON(w, http.StatusOK, IngestResponse{
		Collection:  name,
		Appended:    len(recs),
		Records:     total,
		Version:     version,
		Invalidated: invalidated,
	})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	req, err := s.decodeWire(w, r, (*wireBuf).parseSearch)
	if err != nil {
		bodyError(w, err)
		return
	}
	defer req.release()
	qs, single, err := req.queryVectors()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.explain && !single {
		httpError(w, http.StatusBadRequest, fmt.Errorf("\"explain\" supports single-query requests only"))
		return
	}
	k := req.k
	if k == 0 {
		k = 1
	}
	ctx, cancel := s.requestCtx(r, req.timeoutMS)
	defer cancel()
	if req.explain && trace.FromContext(ctx) == nil {
		// Explain wants stage timings even when server-side tracing is
		// off: give this one request a private trace. It is never
		// registered, so it costs nothing beyond the request itself.
		ctx = trace.NewContext(ctx, trace.New("search", r.Header.Get("traceparent")))
	}
	start := time.Now()
	results, err := s.SearchWithOpts(ctx, name, qs, SearchOpts{K: k, Unsigned: req.unsigned, Explain: req.explain})
	if err != nil {
		if _, ok := s.Collection(name); !ok {
			httpError(w, http.StatusNotFound, err)
			return
		}
		queryError(w, err)
		return
	}
	resp := SearchResponse{TookMS: float64(time.Since(start)) / float64(time.Millisecond)}
	lists := make([][]Hit, len(results))
	for i, res := range results {
		if res.Err != nil {
			queryError(w, res.Err)
			return
		}
		for _, h := range res.Hits {
			// Overflowing queries (finite on the wire, ±Inf/NaN after the
			// inner product) would otherwise kill the JSON encoder
			// mid-response; reject them as client errors instead.
			if math.IsInf(h.Score, 0) || math.IsNaN(h.Score) {
				httpError(w, http.StatusBadRequest,
					fmt.Errorf("query %d produced a non-finite score for record %d", i, h.ID))
				return
			}
		}
		if res.Cached {
			resp.Cached++
		}
		if res.Hits == nil {
			lists[i] = []Hit{} // keep JSON arrays, not nulls
		} else {
			lists[i] = res.Hits
		}
	}
	if single {
		resp.Matches = lists[0]
		if qe := results[0].Explain; qe != nil {
			qe.StageMicros = stageMicros(trace.FromContext(ctx))
			resp.Explain = qe
		}
	} else {
		resp.Results = lists
	}
	writeJSON(w, http.StatusOK, resp)
}

// UpsertResponse reports an upsert outcome. Records is the live count
// after the batch (replacements don't grow it, inserts do); Invalidated
// is as in IngestResponse.
type UpsertResponse struct {
	Collection  string `json:"collection"`
	Upserted    int    `json:"upserted"`
	Records     int    `json:"records"`
	Version     uint64 `json:"version"`
	Invalidated int    `json:"invalidated"`
}

// DeleteVectorsRequest is the POST /collections/{name}/vectors/delete
// body.
type DeleteVectorsRequest struct {
	IDs []int `json:"ids"`
}

// DeleteVectorsResponse reports a delete outcome. Deleted counts the
// records actually removed (unknown IDs are no-ops); Records is the
// live count afterwards; Invalidated is as in IngestResponse.
type DeleteVectorsResponse struct {
	Collection  string `json:"collection"`
	Deleted     int    `json:"deleted"`
	Records     int    `json:"records"`
	Version     uint64 `json:"version"`
	Invalidated int    `json:"invalidated"`
}

// mutationStatus maps an ingest/upsert/delete failure to its HTTP
// status: server faults (WAL/disk failure, shutdown, concurrent drop)
// are retryable 503s, a recovered build panic is a 500, and everything
// else really is a malformed request (bad dimension, duplicate ID, spec
// mismatch, norm bound).
func mutationStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, errInternal):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// serveUpsert runs the upsert batch decoded into wb and writes the
// response; shared by the single-record and batch routes.
func (s *Server) serveUpsert(w http.ResponseWriter, r *http.Request, name string, wb *wireBuf, recs []store.Record) {
	version, invalidated, err := s.UpsertCtx(r.Context(), name, wb.index, wb.shards, recs)
	if err != nil {
		status := mutationStatus(err)
		hintRetry(w, status)
		httpError(w, status, err)
		return
	}
	total := len(recs)
	if c, ok := s.Collection(name); ok {
		total = c.Len()
		c.observeStage("decode", wb.took)
	}
	writeJSON(w, http.StatusOK, UpsertResponse{
		Collection:  name,
		Upserted:    len(recs),
		Records:     total,
		Version:     version,
		Invalidated: invalidated,
	})
}

// handleUpsertOne serves PUT /collections/{name}/vectors/{id}: insert
// or replace a single record. The body is a RecordJSON; a body "id"
// must agree with the path.
func (s *Server) handleUpsertOne(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("record id: %w", err))
		return
	}
	wb, err := s.decodeWire(w, r, (*wireBuf).parseRecord)
	if err != nil {
		bodyError(w, err)
		return
	}
	defer wb.release()
	if rec := &wb.recs[0]; rec.hasID && rec.id != id {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("body id %d disagrees with path id %d", rec.id, id))
		return
	}
	recs := wb.storeRecords()
	recs[0].ID = id
	s.serveUpsert(w, r, name, wb, recs)
}

// handleUpsertBatch serves POST /collections/{name}/vectors: an
// IngestRequest-shaped body whose records must all carry explicit IDs.
func (s *Server) handleUpsertBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	wb, err := s.decodeWire(w, r, (*wireBuf).parseIngest)
	if err != nil {
		bodyError(w, err)
		return
	}
	defer wb.release()
	for i := range wb.recs[:wb.nrecs] {
		if !wb.recs[i].hasID {
			httpError(w, http.StatusBadRequest, fmt.Errorf("record %d: upsert requires an id", i))
			return
		}
	}
	s.serveUpsert(w, r, name, wb, wb.storeRecords())
}

// handleDeleteOne serves DELETE /collections/{name}/vectors/{id}. An
// ID that is not live (never ingested, or already deleted) is a 404.
func (s *Server) handleDeleteOne(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("record id: %w", err))
		return
	}
	version, deleted, invalidated, err := s.Delete(name, []int{id})
	if err != nil {
		status := mutationStatus(err)
		if _, ok := s.Collection(name); !ok {
			status = http.StatusNotFound
		}
		hintRetry(w, status)
		httpError(w, status, err)
		return
	}
	if deleted == 0 {
		httpError(w, http.StatusNotFound, fmt.Errorf("server: collection %q has no record %d", name, id))
		return
	}
	total := 0
	if c, ok := s.Collection(name); ok {
		total = c.Len()
	}
	writeJSON(w, http.StatusOK, DeleteVectorsResponse{
		Collection:  name,
		Deleted:     deleted,
		Records:     total,
		Version:     version,
		Invalidated: invalidated,
	})
}

// handleDeleteBatch serves POST /collections/{name}/vectors/delete.
// Unknown IDs are no-ops, so the route is idempotent; Deleted reports
// how many records the call actually removed.
func (s *Server) handleDeleteBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req DeleteVectorsRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		bodyError(w, err)
		return
	}
	version, deleted, invalidated, err := s.Delete(name, req.IDs)
	if err != nil {
		status := mutationStatus(err)
		if _, ok := s.Collection(name); !ok {
			status = http.StatusNotFound
		}
		hintRetry(w, status)
		httpError(w, status, err)
		return
	}
	total := 0
	if c, ok := s.Collection(name); ok {
		total = c.Len()
	}
	writeJSON(w, http.StatusOK, DeleteVectorsResponse{
		Collection:  name,
		Deleted:     deleted,
		Records:     total,
		Version:     version,
		Invalidated: invalidated,
	})
}

// handleJoin serves the join routes. POST /join names both collections
// in the body. POST /collections/{a}/join/{b} joins data collection P =
// {a} with queries collection Q = {b}; naming the same collection twice
// is a self-join (identity pairs kept unless the body sets exclude_self).
// POST /collections/{name}/join is the self-join of {name}, identity
// pairs always excluded. A named-but-unknown collection maps to 404; shed
// joins 429, expired ones 504; every other rejection — including a body
// that omits the collection names on /join — stays a 400.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		bodyError(w, err)
		return
	}
	if name := r.PathValue("name"); name != "" {
		req = selfJoinRequest(name, req)
	} else if a := r.PathValue("a"); a != "" {
		req.Data, req.Queries = a, r.PathValue("b")
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	resp, err := s.JoinCtx(ctx, req)
	if err != nil {
		if _, ok := s.Collection(req.Data); !ok && req.Data != "" {
			httpError(w, http.StatusNotFound, err)
			return
		}
		if _, ok := s.Collection(req.Queries); !ok && req.Queries != "" {
			httpError(w, http.StatusNotFound, err)
			return
		}
		queryError(w, err)
		return
	}
	for _, p := range resp.Pairs {
		if math.IsInf(p.Value, 0) || math.IsNaN(p.Value) {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("join produced a non-finite value for pair (%d, %d)", p.DataID, p.QueryID))
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// DropResponse reports a DELETE /collections/{name}. Dropped is true
// whenever the collection was removed from serving; Warning carries a
// data-directory cleanup failure (the drop itself still happened — a
// retry would 404 — so this is not reported as an error status).
type DropResponse struct {
	Collection string `json:"collection"`
	Dropped    bool   `json:"dropped"`
	Warning    string `json:"warning,omitempty"`
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	found, err := s.Drop(name)
	if !found {
		httpError(w, http.StatusNotFound, fmt.Errorf("server: unknown collection %q", name))
		return
	}
	resp := DropResponse{Collection: name, Dropped: true}
	if err != nil {
		resp.Warning = fmt.Sprintf("data directory cleanup: %v", err)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is liveness only: is this process able to serve HTTP
// at all? A closed server says no (503) so orchestrators stop routing
// to and eventually replace it; degraded/quarantined collections do
// NOT fail liveness — restarting a process that is mid-repair would
// only lose the repair progress. Readiness lives at /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Closed() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "closed"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"collections": s.Collections(),
	})
}

// handleReadyz is readiness: should a load balancer send traffic here?
// Ready means open and every collection active; a degraded or
// quarantined collection 503s with the offending collections named, so
// traffic prefers replicas that can serve everything.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if err := s.Readiness(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "unready",
			"reason": err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// jsonBufPool recycles response buffers so steady-state serving does
// not allocate (and regrow) an encoder buffer per response. Buffers
// that ballooned on a huge response are dropped rather than pooled.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledJSONBuf = 1 << 20

// writeJSON encodes into a pooled buffer first: once WriteHeader has
// fired, an encoder error (e.g. a non-finite float that slipped past
// the handler checks) could not be reported, and the client would see
// a truncated 200. Buffering turns that into a clean 500 with a
// structured body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(map[string]string{
			"error": fmt.Sprintf("encoding response: %v", err),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledJSONBuf {
		jsonBufPool.Put(buf)
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
