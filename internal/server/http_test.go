package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func doJSON(t *testing.T, ts *httptest.Server, method, path string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encoding request: %v", err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPAPI(t *testing.T) {
	s := New(Config{DefaultShards: 4, CacheCapacity: 32})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	rng := xrand.New(21)
	items := dataset.Gaussian(rng, 200, 8, false)
	users := dataset.Gaussian(rng, 30, 8, false)

	// Bulk ingest with explicit IDs.
	recs := make([]RecordJSON, len(items))
	for i, v := range items {
		id := i
		recs[i] = RecordJSON{ID: &id, Vec: v}
	}
	var ing IngestResponse
	if code := doJSON(t, ts, http.MethodPut, "/collections/items",
		IngestRequest{Index: &IndexSpec{Kind: KindExact}, Shards: 4, Records: recs}, &ing); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if ing.Records != len(items) || ing.Version != 1 {
		t.Fatalf("ingest response %+v", ing)
	}

	// Single search.
	var single SearchResponse
	if code := doJSON(t, ts, http.MethodPost, "/collections/items/search",
		SearchRequest{Q: users[0], K: 5}, &single); code != http.StatusOK {
		t.Fatalf("single search status %d", code)
	}
	if len(single.Matches) != 5 {
		t.Fatalf("single search returned %d matches, want 5", len(single.Matches))
	}

	// Batched search agrees with the single answers.
	qs := make([][]float64, len(users))
	for i, u := range users {
		qs[i] = u
	}
	var batch SearchResponse
	if code := doJSON(t, ts, http.MethodPost, "/collections/items/search",
		SearchRequest{Queries: qs, K: 5}, &batch); code != http.StatusOK {
		t.Fatalf("batch search status %d", code)
	}
	if len(batch.Results) != len(users) {
		t.Fatalf("batch returned %d result lists, want %d", len(batch.Results), len(users))
	}
	for i := range batch.Results[0] {
		if batch.Results[0][i] != single.Matches[i] {
			t.Fatalf("batch result %d = %+v, single = %+v", i, batch.Results[0][i], single.Matches[i])
		}
	}

	// The repeat single query must be cache-served.
	var repeat SearchResponse
	doJSON(t, ts, http.MethodPost, "/collections/items/search", SearchRequest{Q: users[0], K: 5}, &repeat)
	if repeat.Cached != 1 {
		t.Fatalf("repeat search cached=%d, want 1", repeat.Cached)
	}

	// Join between two served collections.
	urecs := make([]RecordJSON, len(users))
	for i, v := range users {
		id := i
		urecs[i] = RecordJSON{ID: &id, Vec: v}
	}
	doJSON(t, ts, http.MethodPut, "/collections/users", IngestRequest{Records: urecs}, nil)
	var jr JoinResponse
	if code := doJSON(t, ts, http.MethodPost, "/join",
		JoinRequest{Data: "items", Queries: "users", Engine: "exact", S: 0.5}, &jr); code != http.StatusOK {
		t.Fatalf("join status %d", code)
	}
	if jr.Engine != "tiled" || jr.Compared != int64(len(items)*len(users)) {
		t.Fatalf("join response %+v", jr)
	}

	// Health and stats.
	var hz map[string]any
	if code := doJSON(t, ts, http.MethodGet, "/healthz", nil, &hz); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	var st Stats
	if code := doJSON(t, ts, http.MethodGet, "/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	cs, ok := st.Collections["items"]
	if !ok {
		t.Fatal("stats missing collection items")
	}
	if cs.Records != len(items) || len(cs.Shards) != 4 {
		t.Fatalf("stats collection %+v", cs)
	}
	total := 0
	for _, sh := range cs.Shards {
		total += sh.Records
	}
	if total != len(items) {
		t.Fatalf("shard sizes sum to %d, want %d", total, len(items))
	}
	if cs.Latency.P50 < 0 || cs.Latency.P99 < cs.Latency.P50 {
		t.Fatalf("implausible latency summary %+v", cs.Latency)
	}

	// Error paths.
	var e map[string]string
	if code := doJSON(t, ts, http.MethodPost, "/collections/nope/search",
		SearchRequest{Q: users[0], K: 1}, &e); code != http.StatusNotFound {
		t.Fatalf("unknown collection status %d (%v)", code, e)
	}
	if code := doJSON(t, ts, http.MethodPost, "/collections/items/search",
		SearchRequest{K: 1}, &e); code != http.StatusBadRequest {
		t.Fatalf("empty query status %d", code)
	}
	if code := doJSON(t, ts, http.MethodPost, "/collections/items/search",
		SearchRequest{Q: []float64{1}, K: 1}, &e); code != http.StatusBadRequest {
		t.Fatalf("dimension mismatch status %d", code)
	}
	if code := doJSON(t, ts, http.MethodPut, "/collections/items",
		IngestRequest{Index: &IndexSpec{Kind: KindALSH}}, &e); code != http.StatusBadRequest {
		t.Fatalf("index respec status %d", code)
	}
}

// TestHTTPDimensionMismatch pins the structured-400 contract for every
// dimension-mismatch path: mixed-dimension ingest batches, follow-up
// batches that disagree with the collection, single and batched queries
// of the wrong width, and overflow queries whose scores are not
// JSON-representable. None of these may panic or return a non-JSON
// body — they used to be able to reach vec.Dot's panic (or kill the
// JSON encoder mid-response) through the index engines.
func TestHTTPDimensionMismatch(t *testing.T) {
	for _, kind := range []string{KindExact, KindNormScan, KindALSH} {
		t.Run(kind, func(t *testing.T) {
			s := New(Config{DefaultShards: 2})
			defer s.Close()
			ts := httptest.NewServer(NewHandler(s))
			defer ts.Close()

			var e map[string]string
			// Mixed dimensions inside the very first batch.
			if code := doJSON(t, ts, http.MethodPut, "/collections/c",
				IngestRequest{Index: &IndexSpec{Kind: kind}, Records: []RecordJSON{
					{Vec: []float64{1, 0, 0}},
					{Vec: []float64{1, 0}},
				}}, &e); code != http.StatusBadRequest || e["error"] == "" {
				t.Fatalf("mixed-dimension first batch: status %d, error %q", code, e["error"])
			}
			// A rejected batch must leave no records behind.
			if code := doJSON(t, ts, http.MethodPut, "/collections/c",
				IngestRequest{Index: &IndexSpec{Kind: kind}, Records: []RecordJSON{
					{Vec: []float64{0.6, 0, 0}},
					{Vec: []float64{0, 0.6, 0}},
				}}, nil); code != http.StatusOK {
				t.Fatalf("clean ingest after rejected batch: status %d", code)
			}
			// A follow-up batch with the wrong dimension.
			if code := doJSON(t, ts, http.MethodPut, "/collections/c",
				IngestRequest{Records: []RecordJSON{{Vec: []float64{1, 2, 3, 4}}}}, &e); code != http.StatusBadRequest || e["error"] == "" {
				t.Fatalf("wrong-dimension follow-up batch: status %d, error %q", code, e["error"])
			}
			// Single query, wrong width.
			if code := doJSON(t, ts, http.MethodPost, "/collections/c/search",
				SearchRequest{Q: []float64{1, 0}}, &e); code != http.StatusBadRequest || e["error"] == "" {
				t.Fatalf("wrong-dimension single query: status %d, error %q", code, e["error"])
			}
			// Batch where only the second query is malformed.
			if code := doJSON(t, ts, http.MethodPost, "/collections/c/search",
				SearchRequest{Queries: [][]float64{{1, 0, 0}, {1, 0, 0, 0, 0}}}, &e); code != http.StatusBadRequest || e["error"] == "" {
				t.Fatalf("wrong-dimension batched query: status %d, error %q", code, e["error"])
			}
			// Well-formed request, and the collection still serves.
			var ok SearchResponse
			if code := doJSON(t, ts, http.MethodPost, "/collections/c/search",
				SearchRequest{Q: []float64{1, 0, 0}, K: 2, Unsigned: true}, &ok); code != http.StatusOK {
				t.Fatalf("valid query after mismatches: status %d", code)
			}
			// Exact engines must return both records; alsh is
			// candidate-based and may legitimately miss.
			if kind != KindALSH && len(ok.Matches) != 2 {
				t.Fatalf("valid query returned %d matches, want 2", len(ok.Matches))
			}
		})
	}
}

// TestHTTPNonFiniteScores pins the fuzz-found encoder bug: a finite
// query whose inner products overflow to ±Inf must yield a structured
// 400, not an empty 200 from a failed JSON encode.
func TestHTTPNonFiniteScores(t *testing.T) {
	s := New(Config{DefaultShards: 1})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	if code := doJSON(t, ts, http.MethodPut, "/collections/big",
		IngestRequest{Records: []RecordJSON{{Vec: []float64{1e308, 1e308}}}}, nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	var e map[string]string
	if code := doJSON(t, ts, http.MethodPost, "/collections/big/search",
		SearchRequest{Q: []float64{1e308, 1e308}}, &e); code != http.StatusBadRequest || e["error"] == "" {
		t.Fatalf("overflowing query: status %d, error %q (want 400 with error)", code, e["error"])
	}
}

// TestHTTPUnboundedK: a k or topk past every collection's size sizes
// nothing by it — a query has at most as many hits as the pinned
// snapshots hold rows — and returns the full answer. Two rows on four
// shards, searched at k = 2^40 and 2^62 and joined at topk = 2^40 and
// MaxInt, on the pair route and on the self-join route, whose identity
// exclusion asks one more hit of each query; an alsh copy is joined by
// the lsh engine at MaxInt.
func TestHTTPUnboundedK(t *testing.T) {
	s := New(Config{DefaultShards: 4})
	defer s.Close()
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	recs := []store.Record{{ID: 0, Vec: vec.Vector{1, 0}}, {ID: 1, Vec: vec.Vector{0.5, 0.5}}}
	mustIngest(t, s, "c", nil, 0, recs)
	for _, k := range []int{1 << 40, 1 << 62} {
		var resp SearchResponse
		if code := doJSON(t, ts, http.MethodPost, "/collections/c/search", SearchRequest{Q: []float64{1, 1}, K: k}, &resp); code != http.StatusOK ||
			!reflect.DeepEqual(resp.Matches, []Hit{{ID: 0, Score: 1}, {ID: 1, Score: 1}}) {
			t.Fatalf("k = %d: status %d, matches %v", k, code, resp.Matches)
		}
	}
	for _, topk := range []int{1 << 40, math.MaxInt} {
		for _, self := range []bool{false, true} {
			path := "/collections/c/join/c"
			if self {
				path = "/collections/c/join"
			}
			label := fmt.Sprintf("%s topk = %d", path, topk)
			var resp JoinResponse
			if code := doJSON(t, ts, http.MethodPost, path, JoinRequest{S: 0.5, TopK: topk}, &resp); code != http.StatusOK {
				t.Fatalf("%s: status %d", label, code)
			}
			samePairs(t, label, bruteJoin(recs, recs, 0.5, false, topk, self), resp.Pairs)
		}
	}
	mustIngest(t, s, "a", &IndexSpec{Kind: KindALSH}, 0, recs)
	var resp JoinResponse
	if code := doJSON(t, ts, http.MethodPost, "/collections/a/join", JoinRequest{S: 0.5, Engine: "lsh", TopK: math.MaxInt}, &resp); code != http.StatusOK {
		t.Fatalf("lsh self-join at topk = MaxInt: status %d", code)
	}
}
