package server

// Tests for the observability plane: query explain, the slow-query
// log, the /debug endpoints, and a promtool-style validation of the
// /metrics exposition.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// explainFixture ingests n gaussian vectors into one collection over
// the handler and returns the test server.
func explainFixture(t *testing.T, s *Server, name string, spec *IndexSpec, shards, n, dim int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	rng := xrand.New(7)
	items := dataset.Gaussian(rng, n, dim, false)
	recs := make([]RecordJSON, len(items))
	for i, v := range items {
		id := i
		recs[i] = RecordJSON{ID: &id, Vec: v}
	}
	if code := doJSON(t, ts, http.MethodPut, "/collections/"+name,
		IngestRequest{Index: spec, Shards: shards, Records: recs}, nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	return ts
}

// TestExplainInt8ConsistentWithStats is the acceptance check: explain
// on an int8 collection reports per-shard scan counts that agree with
// /stats, names rerank candidates, and flags the cache hit on a
// repeat. Tracing is deliberately left off — explain must work anyway.
func TestExplainInt8ConsistentWithStats(t *testing.T) {
	s := New(Config{DefaultShards: 3, CacheCapacity: 32})
	defer s.Close()
	ts := explainFixture(t, s, "q8", &IndexSpec{Kind: KindExact, Precision: PrecisionI8}, 3, 300, 8)

	q := make([]float64, 8)
	q[0] = 1
	var resp SearchResponse
	if code := doJSON(t, ts, http.MethodPost, "/collections/q8/search",
		SearchRequest{Q: q, K: 5, Explain: true}, &resp); code != http.StatusOK {
		t.Fatalf("explain search status %d", code)
	}
	qe := resp.Explain
	if qe == nil {
		t.Fatal("explain: true returned no explain block")
	}
	if qe.Precision != PrecisionI8 || qe.Index != KindExact || qe.K != 5 || !qe.Rerank {
		t.Fatalf("explain header wrong: %+v", qe)
	}
	if qe.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	if len(qe.Shards) != 3 {
		t.Fatalf("explain has %d shards, want 3", len(qe.Shards))
	}

	var st Stats
	if code := doJSON(t, ts, http.MethodGet, "/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	cs := st.Collections["q8"]
	if len(cs.Shards) != 3 {
		t.Fatalf("stats has %d shards, want 3", len(cs.Shards))
	}
	var totalRows int
	for _, shx := range qe.Shards {
		ss := cs.Shards[shx.Shard]
		// No tombstones: an exact int8 scan reads every physical row
		// the shard holds, which is exactly the /stats record count.
		if shx.RowsScanned != ss.Records {
			t.Fatalf("shard %d scanned %d rows, /stats says %d records", shx.Shard, shx.RowsScanned, ss.Records)
		}
		if shx.Live != ss.Live {
			t.Fatalf("shard %d explain live=%d, /stats live=%d", shx.Shard, shx.Live, ss.Live)
		}
		if shx.RerankCandidates <= 0 {
			t.Fatalf("shard %d: int8 always re-ranks, yet rerank_candidates=%d", shx.Shard, shx.RerankCandidates)
		}
		totalRows += shx.RowsScanned
	}
	if totalRows != 300 || qe.RowsScanned != totalRows {
		t.Fatalf("total rows scanned %d (aggregate %d), want 300", totalRows, qe.RowsScanned)
	}
	if qe.RerankCandidates <= 0 {
		t.Fatalf("aggregate rerank_candidates=%d, want > 0", qe.RerankCandidates)
	}
	if _, ok := qe.StageMicros["scan"]; !ok {
		t.Fatalf("stage_micros misses the scan stage: %v", qe.StageMicros)
	}

	// The same query again is a cache hit, and explain says so.
	var again SearchResponse
	if code := doJSON(t, ts, http.MethodPost, "/collections/q8/search",
		SearchRequest{Q: q, K: 5, Explain: true}, &again); code != http.StatusOK {
		t.Fatalf("repeat search status %d", code)
	}
	if again.Explain == nil || !again.Explain.CacheHit {
		t.Fatalf("repeat query explain = %+v, want cache_hit", again.Explain)
	}

	// Batched explain is rejected up front.
	req, _ := json.Marshal(SearchRequest{Queries: [][]float64{q, q}, K: 5, Explain: true})
	hr, err := ts.Client().Post(ts.URL+"/collections/q8/search", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatalf("batch explain: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch explain status %d, want 400", hr.StatusCode)
	}
}

// explainSearch runs one explained search and returns its explain block.
func explainSearch(t *testing.T, ts *httptest.Server, name string, q []float64, k int) *QueryExplain {
	t.Helper()
	var resp SearchResponse
	if code := doJSON(t, ts, http.MethodPost, "/collections/"+name+"/search",
		SearchRequest{Q: q, K: k, Explain: true}, &resp); code != http.StatusOK {
		t.Fatalf("%s: explain search status %d", name, code)
	}
	if resp.Explain == nil {
		t.Fatalf("%s: no explain block", name)
	}
	return resp.Explain
}

// TestExplainCountsPrunedBlocks checks every scan engine surfaces the
// driver's own block accounting through explain: the normscan kind
// its Cauchy–Schwarz pruning, the exact kinds at both precisions a
// whole tombstoned block skipped — with rows scanned, pruned blocks and
// skipped blocks always partitioning the shard.
func TestExplainCountsPrunedBlocks(t *testing.T) {
	s := New(Config{DefaultShards: 2, CacheCapacity: -1, CompactFraction: -1})
	defer s.Close()
	const block = 256 // flat's row block

	// A near-zero-norm query keeps every block prunable except those
	// needed to fill k; a tiny k maximizes pruning.
	q := make([]float64, 8)
	q[0] = 1e-9
	name := "ns"
	ts := explainFixture(t, s, name, &IndexSpec{Kind: KindNormScan}, 2, 4000, 8)
	var pruned, scanned int
	for _, shx := range explainSearch(t, ts, name, q, 1).Shards {
		pruned += shx.CSPrunedBlocks
		scanned += shx.RowsScanned
		blocks := (shx.RowsScanned+block-1)/block + shx.CSPrunedBlocks + shx.TombstoneSkippedBlocks
		if want := (shx.Records + block - 1) / block; blocks != want {
			t.Fatalf("%s shard %d: explain covers %d of %d blocks: %+v", name, shx.Shard, blocks, want, shx)
		}
	}
	if pruned == 0 {
		t.Fatalf("%s explain reports no pruned blocks (scanned %d rows)", name, scanned)
	}
	if scanned >= 4000 {
		t.Fatalf("%s: pruning claimed but all %d rows scanned", name, scanned)
	}

	// One shard holds rows in ingest order, so deleting ids 256..511
	// tombstones exactly its second block.
	var doomed []int
	for id := block; id < 2*block; id++ {
		doomed = append(doomed, id)
	}
	for _, precision := range []string{PrecisionF64, PrecisionI8} {
		name := "exact-" + precision
		ts := explainFixture(t, s, name, &IndexSpec{Kind: KindExact, Precision: precision}, 1, 700, 8)
		if _, deleted, _, err := s.Delete(name, doomed); err != nil || deleted != block {
			t.Fatalf("%s: delete: %v (deleted %d)", name, err, deleted)
		}
		shx := explainSearch(t, ts, name, q, 3).Shards[0]
		if shx.TombstoneSkippedBlocks < 1 || shx.CSPrunedBlocks != 0 || shx.RowsScanned != 700-block {
			t.Fatalf("%s: explain %+v, want one skipped block and %d rows scanned", name, shx, 700-block)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer usable as an slog sink
// written to from server goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestMain holds the package's log lines in memory — the simulator alone
// degrades and repairs collections hundreds of times a run — and writes
// them to stderr only when a test fails. The tests that read the log
// swap in their own default and put this one back.
func TestMain(m *testing.M) {
	var logs syncBuffer
	slog.SetDefault(slog.New(slog.NewTextHandler(&logs, nil)))
	code := m.Run()
	if code != 0 {
		os.Stderr.WriteString(logs.String())
	}
	os.Exit(code)
}

// TestSlowQueryLogAndDebugTrace drives a traced server with a
// threshold of ~0, captures the structured slow-query line, and
// resolves its trace id at /debug/trace/{id}.
func TestSlowQueryLogAndDebugTrace(t *testing.T) {
	var logs syncBuffer
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&logs, nil)))
	defer slog.SetDefault(old)

	s := New(Config{DefaultShards: 2, CacheCapacity: -1, Tracing: true})
	defer s.Close()
	s.slowQuery = time.Nanosecond // everything is slow
	ts := explainFixture(t, s, "slow", &IndexSpec{Kind: KindExact}, 2, 100, 8)

	q := make([]float64, 8)
	q[0] = 1
	if code := doJSON(t, ts, http.MethodPost, "/collections/slow/search",
		SearchRequest{Q: q, K: 3}, nil); code != http.StatusOK {
		t.Fatalf("search status %d", code)
	}

	// The slow line is written after the handler body, so the client
	// can win the race to here; poll briefly.
	var line map[string]any
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, l := range strings.Split(logs.String(), "\n") {
			if !strings.Contains(l, "slow request") || !strings.Contains(l, `"route":"search"`) {
				continue
			}
			if err := json.Unmarshal([]byte(l), &line); err != nil {
				t.Fatalf("slow-query line is not JSON: %v\n%s", err, l)
			}
		}
		if line != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if line == nil {
		t.Fatalf("no slow-query line for route=search in:\n%s", logs.String())
	}
	id, _ := line["trace_id"].(string)
	if id == "" {
		t.Fatalf("slow-query line carries no trace_id: %v", line)
	}
	if col, _ := line["collection"].(string); col != "slow" {
		t.Fatalf("slow-query line collection = %q, want slow", col)
	}
	if _, ok := line["spans"]; !ok {
		t.Fatalf("slow-query line has no span tree: %v", line)
	}

	// The id from the log line resolves at /debug/trace/{id}.
	var exp trace.Exported
	if code := doJSON(t, ts, http.MethodGet, "/debug/trace/"+id, nil, &exp); code != http.StatusOK {
		t.Fatalf("debug trace status %d for id %q", code, id)
	}
	if exp.TraceID != id || exp.Route != "search" || exp.Active {
		t.Fatalf("debug trace = %+v, want finished search trace %s", exp, id)
	}
	found := false
	for _, sp := range exp.Spans {
		if sp.Name == "scan" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace has no scan span: %+v", exp.Spans)
	}

	// An unknown id is a 404, not an empty 200.
	if code := doJSON(t, ts, http.MethodGet, "/debug/trace/ffffffffffffffffffffffffffffffff", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace id status %d, want 404", code)
	}
}

// TestDebugRequests exercises the recent-by-route ring and the
// tracing-disabled 404.
func TestDebugRequests(t *testing.T) {
	s := New(Config{DefaultShards: 2, CacheCapacity: -1, Tracing: true, TraceBuffer: 4})
	defer s.Close()
	ts := explainFixture(t, s, "dbg", &IndexSpec{Kind: KindExact}, 2, 50, 4)

	q := []float64{1, 0, 0, 0}
	for i := 0; i < 6; i++ {
		if code := doJSON(t, ts, http.MethodPost, "/collections/dbg/search",
			SearchRequest{Q: q, K: 2}, nil); code != http.StatusOK {
			t.Fatalf("search %d status %d", i, code)
		}
	}
	var dbg DebugRequests
	if code := doJSON(t, ts, http.MethodGet, "/debug/requests", nil, &dbg); code != http.StatusOK {
		t.Fatalf("debug requests status %d", code)
	}
	recent := dbg.Recent["search"]
	if len(recent) != 4 {
		t.Fatalf("search ring holds %d traces, want 4 (TraceBuffer)", len(recent))
	}
	for i, e := range recent {
		if e.Route != "search" || e.Active || e.Collection != "dbg" {
			t.Fatalf("recent[%d] = %+v, want finished search trace on dbg", i, e)
		}
		if i > 0 && e.Start.After(recent[i-1].Start) {
			t.Fatalf("recent traces not newest-first: %v after %v", recent[i-1].Start, e.Start)
		}
	}
	// The ingest that seeded the fixture is in its own route ring.
	if len(dbg.Recent["ingest"]) == 0 {
		t.Fatalf("ingest route missing from recent: %v", dbg.Recent)
	}

	// Tracing disabled: the debug plane 404s.
	s2 := New(Config{DefaultShards: 1})
	defer s2.Close()
	ts2 := httptest.NewServer(NewHandler(s2))
	defer ts2.Close()
	if code := doJSON(t, ts2, http.MethodGet, "/debug/requests", nil, nil); code != http.StatusNotFound {
		t.Fatalf("debug requests with tracing off: status %d, want 404", code)
	}
	if code := doJSON(t, ts2, http.MethodGet, "/debug/trace/abc", nil, nil); code != http.StatusNotFound {
		t.Fatalf("debug trace with tracing off: status %d, want 404", code)
	}
}

// TestTraceparentPropagation checks an inbound W3C traceparent is
// adopted (same trace id, new span id) and echoed on the response.
func TestTraceparentPropagation(t *testing.T) {
	s := New(Config{DefaultShards: 1, Tracing: true})
	defer s.Close()
	ts := explainFixture(t, s, "tp", &IndexSpec{Kind: KindExact}, 1, 10, 4)

	body, _ := json.Marshal(SearchRequest{Q: []float64{1, 0, 0, 0}, K: 1})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/collections/tp/search", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	const inID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req.Header.Set("traceparent", "00-"+inID+"-00f067aa0ba902b7-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	resp.Body.Close()
	echo := resp.Header.Get("Traceparent")
	gotID, gotSpan, ok := trace.Parse(echo)
	if !ok || gotID != inID {
		t.Fatalf("response traceparent %q does not adopt inbound trace id %s", echo, inID)
	}
	if gotSpan == "00f067aa0ba902b7" {
		t.Fatal("server echoed the client's span id instead of minting its own")
	}
	var exp trace.Exported
	if code := doJSON(t, ts, http.MethodGet, "/debug/trace/"+inID, nil, &exp); code != http.StatusOK {
		t.Fatalf("adopted trace id not resolvable: status %d", code)
	}
	if exp.ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("parent span id = %q, want the client's", exp.ParentSpanID)
	}
}

// promNameRe is the exposition-format metric/label name grammar.
var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// validatePromText is a promtool-check-metrics-style validator for the
// Prometheus text exposition format. It enforces:
//
//   - every sample belongs to a family announced by # HELP and # TYPE
//     lines that precede its first sample, each appearing exactly once;
//   - families are contiguous (a family never reopens after another
//     family's samples began);
//   - metric names match the name grammar; label values are properly
//     quoted with only \\, \", \n escapes;
//   - histogram buckets are cumulative (monotone nondecreasing in file
//     order), end at le="+Inf", and the +Inf bucket equals _count;
//   - every histogram label set has exactly one _sum and one _count.
func validatePromText(t *testing.T, text string) {
	t.Helper()
	helpSeen := map[string]bool{}
	typeSeen := map[string]string{}
	closed := map[string]bool{} // family → samples ended
	current := ""
	type histState struct {
		buckets map[string][]float64 // labels-minus-le → cumulative counts
		lastLe  map[string]string
		sum     map[string]int
		count   map[string]float64
		hasInf  map[string]bool
	}
	hists := map[string]*histState{}

	family := func(name string) string {
		for fam, typ := range typeSeen {
			if typ == "histogram" {
				for _, suf := range []string{"_bucket", "_sum", "_count"} {
					if name == fam+suf {
						return fam
					}
				}
			}
		}
		return name
	}

	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d: %s\n%s", lineNo, fmt.Sprintf(format, args...), line)
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				fail("malformed comment")
			}
			name := fields[2]
			if !promNameRe.MatchString(name) {
				fail("bad metric name %q", name)
			}
			if closed[name] {
				fail("family %s reopened after other samples", name)
			}
			if fields[1] == "HELP" {
				if helpSeen[name] {
					fail("duplicate HELP for %s", name)
				}
				helpSeen[name] = true
			} else {
				if _, dup := typeSeen[name]; dup {
					fail("duplicate TYPE for %s", name)
				}
				typeSeen[name] = fields[3]
			}
			continue
		}

		// Sample line: name[{labels}] value
		name := line
		labels := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			j := strings.LastIndexByte(line, '}')
			if j < i {
				fail("unbalanced label braces")
			}
			labels = line[i+1 : j]
			rest := strings.TrimSpace(line[j+1:])
			if _, err := strconv.ParseFloat(rest, 64); err != nil {
				fail("bad sample value %q", rest)
			}
		} else {
			i := strings.IndexByte(line, ' ')
			if i < 0 {
				fail("no value")
			}
			name = line[:i]
			if _, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64); err != nil {
				fail("bad sample value")
			}
		}
		if !promNameRe.MatchString(name) {
			fail("bad metric name %q", name)
		}
		fam := family(name)
		if !helpSeen[fam] || typeSeen[fam] == "" {
			fail("sample for %s (family %s) before HELP+TYPE", name, fam)
		}
		if closed[fam] {
			fail("family %s reopened", fam)
		}
		if current != fam {
			if current != "" {
				closed[current] = true
			}
			current = fam
		}

		// Parse labels, checking names and escaping.
		le := ""
		var nonLe []string
		for rest := labels; rest != ""; {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				fail("label without value in %q", labels)
			}
			lname := rest[:eq]
			if !promNameRe.MatchString(lname) {
				fail("bad label name %q", lname)
			}
			if len(rest) < eq+2 || rest[eq+1] != '"' {
				fail("unquoted label value in %q", labels)
			}
			v := rest[eq+2:]
			end, esc := -1, false
			for i := 0; i < len(v); i++ {
				if esc {
					if v[i] != '\\' && v[i] != '"' && v[i] != 'n' {
						fail("invalid escape \\%c in label value", v[i])
					}
					esc = false
					continue
				}
				if v[i] == '\\' {
					esc = true
				} else if v[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				fail("unterminated label value in %q", labels)
			}
			val := v[:end]
			if lname == "le" {
				le = val
			} else {
				nonLe = append(nonLe, lname+"="+val)
			}
			rest = v[end+1:]
			rest = strings.TrimPrefix(rest, ",")
		}

		if typeSeen[fam] == "histogram" {
			h := hists[fam]
			if h == nil {
				h = &histState{
					buckets: map[string][]float64{}, lastLe: map[string]string{},
					sum: map[string]int{}, count: map[string]float64{}, hasInf: map[string]bool{},
				}
				hists[fam] = h
			}
			key := strings.Join(nonLe, ",")
			val, _ := strconv.ParseFloat(strings.TrimSpace(line[strings.LastIndexByte(line, ' ')+1:]), 64)
			switch {
			case name == fam+"_bucket":
				if le == "" {
					fail("histogram bucket without le label")
				}
				bs := h.buckets[key]
				if len(bs) > 0 && val < bs[len(bs)-1] {
					fail("bucket counts not cumulative for {%s}: %g after %g", key, val, bs[len(bs)-1])
				}
				h.buckets[key] = append(bs, val)
				h.lastLe[key] = le
				if le == "+Inf" {
					h.hasInf[key] = true
				}
			case name == fam+"_sum":
				h.sum[key]++
			case name == fam+"_count":
				h.count[key] = val
			default:
				fail("histogram family %s has plain sample %s", fam, name)
			}
		}
	}
	for fam, h := range hists {
		for key, bs := range h.buckets {
			if !h.hasInf[key] || h.lastLe[key] != "+Inf" {
				t.Fatalf("%s{%s}: bucket series does not end at le=\"+Inf\"", fam, key)
			}
			cnt, ok := h.count[key]
			if !ok {
				t.Fatalf("%s{%s}: no _count", fam, key)
			}
			if h.sum[key] != 1 {
				t.Fatalf("%s{%s}: %d _sum samples, want 1", fam, key, h.sum[key])
			}
			if bs[len(bs)-1] != cnt {
				t.Fatalf("%s{%s}: +Inf bucket %g != count %g", fam, key, bs[len(bs)-1], cnt)
			}
		}
	}
}

// TestMetricsPromFormat drives traffic through a traced server and
// validates the whole /metrics page, including the new
// ipsd_stage_seconds and runtime/build-info series.
func TestMetricsPromFormat(t *testing.T) {
	s := New(Config{DefaultShards: 2, CacheCapacity: 32, Tracing: true})
	defer s.Close()
	ts := explainFixture(t, s, "m\"x\\y", &IndexSpec{Kind: KindExact}, 2, 100, 4)

	q := []float64{1, 0, 0, 0}
	for i := 0; i < 3; i++ {
		if code := doJSON(t, ts, http.MethodPost, `/collections/m"x\y/search`,
			SearchRequest{Q: q, K: 2}, nil); code != http.StatusOK {
			t.Fatalf("search status %d", code)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	text := buf.String()
	validatePromText(t, text)

	for _, want := range []string{
		"ipsd_stage_seconds_bucket{stage=\"scan\",",
		"go_goroutines ",
		"go_gc_cycles_total ",
		"ipsd_build_info{version=",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics page misses %q", want)
		}
	}
}

// TestJoinScanSpanCountsWork: a traced join says what it scored, as a
// traced search does — rows_scanned is the response's Compared, and the
// driver's block counters say what the norm bound and the tombstones
// saved. An int8 join sweeps the same blocks of codes as the f64 join
// of the same rows and re-ranks some of them (rerank_candidates).
func TestJoinScanSpanCountsWork(t *testing.T) {
	s := New(Config{CacheCapacity: -1, CompactFraction: -1})
	defer s.Close()
	const n, nq, block = 700, 30, 256
	explainFixture(t, s, "rows", &IndexSpec{Kind: KindExact}, 1, n, 8)
	explainFixture(t, s, "codes", &IndexSpec{Kind: KindExact, Precision: PrecisionI8}, 1, n, 8)
	explainFixture(t, s, "sorted", &IndexSpec{Kind: KindNormScan}, 1, n, 8)
	explainFixture(t, s, "q", nil, 1, nq, 8)
	// One shard holds rows in ingest order, so ids 256..511 are exactly
	// its second block.
	doomed := make([]int, block)
	for i := range doomed {
		doomed[i] = block + i
	}
	for _, name := range []string{"rows", "codes"} {
		if _, deleted, _, err := s.Delete(name, doomed); err != nil || deleted != block {
			t.Fatalf("delete from %s: %v (deleted %d)", name, err, deleted)
		}
	}
	scanSpan := func(req JoinRequest) (*JoinResponse, map[string]int64) {
		tr := trace.New("join", "")
		resp, err := s.JoinCtx(trace.NewContext(context.Background(), tr), req)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range tr.Export().Spans {
			if sp.Name == "scan" {
				return resp, sp.Attrs
			}
		}
		t.Fatalf("no scan span in %+v", tr.Export())
		return nil, nil
	}

	resp, attrs := scanSpan(JoinRequest{Data: "rows", Queries: "q", Engine: "exact", S: 0.5})
	if want := int64((n - block) * nq); resp.Compared != want || attrs["rows_scanned"] != want ||
		attrs["tombstone_skipped_blocks"] != nq || attrs["cs_pruned_blocks"] != 0 {
		t.Fatalf("exact join over a dead block: compared %d, span %v; want %d rows and one skipped block per query", resp.Compared, attrs, want)
	}
	if attrs["rerank_candidates"] != 0 {
		t.Fatalf("f64 join re-ranked: span %v", attrs)
	}
	resp8, attrs8 := scanSpan(JoinRequest{Data: "codes", Queries: "q", Engine: "exact", S: 0.5})
	if resp8.Compared != resp.Compared || attrs8["rows_scanned"] != attrs["rows_scanned"] ||
		attrs8["tombstone_skipped_blocks"] != attrs["tombstone_skipped_blocks"] ||
		attrs8["rerank_candidates"] <= 0 || attrs8["rerank_candidates"] > attrs8["rows_scanned"] {
		t.Fatalf("int8 join: compared %d, span %v; f64 join: compared %d, span %v", resp8.Compared, attrs8, resp.Compared, attrs)
	}
	samePairs(t, "int8 join", resp.Pairs, resp8.Pairs)

	// A threshold no pair reaches: the bound stops every query early.
	resp, attrs = scanSpan(JoinRequest{Data: "sorted", Queries: "q", Engine: "normpruned", S: 1e6})
	if attrs["rows_scanned"] != resp.Compared || resp.Compared >= n*nq || attrs["cs_pruned_blocks"] == 0 || attrs["tombstone_skipped_blocks"] != 0 {
		t.Fatalf("pruned join: compared %d of %d, span %v", resp.Compared, n*nq, attrs)
	}
	if blocks := (n + block - 1) / block * nq; int(attrs["cs_pruned_blocks"])+int(resp.Compared+block-1)/block < blocks {
		t.Fatalf("pruned join accounts for fewer than %d blocks: compared %d, span %v", blocks, resp.Compared, attrs)
	}
}
