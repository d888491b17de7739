package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// The precision-tier grid: the int8 tier's re-rank pipeline must
// reproduce the f64 exact scan's answers bit for bit on the planted
// latent-factor workload (the tier retains the f64 rows exactly).

// tierServer builds a single-purpose server over items with the given
// spec (cache off, 2 shards, so the merge path is exercised).
func tierServer(t *testing.T, spec IndexSpec, items []vec.Vector) *Server {
	t.Helper()
	s := New(Config{DefaultShards: 2, CacheCapacity: -1})
	t.Cleanup(func() { s.Close() })
	if _, _, err := s.Ingest("items", &spec, 2, records(items, 0)); err != nil {
		t.Fatalf("ingest %q/%q: %v", spec.kind(), spec.precision(), err)
	}
	return s
}

// searchOpts answers every query one at a time under opts.
func searchOpts(t *testing.T, s *Server, queries []vec.Vector, opts SearchOpts) [][]Hit {
	t.Helper()
	out := make([][]Hit, len(queries))
	for i, q := range queries {
		res, err := s.SearchWithOpts(context.Background(), "items", []vec.Vector{q}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
		out[i] = res[0].Hits
	}
	return out
}

// sameHitsBitExact requires identical IDs, order, and score bits.
func sameHitsBitExact(got, want [][]Hit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range want[i] {
			if got[i][j].ID != want[i][j].ID ||
				math.Float64bits(got[i][j].Score) != math.Float64bits(want[i][j].Score) {
				return false
			}
		}
	}
	return true
}

// TestPrecisionTierEquivalence is the tier grid on the latent-factor
// workload: int8 (always re-ranked from its certified candidates) is
// bit-identical to the f64 scan of the same rows, both variants, one
// query at a time and as a batch.
func TestPrecisionTierEquivalence(t *testing.T) {
	items, queries := recallWorkload(424242)
	const k = 10

	refRaw := tierServer(t, IndexSpec{Kind: KindExact}, items)
	i8 := tierServer(t, IndexSpec{Kind: KindExact, Precision: PrecisionI8}, items)

	for _, unsigned := range []bool{false, true} {
		raw := SearchOpts{K: k, Unsigned: unsigned}
		wantRaw := searchOpts(t, refRaw, queries, raw)
		if got := searchOpts(t, i8, queries, raw); !sameHitsBitExact(got, wantRaw) {
			t.Errorf("unsigned=%v int8 results differ from the f64 exact scan", unsigned)
		}
		if got := searchBatch(t, i8, queries, raw); !sameHitsBitExact(got, wantRaw) {
			t.Errorf("unsigned=%v int8 batch results differ from the f64 exact scan", unsigned)
		}
	}
}

// searchBatch answers queries as one request under opts.
func searchBatch(t *testing.T, s *Server, queries []vec.Vector, opts SearchOpts) [][]Hit {
	t.Helper()
	res, err := s.SearchWithOpts(context.Background(), "items", queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]Hit, len(res))
	for i, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		out[i] = r.Hits
	}
	return out
}

// overfetchMissed is an input on which an int8 top 10 re-ranked from the
// 4k best dequantized scores loses the true top-1 row. Every row holds
// 1.27 in the coordinate the query zeroes, so every shard's scale is
// 0.01. Row 0, 15 × 0.00499, scores 0.07485 but codes as 0; the 400 rows
// of 8 × 0.00501 score 0.04008 but code as 8 units each, so each shard
// holds far more than 40 of them above row 0; the 200 rows of 15 × −0.5
// are far below both.
func overfetchMissed() (items []vec.Vector, q vec.Vector) {
	const d = 16
	row := func(x float64, n int) vec.Vector {
		v := vec.New(d)
		for i := 0; i < n; i++ {
			v[i] = x
		}
		v[d-1] = 1.27
		return v
	}
	items = []vec.Vector{row(0.00499, 15)}
	for i := 0; i < 400; i++ {
		items = append(items, row(0.00501, 8))
	}
	for i := 0; i < 200; i++ {
		items = append(items, row(-0.5, 15))
	}
	q = vec.New(d)
	for i := 0; i < d-1; i++ {
		q[i] = 1
	}
	return items, q
}

// TestInt8ExactWhereOverfetchMissed: on overfetchMissed the certified
// candidates reach row 0, and the answer is the f64 scan's.
func TestInt8ExactWhereOverfetchMissed(t *testing.T) {
	items, q := overfetchMissed()
	opts := SearchOpts{K: 10}
	want := searchOpts(t, tierServer(t, IndexSpec{Kind: KindExact}, items), []vec.Vector{q}, opts)
	if len(want[0]) == 0 || want[0][0].ID != 0 {
		t.Fatalf("f64 top 10 %v does not lead with row 0", want[0])
	}
	i8 := tierServer(t, IndexSpec{Kind: KindExact, Precision: PrecisionI8}, items)
	if got := searchOpts(t, i8, []vec.Vector{q}, opts); !sameHitsBitExact(got, want) {
		t.Fatalf("int8 top 10 %v, f64 %v", got[0], want[0])
	}
}

// TestInt8JoinWhereOverfetchMissed is the join twin: at cs equal to row
// 0's f64 score, every other row falls below the threshold, and the int8
// join still reports row 0's pair — row 0 codes as 0, but the code sweep
// keeps every row within 2ε of cs — with the f64 join's value and
// Compared.
func TestInt8JoinWhereOverfetchMissed(t *testing.T) {
	items, q := overfetchMissed()
	ref := tierServer(t, IndexSpec{Kind: KindExact}, items)
	i8 := tierServer(t, IndexSpec{Kind: KindExact, Precision: PrecisionI8}, items)
	top := searchOpts(t, ref, []vec.Vector{q}, SearchOpts{K: 1})[0][0]
	req := JoinRequest{Data: "items", Queries: "queries", S: top.Score}
	var resps [2]*JoinResponse
	for i, s := range []*Server{ref, i8} {
		mustIngest(t, s, "queries", nil, 1, records([]vec.Vector{q}, 0))
		resp, err := s.Join(req)
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = resp
	}
	samePairs(t, "f64 join", []JoinPair{{DataID: 0, QueryID: 0, Value: top.Score}}, resps[0].Pairs)
	samePairs(t, "int8 join", resps[0].Pairs, resps[1].Pairs)
	if resps[1].Compared != resps[0].Compared {
		t.Fatalf("int8 join compared %d, f64 %d", resps[1].Compared, resps[0].Compared)
	}
}

// TestInt8CertifiedGrid holds int8 answers to the f64 exact scan's, bit
// for bit, one query at a time and as a batch, over d ∈ {4, 16, 17, 32,
// 33, 64}, signed and unsigned, k ∈ {1, 10, 50}, after deletes and
// upserts, on rows with duplicates and ties, for the zero query and a
// query whose ‖q‖₁ overflows — and on a collection holding ±Inf and NaN
// elements, whose codes bound nothing. Its joins hold the f64 joins'
// pairs and Compared, signed and unsigned, in threshold mode and at top-k
// 1 and 10: of those queries at thresholds 1 and d/2, which tie with the
// small integer dots, and of the collection with itself, identity pairs
// excluded.
func TestInt8CertifiedGrid(t *testing.T) {
	for _, d := range []int{4, 16, 17, 32, 33, 64} {
		for _, nonFinite := range []bool{false, true} {
			rng := xrand.New(uint64(d))
			items := make([]vec.Vector, 1500)
			for i := range items {
				switch {
				case i%10 == 3:
					items[i] = items[i-1].Clone() // a duplicate
				case i%10 == 7:
					items[i] = vec.New(d) // ties at small integer dots
					for j := range items[i] {
						items[i][j] = float64(rng.Intn(3) - 1)
					}
				default:
					items[i] = vec.Vector(rng.NormalVec(d))
				}
			}
			if nonFinite {
				items[11][0], items[500][d-1], items[900][d/2] = math.Inf(1), math.NaN(), math.Inf(-1)
			}
			queries := randQueries(6, d, uint64(d)+1)
			zero, huge := vec.New(d), vec.Vector(rng.NormalVec(d))
			vec.Scale(huge, 1e308)
			queries = append(queries, zero, huge, items[7].Clone())
			ref := tierServer(t, IndexSpec{Kind: KindExact}, items)
			i8 := tierServer(t, IndexSpec{Kind: KindExact, Precision: PrecisionI8}, items)
			var del []int
			for id := 0; id < len(items); id += 7 {
				del = append(del, id)
			}
			ups := []store.Record{{ID: 3, Vec: vec.Scaled(items[100], -1)}, {ID: 5000, Vec: items[200].Clone()}}
			for _, s := range []*Server{ref, i8} {
				if _, _, _, err := s.Delete("items", del); err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.Upsert("items", nil, 0, ups); err != nil {
					t.Fatal(err)
				}
			}
			for _, unsigned := range []bool{false, true} {
				for _, k := range []int{1, 10, 50} {
					opts := SearchOpts{K: k, Unsigned: unsigned}
					want := searchOpts(t, ref, queries, opts)
					if got := searchOpts(t, i8, queries, opts); !sameHitsBitExact(got, want) {
						t.Errorf("d=%d non-finite=%v unsigned=%v k=%d: int8 single searches differ from f64", d, nonFinite, unsigned, k)
					}
					if got := searchBatch(t, i8, queries, opts); !sameHitsBitExact(got, want) {
						t.Errorf("d=%d non-finite=%v unsigned=%v k=%d: int8 batch differs from f64", d, nonFinite, unsigned, k)
					}
				}
			}
			for _, s := range []*Server{ref, i8} {
				mustIngest(t, s, "queries", nil, 2, records(queries, 0))
			}
			pairs := 0
			for vi, variant := range []string{"signed", "unsigned"} {
				for ti, topK := range []int{0, 1, 10} {
					reqs := []JoinRequest{{Data: "items", Queries: "queries", S: 1}, {Data: "items", Queries: "queries", S: float64(d) / 2}}
					// The self-join scores ≈ 170 times the rows, so it
					// takes every other (variant, top-k) cell.
					if (vi+ti)%2 == 0 {
						reqs = append(reqs, JoinRequest{Data: "items", Queries: "items", ExcludeSelf: true, S: float64(d) / 2})
					}
					for _, req := range reqs {
						req.Variant, req.TopK = variant, topK
						want, err := ref.Join(req)
						if err != nil {
							t.Fatal(err)
						}
						got, err := i8.Join(req)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("d=%d non-finite=%v %s join of %s, topk %d, s %g", d, nonFinite, variant, req.Queries, topK, req.S)
						samePairs(t, label, want.Pairs, got.Pairs)
						if got.Compared != want.Compared {
							t.Fatalf("%s: int8 compared %d, f64 %d", label, got.Compared, want.Compared)
						}
						pairs += len(want.Pairs)
					}
				}
			}
			if pairs == 0 {
				t.Fatalf("d=%d non-finite=%v: no join reported a pair", d, nonFinite)
			}
		}
	}
}

// TestPrecisionTierContextCancel: a pre-cancelled context must surface
// context.Canceled through every tier's scan path.
func TestPrecisionTierContextCancel(t *testing.T) {
	items, queries := recallWorkload(97)
	for _, spec := range []IndexSpec{
		{Kind: KindExact},
		{Kind: KindNormScan},
		{Kind: KindExact, Precision: PrecisionI8},
	} {
		s := tierServer(t, spec, items)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := s.SearchWithOpts(ctx, "items", queries[:1], SearchOpts{K: 3})
		if err == nil && (len(res) == 0 || res[0].Err == nil) {
			t.Fatalf("%s/%s: cancelled context did not stop the search", spec.kind(), spec.precision())
		}
	}
}

// TestPrecisionSpecValidation pins the spec surface: precisions bind to
// their supported kinds, junk and retired precisions are rejected — f32
// over HTTP with a 400 that points at int8 — and a precision mismatch on
// an existing collection fails EnsureCollection like any other spec
// mismatch.
func TestPrecisionSpecValidation(t *testing.T) {
	bad := []IndexSpec{
		{Kind: KindExact, Precision: "f32"},
		{Kind: KindNormScan, Precision: "f32"},
		{Kind: KindALSH, Precision: "f32"},
		{Kind: KindNormScan, Precision: PrecisionI8},
		{Kind: KindALSH, Precision: PrecisionI8},
		{Precision: "f16"},
	}
	for _, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %+v validated", spec)
		}
	}
	good := []IndexSpec{
		{},
		{Precision: PrecisionF64},
		{Kind: KindExact, Precision: PrecisionI8},
		{Kind: KindALSH}, // f64 default stays valid for every kind
	}
	for _, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", spec, err)
		}
	}

	s := New(Config{})
	defer s.Close()
	for _, kind := range []string{KindExact, KindNormScan} {
		w := httptest.NewRecorder()
		NewHandler(s).ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/collections/c32",
			strings.NewReader(`{"index":{"kind":"`+kind+`","precision":"f32"},"records":[{"id":0,"vec":[0.5,1]}]}`)))
		if _, ok := s.Collection("c32"); w.Code != http.StatusBadRequest || ok || !strings.Contains(w.Body.String(), "int8") {
			t.Fatalf("%s f32 create: status %d %s (created: %v), want a 400 naming int8", kind, w.Code, w.Body, ok)
		}
	}
	if _, err := s.EnsureCollection("c", &IndexSpec{Kind: KindExact}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnsureCollection("c", &IndexSpec{Kind: KindExact, Precision: PrecisionI8}, 0); err == nil {
		t.Fatal("precision mismatch accepted on existing collection")
	}
}

// TestPrecisionStatsAndMetrics: /stats carries the precision and the
// per-tier resident vector bytes — a normscan shard's norm-sorted runs,
// base and tail, its only copy of its rows, under its own precision — and
// /metrics exposes the same as a labeled gauge.
func TestPrecisionStatsAndMetrics(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	const n, d = 40, 8
	recs := randRecords(n, d, 11)
	mustIngest(t, s, "qi8", &IndexSpec{Precision: PrecisionI8}, 2, recs)
	mustIngest(t, s, "plain", nil, 2, recs)
	// Two batches, so the second — 4 rows a shard behind 16, a quarter —
	// is each shard's second run. Both runs are sized to their rows, and
	// there is no store-order copy beside them: the shard holds each row
	// once, 8·d bytes.
	for _, batch := range [][]store.Record{recs[:32], recs[32:]} {
		mustIngest(t, s, "ns64", &IndexSpec{Kind: KindNormScan}, 2, batch)
	}
	st := s.Stats()
	elems := int64(n * d)
	check := func(name, prec string, want map[string]int64) {
		cs, ok := st.Collections[name]
		if !ok {
			t.Fatalf("no stats for %q", name)
		}
		if cs.Precision != prec {
			t.Errorf("%s precision %q, want %q", name, cs.Precision, prec)
		}
		if !reflect.DeepEqual(cs.VectorBytes, want) {
			t.Errorf("%s vector bytes %v, want %v", name, cs.VectorBytes, want)
		}
	}
	check("plain", PrecisionF64, map[string]int64{PrecisionF64: elems * 8})
	check("qi8", PrecisionI8, map[string]int64{PrecisionF64: elems * 8, PrecisionI8: elems})
	check("ns64", PrecisionF64, map[string]int64{PrecisionF64: elems * 8})

	var sb strings.Builder
	writeMetrics(&sb, s, nil)
	page := sb.String()
	for _, want := range []string{
		`ipsd_collection_vector_bytes{collection="qi8",precision="int8"} ` + itoa(elems),
		`ipsd_collection_vector_bytes{collection="plain",precision="f64"} ` + itoa(elems*8),
		`ipsd_collection_vector_bytes{collection="ns64",precision="f64"} ` + itoa(elems*8),
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func itoa(v int64) string {
	return strconv.FormatInt(v, 10)
}

// TestInt8ManifestOverfetchIgnored: a data dir whose manifest still
// carries the over-fetch factor int8 specs once had reopens — the field
// decodes and is ignored — with the same spec, answering as the f64
// exact scan does, one query at a time and as a batch; a create request
// carrying it is accepted likewise.
func TestInt8ManifestOverfetchIgnored(t *testing.T) {
	dir := t.TempDir()
	const n, d = 1200, 16
	recs := randRecords(n, d, 31)
	queries := randQueries(20, d, 32)
	spec := IndexSpec{Kind: KindExact, Precision: PrecisionI8}
	s1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, s1, "items", &spec, 2, recs)
	s1.Close()
	paths, err := filepath.Glob(filepath.Join(dir, "*", "manifest.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("manifests %v: %v", paths, err)
	}
	var m map[string]json.RawMessage
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["index"] = json.RawMessage(`{"kind":"exact","precision":"int8","overfetch":16}`)
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c, ok := s2.Collection("items")
	if !ok || c.Spec() != spec {
		t.Fatalf("reopened spec %+v, want %+v", c.Spec(), spec)
	}
	ref := New(Config{CacheCapacity: -1})
	defer ref.Close()
	mustIngest(t, ref, "items", nil, 2, recs)
	for _, unsigned := range []bool{false, true} {
		opts := SearchOpts{K: 10, Unsigned: unsigned}
		want := searchOpts(t, ref, queries, opts)
		if got := searchOpts(t, s2, queries, opts); !sameHitsBitExact(got, want) {
			t.Errorf("unsigned=%v: reopened int8 answers differ from the f64 scan", unsigned)
		}
		if got := searchBatch(t, s2, queries, opts); !sameHitsBitExact(got, want) {
			t.Errorf("unsigned=%v: reopened int8 batch differs from the f64 scan", unsigned)
		}
	}

	w := httptest.NewRecorder()
	NewHandler(ref).ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/collections/q8",
		strings.NewReader(`{"index":{"kind":"exact","precision":"int8","overfetch":16},"records":[{"id":0,"vec":[0.5,1]}]}`)))
	if c, ok := ref.Collection("q8"); w.Code != http.StatusOK || !ok || c.Spec() != spec {
		t.Fatalf("create with overfetch: status %d %s", w.Code, w.Body)
	}
}

// TestLegacyF32DataDirReopensAsF64 reopens a copy of testdata/legacy-f32,
// a data directory the retired f32 tier wrote (answers.json names the
// commit): an exact and a normscan f32 collection of two shards each, a
// checkpointed f32 segment, then a WAL tail of more rows and one delete.
// Each collection keeps its kind and shards and reports f64, and every
// recorded query, one at a time and as a batch, signed and unsigned,
// answers with the bits the f32 tier's re-ranked search gave. A
// checkpoint, now an f64 segment, and a second reopen change nothing.
func TestLegacyF32DataDirReopensAsF64(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy-f32", "answers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fx struct {
		K       int
		Queries []vec.Vector
		Answers map[string]map[string][][]Hit // collection → variant → query → hits
	}
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "legacy-f32", "data"), dir)
	kinds := map[string]string{"exact32": KindExact, "norm32": KindNormScan}
	check := func(when string, s *Server) {
		t.Helper()
		for name, kind := range kinds {
			c, ok := s.Collection(name)
			if !ok || c.spec.kind() != kind || c.Shards() != 2 || s.Stats().Collections[name].Precision != PrecisionF64 {
				t.Fatalf("%s: %s reopened as %+v (held: %v), want %s f64 on 2 shards", when, name, c.Spec(), ok, kind)
			}
			for _, variant := range []string{"signed", "unsigned"} {
				want := fx.Answers[name][variant]
				opts := SearchOpts{K: fx.K, Unsigned: variant == "unsigned"}
				batch, err := s.SearchWithOpts(context.Background(), name, fx.Queries, opts)
				if err != nil || len(want) != len(fx.Queries) {
					t.Fatalf("%s: %s %s batch: %v (%d recorded answers)", when, name, variant, err, len(want))
				}
				for i, q := range fx.Queries {
					single, err := s.SearchWithOpts(context.Background(), name, []vec.Vector{q}, opts)
					if err != nil || single[0].Err != nil || batch[i].Err != nil {
						t.Fatalf("%s: %s %s query %d: %v %v %v", when, name, variant, i, err, single[0].Err, batch[i].Err)
					}
					if !sameHitsBitExact([][]Hit{single[0].Hits, batch[i].Hits}, [][]Hit{want[i], want[i]}) {
						t.Fatalf("%s: %s %s query %d answered %v alone, %v in a batch; the f32 tier %v",
							when, name, variant, i, single[0].Hits, batch[i].Hits, want[i])
					}
				}
			}
		}
	}
	s1, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	check("reopened", s1)
	for name := range kinds {
		c, _ := s1.Collection(name)
		if err := c.log.Checkpoint(c.persistSnapshot); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check("checkpointed and reopened", s2)
}
