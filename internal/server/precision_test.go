package server

import (
	"context"
	"encoding/json"
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

// The precision-tier grid: every quantized tier must track the f64
// exact scan on the planted latent-factor workload, and the re-rank
// pipeline must reproduce f64 answers bit for bit. f32 comparisons run
// against an f64 reference fed the *pre-rounded* vectors (the f32
// ingest path rounds to binary32, so that is the ground truth an f32
// collection can possibly agree with); int8 comparisons run against
// the raw vectors (the int8 tier retains them exactly).

// round32 rounds one vector to binary32 per element.
func round32(v vec.Vector) vec.Vector {
	out := make(vec.Vector, len(v))
	for i, x := range v {
		out[i] = float64(float32(x))
	}
	return out
}

func round32All(vs []vec.Vector) []vec.Vector {
	out := make([]vec.Vector, len(vs))
	for i, v := range vs {
		out[i] = round32(v)
	}
	return out
}

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

// setRecall returns the fraction of reference hits present in got,
// aggregated over all queries.
func setRecall(got, want [][]Hit) float64 {
	hit, total := 0, 0
	for i := range want {
		ids := make(map[int]bool, len(got[i]))
		for _, h := range got[i] {
			ids[h.ID] = true
		}
		for _, h := range want[i] {
			total++
			if ids[h.ID] {
				hit++
			}
		}
	}
	return float64(hit) / float64(total)
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
// workload: raw f32 set recall ≥ 0.999; f32+rerank bit-identical to
// the f64 scan over the rounded vectors (both kinds, both variants);
// int8 (always re-ranked from its certified candidates) bit-identical
// to the f64 scan of the same rows, one query at a time and as a batch.
func TestPrecisionTierEquivalence(t *testing.T) {
	items, queries := recallWorkload(424242)
	rounded := round32All(items)
	const k = 10

	refRaw := tierServer(t, IndexSpec{Kind: KindExact}, items)
	refRound := tierServer(t, IndexSpec{Kind: KindExact}, rounded)
	f32exact := tierServer(t, IndexSpec{Kind: KindExact, Precision: PrecisionF32}, items)
	f32norm := tierServer(t, IndexSpec{Kind: KindNormScan, Precision: PrecisionF32}, items)
	i8 := tierServer(t, IndexSpec{Kind: KindExact, Precision: PrecisionI8}, items)

	for _, unsigned := range []bool{false, true} {
		raw := SearchOpts{K: k, Unsigned: unsigned}
		rr := SearchOpts{K: k, Unsigned: unsigned, Rerank: true}
		wantRaw := searchOpts(t, refRaw, queries, raw)
		wantRound := searchOpts(t, refRound, queries, raw)

		// Raw f32 scores: approximate, but the hit sets must be nearly
		// identical to the rounded-f64 reference.
		for name, s := range map[string]*Server{"exact": f32exact, "normscan": f32norm} {
			got := searchOpts(t, s, queries, raw)
			if r := setRecall(got, wantRound); r < 0.999 {
				t.Errorf("unsigned=%v f32/%s raw set recall %.4f < 0.999", unsigned, name, r)
			}
			// Re-ranked: bit-identical to the f64 scan of the rounded rows.
			if got := searchOpts(t, s, queries, rr); !sameHitsBitExact(got, wantRound) {
				t.Errorf("unsigned=%v f32/%s rerank results differ from f64 over rounded vectors", unsigned, name)
			}
		}

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

// TestInt8ExactWhereOverfetchMissed is an input on which an int8 top 10
// re-ranked from the 4k best dequantized scores loses the true top-1
// row. Every row holds 1.27 in the coordinate the query zeroes, so every
// shard's scale is 0.01. Row 0, 15 × 0.00499, scores 0.07485 but codes
// as 0; the 400 rows of 8 × 0.00501 score 0.04008 but code as 8 units
// each, so each shard holds far more than 40 of them above row 0; the
// 200 rows of 15 × −0.5 are far below both. The certified candidates
// reach row 0, and the answer is the f64 scan's.
func TestInt8ExactWhereOverfetchMissed(t *testing.T) {
	const d = 16
	row := func(x float64, n int) vec.Vector {
		v := vec.New(d)
		for i := 0; i < n; i++ {
			v[i] = x
		}
		v[d-1] = 1.27
		return v
	}
	items := []vec.Vector{row(0.00499, 15)}
	for i := 0; i < 400; i++ {
		items = append(items, row(0.00501, 8))
	}
	for i := 0; i < 200; i++ {
		items = append(items, row(-0.5, 15))
	}
	q := vec.New(d)
	for i := 0; i < d-1; i++ {
		q[i] = 1
	}
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

// TestInt8CertifiedGrid holds int8 answers to the f64 exact scan's, bit
// for bit, one query at a time and as a batch, over d ∈ {4, 16, 17, 32,
// 33, 64}, signed and unsigned, k ∈ {1, 10, 50}, after deletes and
// upserts, on rows with duplicates and ties, for the zero query and a
// query whose ‖q‖₁ overflows — and on a collection holding ±Inf and NaN
// elements, whose codes bound nothing.
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
		}
	}
}

// TestPrecisionTierContextCancel: a pre-cancelled context must surface
// context.Canceled through every tier's scan path.
func TestPrecisionTierContextCancel(t *testing.T) {
	items, queries := recallWorkload(97)
	for _, spec := range []IndexSpec{
		{Kind: KindExact, Precision: PrecisionF32},
		{Kind: KindNormScan, Precision: PrecisionF32},
		{Kind: KindExact, Precision: PrecisionI8},
	} {
		s := tierServer(t, spec, items)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := s.SearchWithOpts(ctx, "items", queries[:1], SearchOpts{K: 3, Rerank: true})
		if err == nil && (len(res) == 0 || res[0].Err == nil) {
			t.Fatalf("%s/%s: cancelled context did not stop the search", spec.kind(), spec.precision())
		}
	}
}

// TestPrecisionSpecValidation pins the spec surface: precisions bind to
// their supported kinds, junk precisions are rejected, and a precision mismatch on an existing collection fails
// EnsureCollection like any other spec mismatch.
func TestPrecisionSpecValidation(t *testing.T) {
	bad := []IndexSpec{
		{Kind: KindALSH, Precision: PrecisionF32},
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
		{Kind: KindExact, Precision: PrecisionF32},
		{Kind: KindNormScan, Precision: PrecisionF32},
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
	if _, err := s.EnsureCollection("c", &IndexSpec{Kind: KindExact, Precision: PrecisionF32}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnsureCollection("c", &IndexSpec{Kind: KindExact, Precision: PrecisionI8}, 0); err == nil {
		t.Fatal("precision mismatch accepted on existing collection")
	}
}

// TestF32IngestRounding: an f32 collection's visible records are the
// binary32 roundings of what was ingested (WAL, relation and shards all
// share them), and a finite element that overflows float32 is rejected.
func TestF32IngestRounding(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	v := vec.Vector{0.1, 1e-42, 3.3333333333333}
	if _, _, err := s.Ingest("c", &IndexSpec{Precision: PrecisionF32}, 1, []store.Record{{ID: 1, Vec: v}}); err != nil {
		t.Fatal(err)
	}
	c, _ := s.Collection("c")
	for j, x := range c.records()[0].Vec {
		if math.Float64bits(x) != math.Float64bits(float64(float32(v[j]))) {
			t.Fatalf("element %d stored as %v, want binary32 rounding of %v", j, x, v[j])
		}
	}
	// The caller's slice must not have been rewritten in place.
	if v[2] != 3.3333333333333 {
		t.Fatal("ingest mutated the caller's vector")
	}
	if _, _, err := s.Ingest("c", nil, 0, []store.Record{{ID: 2, Vec: vec.Vector{1e300, 0, 0}}}); err == nil {
		t.Fatal("float32 overflow accepted into an f32 collection")
	}
	if _, _, err := s.Upsert("c", nil, 0, []store.Record{{ID: 1, Vec: vec.Vector{0, 1e-320, 0}}}); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.records() {
		if r.ID == 1 && r.Vec[1] != 0 {
			t.Fatalf("upsert stored %v, want the binary32 rounding 0", r.Vec[1])
		}
	}
}

// TestPrecisionStatsAndMetrics: /stats carries the precision and the
// per-tier resident vector bytes — a normscan shard's norm-sorted copy,
// base and tail run, included under its own precision — and /metrics
// exposes the same as a labeled gauge.
func TestPrecisionStatsAndMetrics(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	const n, d = 40, 8
	recs := randRecords(n, d, 11)
	if _, _, err := s.Ingest("qi8", &IndexSpec{Precision: PrecisionI8}, 2, recs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Ingest("qf32", &IndexSpec{Precision: PrecisionF32}, 2, recs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Ingest("plain", nil, 2, recs); err != nil {
		t.Fatal(err)
	}
	// Two batches, so the second is each shard's tail run. Its sorted
	// copy is sized to its rows; the truth store's open chunk doubled to
	// take it — 15 rows a shard, then 5 more, are 30 rows of capacity,
	// 1.5× the rows held.
	for _, batch := range [][]store.Record{recs[:30], recs[30:]} {
		if _, _, err := s.Ingest("ns64", &IndexSpec{Kind: KindNormScan}, 2, batch); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Ingest("ns32", &IndexSpec{Kind: KindNormScan, Precision: PrecisionF32}, 2, batch); err != nil {
			t.Fatal(err)
		}
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
	check("qf32", PrecisionF32, map[string]int64{PrecisionF64: elems * 8, PrecisionF32: elems * 4})
	check("qi8", PrecisionI8, map[string]int64{PrecisionF64: elems * 8, PrecisionI8: elems})
	check("ns64", PrecisionF64, map[string]int64{PrecisionF64: elems*3/2*8 + elems*8}) // the truth rows and their sorted copy
	check("ns32", PrecisionF32, map[string]int64{PrecisionF64: elems * 3 / 2 * 8, PrecisionF32: elems * 4})

	var sb strings.Builder
	writeMetrics(&sb, s, nil)
	page := sb.String()
	for _, want := range []string{
		`ipsd_collection_vector_bytes{collection="qi8",precision="int8"} ` + itoa(elems),
		`ipsd_collection_vector_bytes{collection="qf32",precision="f32"} ` + itoa(elems*4),
		`ipsd_collection_vector_bytes{collection="plain",precision="f64"} ` + itoa(elems*8),
		`ipsd_collection_vector_bytes{collection="ns64",precision="f64"} ` + itoa(elems*3/2*8+elems*8),
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func itoa(v int64) string {
	return strconv.FormatInt(v, 10)
}

// TestInt8CrashRecoveryIdenticalAnswers is the int8 durability
// contract: after a simulated kill -9 (directory copied out from under
// a live fsync=always server, checkpointing after every batch so both
// the segment and WAL-replay paths run), the recovered collection must
// serve post-rerank answers bit-identical to the original's — which
// requires the quantization scale to reconstruct exactly.
func TestInt8CrashRecoveryIdenticalAnswers(t *testing.T) {
	dir := t.TempDir()
	const n, d, q, k = 2000, 8, 25, 5
	recs := randRecords(n, d, 21)
	queries := randQueries(q, d, 22)

	cfg := durableConfig(dir)
	cfg.CheckpointBytes = 1 // checkpoint after every batch: segments carry the codes
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := &IndexSpec{Kind: KindExact, Precision: PrecisionI8}
	for lo := 0; lo < n; lo += 500 {
		hi := min(lo+500, n)
		if _, _, err := s1.Ingest("col", spec, 2, recs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]Hit, len(queries))
	for i, qv := range queries {
		res, err := s1.SearchWithOpts(context.Background(), "col", []vec.Vector{qv}, SearchOpts{K: k, Unsigned: true})
		if err != nil || res[0].Err != nil {
			t.Fatal(err, res[0].Err)
		}
		want[i] = res[0].Hits
	}

	crashed := t.TempDir()
	copyTree(t, dir, crashed)
	cfg2 := durableConfig(crashed)
	s2, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c, _ := s2.Collection("col")
	if c.Spec().Precision != PrecisionI8 {
		t.Fatalf("recovered precision %q", c.Spec().Precision)
	}
	got := make([][]Hit, len(queries))
	for i, qv := range queries {
		res, err := s2.SearchWithOpts(context.Background(), "col", []vec.Vector{qv}, SearchOpts{K: k, Unsigned: true})
		if err != nil || res[0].Err != nil {
			t.Fatal(err, res[0].Err)
		}
		got[i] = res[0].Hits
	}
	if !sameHitsBitExact(got, want) {
		t.Fatal("int8 answers differ after crash recovery")
	}
	s1.Close()
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
	if _, _, err := s1.Ingest("items", &spec, 2, recs); err != nil {
		t.Fatal(err)
	}
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
	if _, _, err := ref.Ingest("items", nil, 2, recs); err != nil {
		t.Fatal(err)
	}
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
