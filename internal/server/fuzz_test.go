package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
)

// FuzzSearchHandler throws arbitrary bytes at the search endpoint's
// JSON decode path (and, through it, the whole flat-backed query
// pipeline). Whatever the body, the handler must not panic, must answer
// with 200 or a 4xx, and must emit valid JSON: malformed bodies,
// dimension mismatches, absurd k values and NaN-free-but-weird vectors
// all map to structured errors.
func FuzzSearchHandler(f *testing.F) {
	seeds := []string{
		`{"q":[1,0,0,0]}`,
		`{"q":[1,0,0,0],"k":3,"unsigned":true}`,
		`{"queries":[[1,0,0,0],[0,1,0,0]],"k":2}`,
		`{"q":[1,2]}`,                             // wrong dimension
		`{"q":[]}`,                                // neither q nor queries
		`{"q":[1,0,0,0],"queries":[[1]]}`,         // both set
		`{"queries":[[1,0,0,0],[1,2]]}`,           // mixed dimensions in a batch
		`{"q":[1,0,0,0],"k":-5}`,                  // negative k
		`{"q":[1,0,0,0],"k":999999}`,              // over-asking
		`{"q":[1,0,0,0],"k":1099511627776}`,       // k = 2^40: sizes nothing past the rows
		`{"q":[1,0,0,0],"k":4611686018427387904}`, // k = 2^62
		`{"queries":[null,[1,0,0,0]]}`,            // null query row
		`{"q":[1e308,1e308,-1e308,1e308]}`,        // overflow-prone values
		`{`,                                       // truncated JSON
		`[]`,
		`42`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{DefaultShards: 2, CacheCapacity: 16})
		defer s.Close()
		recs := make([]store.Record, 32)
		for i := range recs {
			v := vec.New(4)
			v[i%4] = float64(i + 1)
			recs[i] = store.Record{ID: i, Vec: v}
		}
		mustIngest(t, s, "c", nil, 0, recs)
		h := NewHandler(s)
		req := httptest.NewRequest(http.MethodPost, "/collections/c/search", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic
		checkFuzzResponse(t, rec, body)
	})
}

// checkFuzzResponse asserts the handler contract shared by the fuzz
// targets: 200 or a structured 4xx, always valid JSON.
func checkFuzzResponse(t *testing.T, rec *httptest.ResponseRecorder, body []byte) {
	t.Helper()
	res := rec.Result()
	if res.StatusCode != http.StatusOK &&
		(res.StatusCode < 400 || res.StatusCode >= 500) {
		t.Fatalf("status %d for body %q (want 200 or 4xx)", res.StatusCode, body)
	}
	var payload any
	if err := json.NewDecoder(res.Body).Decode(&payload); err != nil {
		t.Fatalf("non-JSON response for body %q: %v", body, err)
	}
	if res.StatusCode != http.StatusOK {
		m, ok := payload.(map[string]any)
		var msg string
		if ok {
			msg, _ = m["error"].(string)
		}
		if msg == "" {
			t.Fatalf("error response for body %q lacks an error field: %v", body, payload)
		}
	}
}

// FuzzJoinHandler throws arbitrary bytes at the join endpoint's JSON
// path — and, through it, the whole join pipeline: engine selection, spec
// validation, top-k handling and the per-query merge. Each body goes to
// the two-collection route from an exact and from a normscan data
// collection, and to the self-join route; whatever the body, the handler
// must not panic and must answer 200 or a structured 4xx with valid JSON.
func FuzzJoinHandler(f *testing.F) {
	seeds := []string{
		`{"s":0.5}`,
		`{"s":0.5,"engine":"normpruned","topk":3}`,
		// lsh on an exact collection; sketch no longer served
		`{"s":0.9,"engine":"lsh","variant":"unsigned","k":2,"l":4}`,
		`{"s":0.9,"engine":"sketch","variant":"unsigned","kappa":2}`,
		`{"s":0.9,"engine":"sketch"}`,
		`{"s":0.5,"engine":"warp"}`,              // unknown engine
		`{"s":0.5,"variant":"sideways"}`,         // unknown variant
		`{"s":-1}`,                               // invalid threshold
		`{"s":0.5,"c":7}`,                        // c out of (0,1]
		`{"s":0.5,"topk":-3}`,                    // negative topk
		`{"s":0.5,"topk":999999}`,                // absurd topk
		`{"s":0.5,"topk":1099511627776}`,         // topk = 2^40
		`{"s":0.5,"topk":9223372036854775807}`,   // topk = MaxInt: +1 under self-exclusion must not wrap
		`{"s":1e308,"c":1e-308}`,                 // overflow-prone spec
		`{"s":0.5,"exclude_self":true}`,          // exclusion on the pair route
		`{"s":0.5,"data":"x","queries":"ghost"}`, // body names ignored on path routes
		`{`, `[]`, `42`, ``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{DefaultShards: 2, CacheCapacity: 16})
		defer s.Close()
		recs := make([]store.Record, 24)
		for i := range recs {
			v := vec.New(4)
			v[i%4] = float64(i%5) + 1
			recs[i] = store.Record{ID: i, Vec: v}
		}
		mustIngest(t, s, "a", nil, 0, recs)
		mustIngest(t, s, "b", nil, 0, recs[:7])
		mustIngest(t, s, "n", &IndexSpec{Kind: KindNormScan}, 0, recs)
		h := NewHandler(s)
		for _, path := range []string{"/collections/a/join/b", "/collections/n/join/b", "/collections/a/join"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req) // must not panic
			checkFuzzResponse(t, rec, body)
		}
	})
}
