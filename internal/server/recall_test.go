package server

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// The recall harness guards the approximate engine's quality at its
// default parameters, so storage/kernel refactors (like the columnar
// store migration) cannot silently degrade it. The workload is a
// latent-factor recommender set under the paper's Definition 1 promise:
// background items are unit-normalized latent factors, and every query
// gets one planted partner at inner product ≈ plantedTarget — the
// "(cs, s) with a certified partner" regime §4.1 ALSH is designed for.
// The floor is set ≥ 0.9 with the measured value well above (≈ 1.0 at
// this seed), so a regression has to be real to trip it.
const (
	recallItems   = 4000
	recallQueries = 256
	recallDim     = 16
	plantedTarget = 0.95
	recallFloor   = 0.9
)

// recallWorkload builds the planted latent-factor set: items (planted
// partner for query i lives at record ID i) and queries.
func recallWorkload(seed uint64) (items, queries []vec.Vector) {
	rng := xrand.New(seed)
	lf := dataset.NewLatentFactor(rng, recallItems, recallQueries, recallDim, 0.3)
	queries = make([]vec.Vector, recallQueries)
	items = make([]vec.Vector, 0, recallItems+recallQueries)
	for i, u := range lf.Users {
		queries[i] = vec.Normalized(u)
		items = append(items, vec.Scaled(queries[i], plantedTarget))
	}
	for _, it := range lf.Items {
		items = append(items, vec.Normalized(it))
	}
	return items, queries
}

// recallServers builds one server per index kind over the same items.
func recallServer(t *testing.T, kind string, items []vec.Vector) *Server {
	t.Helper()
	s := New(Config{DefaultShards: 2, CacheCapacity: -1})
	t.Cleanup(func() { s.Close() })
	if _, _, err := s.Ingest("items", &IndexSpec{Kind: kind}, 2, records(items, 0)); err != nil {
		t.Fatalf("ingest %s: %v", kind, err)
	}
	return s
}

// TestALSHRecallFloor asserts recall@10 of the default ALSH index: the
// exact argmax (the planted partner) must appear in the ALSH top-10 for
// at least recallFloor of the queries.
func TestALSHRecallFloor(t *testing.T) {
	items, queries := recallWorkload(1234)
	approx := recallServer(t, KindALSH, items)
	exact := recallServer(t, KindExact, items)
	const k = 10
	hits, setHit, setTotal := 0, 0, 0
	for _, q := range queries {
		ares, err := approx.Search("items", []vec.Vector{q}, k, true)
		if err != nil {
			t.Fatal(err)
		}
		eres, err := exact.Search("items", []vec.Vector{q}, k, true)
		if err != nil {
			t.Fatal(err)
		}
		if ares[0].Err != nil || eres[0].Err != nil {
			t.Fatal(ares[0].Err, eres[0].Err)
		}
		got := make(map[int]bool, len(ares[0].Hits))
		for _, h := range ares[0].Hits {
			got[h.ID] = true
		}
		if got[eres[0].Hits[0].ID] {
			hits++
		}
		for _, h := range eres[0].Hits {
			setTotal++
			if got[h.ID] {
				setHit++
			}
		}
	}
	recall := float64(hits) / float64(len(queries))
	t.Logf("alsh recall@%d (argmax containment) = %.3f, set recall@%d = %.3f",
		k, recall, k, float64(setHit)/float64(setTotal))
	if recall < recallFloor {
		t.Fatalf("alsh recall@%d = %.3f below floor %.2f at default params", k, recall, recallFloor)
	}
}
