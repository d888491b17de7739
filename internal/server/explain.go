package server

// Query explain: the serving-layer face of the per-shard scan
// accounting. A search request carrying explain:true gets, alongside
// its hits, one ShardExplain per shard — rows actually scanned, blocks
// the Cauchy–Schwarz bound pruned, blocks skipped as fully tombstoned,
// re-rank candidate counts, the candidates an alsh shard verified — plus
// per-stage timings lifted from the request's trace. The counters are
// the flat driver's own ScanStats, measured by the scan or the probe
// that produced the hits (TopKOpts.Explain).

import (
	"time"

	"repro/internal/trace"
)

// ShardExplain is one shard's contribution to an explained query. Its
// counts are those of the shard's scan under the floors its group handed
// it (runTiles): a scan of the shard alone where the pool has a worker
// for every shard, never more than that where a group scans several.
type ShardExplain struct {
	Shard   int `json:"shard"`
	Records int `json:"records"`
	Live    int `json:"live"`
	// RowsScanned counts rows the scan actually scored — on normscan, up
	// to the row where the norm bound ends each run, not whole blocks
	// (candidate-based engines leave it zero — they never sweep).
	RowsScanned int `json:"rows_scanned"`
	// CSPrunedBlocks counts row blocks the norm-sorted scan's
	// Cauchy–Schwarz bound cut off (normscan only).
	CSPrunedBlocks int `json:"cs_pruned_blocks"`
	// TombstoneSkippedBlocks counts row blocks skipped whole because
	// every row in them was tombstoned.
	TombstoneSkippedBlocks int `json:"tombstone_skipped_blocks"`
	// RerankCandidates counts int8 candidates re-scored through the
	// exact f64 rows (int8 only).
	RerankCandidates int `json:"rerank_candidates"`
	// Candidates counts the distinct live rows an alsh shard's banding
	// index named and the shard verified (alsh only).
	Candidates int   `json:"candidates"`
	Micros     int64 `json:"micros"`
}

// QueryExplain is the explain:true payload of a search response.
type QueryExplain struct {
	TraceID    string `json:"trace_id,omitempty"`
	Collection string `json:"collection"`
	Index      string `json:"index"`
	Precision  string `json:"precision"`
	K          int    `json:"k"`
	Rerank     bool   `json:"rerank"`
	CacheHit   bool   `json:"cache_hit"`
	// RowsScanned and RerankCandidates aggregate the per-shard counts.
	RowsScanned      int `json:"rows_scanned"`
	RerankCandidates int `json:"rerank_candidates"`
	// StageMicros sums the request's closed trace spans by stage name
	// (admission, cache, scan, merge, ...).
	StageMicros map[string]int64 `json:"stage_micros,omitempty"`
	Shards      []ShardExplain   `json:"shards,omitempty"`
}

// fill aggregates the per-shard detail into the query-level totals.
func (qe *QueryExplain) fill(shards []ShardExplain) {
	qe.Shards = shards
	for i := range shards {
		qe.RowsScanned += shards[i].RowsScanned
		qe.RerankCandidates += shards[i].RerankCandidates
	}
}

// stageMicros sums a trace's closed spans by name for the explain
// payload; nil when the trace is nil or recorded nothing.
func stageMicros(tr *trace.Trace) map[string]int64 {
	var m map[string]int64
	tr.SpanDurations(func(name string, d time.Duration) {
		if m == nil {
			m = make(map[string]int64)
		}
		m[name] += d.Microseconds()
	})
	return m
}
