package server

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// latencyRing records the most recent query latencies in a fixed ring
// and reports quantiles over the retained window. A bounded window
// keeps /stats O(1) in traffic and biases the percentiles toward
// current behaviour, which is what an operator wants to see.
type latencyRing struct {
	mu    sync.Mutex
	buf   []float64 // milliseconds
	pos   int
	count int
}

const latencyWindow = 4096

func newLatencyRing() *latencyRing {
	return &latencyRing{buf: make([]float64, latencyWindow)}
}

// observe records one query duration.
func (r *latencyRing) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	r.mu.Lock()
	r.buf[r.pos] = ms
	r.pos = (r.pos + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.mu.Unlock()
}

// quantiles returns the requested latency quantiles in milliseconds
// over the retained window, or nil when nothing has been recorded.
func (r *latencyRing) quantiles(qs ...float64) []float64 {
	r.mu.Lock()
	sample := make([]float64, r.count)
	copy(sample, r.buf[:r.count])
	r.mu.Unlock()
	if len(sample) == 0 {
		return nil
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = stats.Quantile(sample, q)
	}
	return out
}

// LatencyStats is the percentile summary exposed by /stats.
type LatencyStats struct {
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
}

// summary renders the ring as a LatencyStats (zero value when empty).
func (r *latencyRing) summary() LatencyStats {
	qs := r.quantiles(0.50, 0.90, 0.99)
	if qs == nil {
		return LatencyStats{}
	}
	return LatencyStats{P50: qs[0], P90: qs[1], P99: qs[2]}
}

// ShardStats describes one shard in /stats. Records counts physical
// rows (live + tombstoned); Live and Tombstoned break it down.
type ShardStats struct {
	ID         int   `json:"id"`
	Records    int   `json:"records"`
	Live       int   `json:"live"`
	Tombstoned int   `json:"tombstoned"`
	Queries    int64 `json:"queries"`
	// Runs is how many norm-sorted runs a normscan shard's view stacks
	// (flat.View.Runs): at most ⌊log₄ records⌋ + 1, one after a fold or a
	// compaction; 0 on other kinds.
	Runs int `json:"runs,omitempty"`
}

// CollectionStats describes one collection in /stats. Records is the
// live count; Tombstoned counts
// deleted-but-not-yet-compacted rows still occupying shard storage.
type CollectionStats struct {
	Dim         int    `json:"dim"`
	Records     int    `json:"records"`
	Tombstoned  int    `json:"tombstoned"`
	Compactions int64  `json:"compactions"`
	Compacting  bool   `json:"compacting"`
	Version     uint64 `json:"version"`
	Index       string `json:"index"`
	Precision   string `json:"precision"`
	// VectorBytes is the resident vector payload by storage precision:
	// the f64 rows every collection holds once — a normscan collection's
	// in its norm-sorted runs — plus the int8 codes of an int8
	// collection. Counts cover physical rows (live + tombstoned).
	VectorBytes map[string]int64 `json:"vector_bytes"`
	Queries     int64            `json:"queries"`
	Latency     LatencyStats     `json:"latency"`
	// Health is the failure-domain state ("active", "degraded",
	// "quarantined"); HealthReason the cause while not active.
	Health       string `json:"health"`
	HealthReason string `json:"health_reason,omitempty"`
	// Repairs counts successful background repairs (degraded → active);
	// Scrubs/ScrubErrors the integrity scrubber's passes and failures,
	// LastScrubUnix the wall time of the last completed pass (0 until
	// the first one).
	Repairs       int64        `json:"repairs"`
	Scrubs        int64        `json:"scrubs"`
	ScrubErrors   int64        `json:"scrub_errors"`
	LastScrubUnix int64        `json:"last_scrub_unix,omitempty"`
	Shards        []ShardStats `json:"shards"`
}

// CacheStats describes the query cache in /stats. Hits count the
// answers served from it, Revalidated the part of them brought forward
// from an earlier version across the writes since. RevalidationMisses
// are the misses on an earlier exact answer that could not be: a write
// since removed one of its hits, its writes lie past the note horizon,
// or a compaction came between. Invalidations count the entries alsh
// writes and drops removed.
type CacheStats struct {
	Capacity           int   `json:"capacity"`
	Size               int   `json:"size"`
	Hits               int64 `json:"hits"`
	Misses             int64 `json:"misses"`
	Invalidations      int64 `json:"invalidations"`
	Revalidated        int64 `json:"revalidated"`
	RevalidationMisses int64 `json:"revalidation_misses"`
}

// Stats is the full /stats payload.
type Stats struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Workers       int                        `json:"workers"`
	Cache         CacheStats                 `json:"cache"`
	Collections   map[string]CollectionStats `json:"collections"`
	Joins         int64                      `json:"joins"`
}
