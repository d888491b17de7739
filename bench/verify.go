package main

import (
	"encoding/json"
	"math"
	"runtime"

	"repro/internal/server"
	"repro/internal/vec"
)

// verdict is what verification measured beyond pass/fail.
type verdict struct {
	recall        float64 // recall_at_10 over the closing recall pass
	argmaxRecall  float64 // planted partner inside the served top-10
	guaranteeRate float64 // best served value ≥ c·s on promised queries
}

func decodeMatches(body []byte) ([]server.Hit, error) {
	var r server.SearchResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return r.Matches, nil
}

func sameHits(a, b []server.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// verify replays the journal in order against a mirror of the data —
// every acknowledged write applied where it happened — so each reply
// is judged against the state it was served from. It runs after the
// last timed request.
func (ss *session) verify() verdict {
	w := ss.w
	// Every timer has stopped: the oracle may use both CPUs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	mirror := append([]vec.Vector(nil), ss.in.items...)
	var recallHits, recallWant, argmax, guaranteed, recallQueries int
	var joinPromised, joinFound int
	cs := w.joinC * w.joinS

	for i := range ss.journal {
		o := &ss.journal[i]
		ss.attempted++
		if o.status/100 != 2 {
			ss.fail("op %d (kind %d): status %d: %.120s", i, o.kind, o.status, o.body)
			continue
		}
		switch o.kind {
		case opUpsert:
			for j, id := range o.w.ids {
				mirror[id] = o.w.vecs[j]
			}
		case opDelete:
			for _, id := range o.w.ids {
				mirror[id] = nil
			}
		case opSearch:
			hits, err := decodeMatches(o.body)
			if err != nil {
				ss.fail("op %d: search reply: %v", i, err)
				continue
			}
			q := ss.in.queries[o.arg]
			var want []scored
			if o.check && (w.exact || o.recall) {
				want = oracleTopK(mirror, q, topK, w.unsigned)
			}
			if msg := ss.judge(mirror, q, hits, want); msg != "" {
				ss.fail("op %d: search %d: %s", i, o.arg, msg)
			}
			if !o.recall {
				continue
			}
			recallQueries++
			recallWant += len(want)
			recallHits += overlap(hits, want)
			if w.spec.Kind == server.KindALSH {
				for _, h := range hits {
					if h.ID == o.arg {
						argmax++
						break
					}
				}
				if len(hits) > 0 && hits[0].Score >= cs {
					guaranteed++
				}
			}
		case opBatch:
			var r server.SearchResponse
			if err := json.Unmarshal(o.body, &r); err != nil || len(r.Results) != batchWidth {
				ss.fail("op %d: batch reply: %d results, err %v", i, len(r.Results), err)
				continue
			}
			for j, hits := range r.Results {
				q := ss.in.queries[o.arg*batchWidth+j]
				var want []scored
				if o.check && w.exact && j%8 == 0 {
					want = oracleTopK(mirror, q, topK, w.unsigned)
				}
				if msg := ss.judge(mirror, q, hits, want); msg != "" {
					ss.fail("op %d: batch %d query %d: %s", i, o.arg, j, msg)
					break
				}
			}
		case opJoin:
			var r server.JoinResponse
			if err := json.Unmarshal(o.body, &r); err != nil {
				ss.fail("op %d: join reply: %v", i, err)
				continue
			}
			p, f, msg := ss.judgeJoin(mirror, r.Pairs, o.check)
			if msg != "" {
				ss.fail("op %d: join: %s", i, msg)
			}
			joinPromised += p
			joinFound += f
		}
	}

	var v verdict
	if recallWant > 0 {
		v.recall = float64(recallHits) / float64(recallWant)
	}
	ss.attempted++
	if floor := w.recallFloor(); v.recall < floor {
		ss.fail("recall_at_10 %.4f below the floor %.2f", v.recall, floor)
	}
	if w.spec.Kind == server.KindALSH && recallQueries > 0 {
		// The floors recall_test.go holds at default K and L.
		const floor = 0.9
		v.argmaxRecall = float64(argmax) / float64(recallQueries)
		v.guaranteeRate = float64(guaranteed) / float64(recallQueries)
		if v.argmaxRecall < floor {
			ss.fail("lsh.argmax_recall %.3f below %.1f", v.argmaxRecall, floor)
		}
		if v.guaranteeRate < floor {
			ss.fail("lsh.guarantee_rate %.3f below %.1f", v.guaranteeRate, floor)
		}
		if joinPromised > 0 && float64(joinFound) < floor*float64(joinPromised) {
			ss.fail("lsh join found %d of %d promised pairs", joinFound, joinPromised)
		}
	}
	return v
}

// recallFloor is the recall_at_10 a workload must hold: exact indexes
// answer exactly, int8 re-ranks to 0.99, ALSH is judged on Definition 1
// instead.
func (w *workload) recallFloor() float64 {
	switch {
	case w.exact:
		return 1
	case w.spec.Precision == server.PrecisionI8:
		return 0.99
	}
	return 0
}

func overlap(hits []server.Hit, want []scored) int {
	n := 0
	for _, h := range hits {
		for _, s := range want {
			if s.id == h.ID {
				n++
				break
			}
		}
	}
	return n
}

// judge checks one served hit list against the mirror: distinct live
// ids, each score the exact f64 inner product with its record,
// non-increasing order and, when the index is exact and want is given,
// the oracle's scores position for position. Equal scores may swap ids,
// so positions are compared by score; with every served score proven
// to be its record's own, that is the id-for-id check up to ties.
func (ss *session) judge(mirror []vec.Vector, q vec.Vector, hits []server.Hit, want []scored) string {
	if len(hits) > topK {
		return "more than k hits"
	}
	seen := make(map[int]bool, len(hits))
	for i, h := range hits {
		if h.ID < 0 || h.ID >= len(mirror) || mirror[h.ID] == nil {
			return "hit on a record that is not live"
		}
		if seen[h.ID] {
			return "duplicate id"
		}
		seen[h.ID] = true
		s := dot(mirror[h.ID], q)
		if ss.w.unsigned {
			s = math.Abs(s)
		}
		if !sameScore(s, h.Score) {
			return "served score is not the record's inner product"
		}
		if i > 0 && h.Score > hits[i-1].Score && !sameScore(h.Score, hits[i-1].Score) {
			return "hits out of order"
		}
	}
	if want == nil || !ss.w.exact {
		return ""
	}
	if len(hits) != len(want) {
		return "wrong number of hits"
	}
	for i := range want {
		if !sameScore(hits[i].Score, want[i].score) {
			return "differs from the oracle's top-k"
		}
	}
	return ""
}

// judgeJoin checks a threshold-mode join reply. Every reported pair
// must carry its records' exact inner product and clear c·s. With
// check set, eight sampled queries are compared with the oracle: an
// exact engine must report the best partner of a query whose best
// clears s and nothing for one below it; the LSH engine is counted —
// promised queries and those it found — for the Definition 1 rate.
func (ss *session) judgeJoin(mirror []vec.Vector, pairs []server.JoinPair, check bool) (promised, found int, msg string) {
	w := ss.w
	s := ss.in.joinS
	cs := s
	if w.joinC != 0 {
		cs = w.joinC * s
	}
	byQuery := make(map[int]server.JoinPair, len(pairs))
	for _, p := range pairs {
		if p.QueryID < 0 || p.QueryID >= len(ss.in.joinQ) || p.DataID < 0 || p.DataID >= len(mirror) || mirror[p.DataID] == nil {
			return 0, 0, "pair names a record that is not live"
		}
		if v := dot(mirror[p.DataID], ss.in.joinQ[p.QueryID]); !sameScore(v, p.Value) {
			return 0, 0, "pair value is not the records' inner product"
		}
		if p.Value < cs && !sameScore(p.Value, cs) {
			return 0, 0, "pair below c·s"
		}
		byQuery[p.QueryID] = p
	}
	if !check {
		return 0, 0, ""
	}
	for qi := 0; qi < len(ss.in.joinQ); qi += len(ss.in.joinQ) / 8 {
		best := oracleTopK(mirror, ss.in.joinQ[qi], 1, false)[0]
		if sameScore(best.score, s) {
			continue
		}
		p, ok := byQuery[qi]
		if best.score >= s {
			promised++
			if ok {
				found++
			}
		}
		if w.joinC != 0 {
			continue
		}
		switch {
		case best.score >= s && (!ok || !sameScore(p.Value, best.score)):
			return promised, found, "exact join missed a query's best partner"
		case best.score < s && ok:
			return promised, found, "exact join reported a query below s"
		}
	}
	return promised, found, ""
}
