package main

import (
	"fmt"
	"runtime"

	"repro/internal/server"
	"repro/internal/vec"
)

type opKind uint8

const (
	opSearch opKind = iota
	opBatch
	opJoin
	opUpsert
	opDelete
)

// write is one planned mutation: an upsert of ids with vecs, or (vecs
// nil) a delete of ids.
type write struct {
	ids  []int
	vecs []vec.Vector
	req  []byte
}

// op is one journal entry: what was sent and what came back. Replies
// are kept as bytes and decoded only after the last timer has stopped.
type op struct {
	kind   opKind
	arg    int // search: pool index; batch: window index
	w      *write
	status int
	body   []byte
	// check asks for the full oracle comparison; every reply still gets
	// the cheap checks (status, shape, scores against the mirror).
	check bool
	// recall marks the closing pass over the fixed recall set.
	recall bool
}

// roundPlan is the writes of one round, built before any timer starts.
type roundPlan struct {
	interleaved [][2]*write // (upsert, delete) after every writeEvery searches
	mutate      []*write
}

func (ss *session) planUpsert(must []int) *write {
	ids := ss.plan.ids(upsertWidth, must)
	vs := ss.plan.freshVecs(ss.in, upsertWidth)
	return &write{ids: ids, vecs: vs, req: request("POST", upsertPath, recordsBody(ids, vs))}
}

func (ss *session) planRound() roundPlan {
	var rp roundPlan
	if ss.w.durable {
		for i := 0; i < ss.w.ops.search/writeEvery; i++ {
			up := ss.planUpsert(ss.plan.revive)
			dead := up.ids[len(up.ids)-deleteWidth:]
			ss.plan.revive = dead
			rp.interleaved = append(rp.interleaved, [2]*write{up,
				{ids: dead, req: request("POST", deletePath, idsBody(dead))}})
		}
	}
	for i := 0; i < ss.w.ops.mutate; i++ {
		rp.mutate = append(rp.mutate, ss.planUpsert(nil))
	}
	return rp
}

// send issues one request, journals the reply and returns the request's
// wall time in seconds. Only a transport failure is an error; a bad
// status or a wrong answer is a failed op, found at verification.
func (ss *session) send(e *endpoint, o op, req []byte) (float64, error) {
	status, body, d, err := e.do(req)
	if err != nil {
		return 0, fmt.Errorf("%s: transport: %w", ss.w.name, err)
	}
	o.status = status
	o.body = append([]byte(nil), body...)
	ss.journal = append(ss.journal, o)
	return d.Seconds(), nil
}

const (
	checkedSearches = 64 // searches per round compared with the oracle
	recoverySample  = 64 // closing queries replayed after the reopen
)

// cells holds the pooled per-request wall times of a run, in seconds.
type cells struct{ search, batch, join, mutate []float64 }

// phase prepares a timed phase: the collector runs outside the timers.
func (ss *session) phase() { runtime.GC() }

// round runs search → batch → join → mutate once. A nil c is the
// warm-up round: same work, journaled and verified, not timed.
func (ss *session) round(e *endpoint, rp roundPlan, c *cells) error {
	ops := ss.w.ops
	if c == nil {
		c = &cells{} // discarded
	}

	ss.phase()
	for i := 0; i < ops.search; i++ {
		pi := ss.in.searchOrder[i]
		d, err := ss.send(e, op{kind: opSearch, arg: pi, check: i < checkedSearches}, ss.searchReq[pi])
		if err != nil {
			return err
		}
		c.search = append(c.search, d)
		if at := (i + 1) / writeEvery; (i+1)%writeEvery == 0 && at <= len(rp.interleaved) {
			pair := rp.interleaved[at-1]
			if _, err := ss.send(e, op{kind: opUpsert, w: pair[0]}, pair[0].req); err != nil {
				return err
			}
			if _, err := ss.send(e, op{kind: opDelete, w: pair[1]}, pair[1].req); err != nil {
				return err
			}
		}
	}

	ss.phase()
	for i := 0; i < ops.batch; i++ {
		wi := i % len(ss.batchReq)
		d, err := ss.send(e, op{kind: opBatch, arg: wi, check: i == 0}, ss.batchReq[wi])
		if err != nil {
			return err
		}
		c.batch = append(c.batch, d)
	}

	ss.phase()
	for i := 0; i < ops.join; i++ {
		d, err := ss.send(e, op{kind: opJoin, check: i == 0}, ss.joinReq)
		if err != nil {
			return err
		}
		c.join = append(c.join, d)
	}

	ss.phase()
	for _, w := range rp.mutate {
		d, err := ss.send(e, op{kind: opUpsert, w: w}, w.req)
		if err != nil {
			return err
		}
		c.mutate = append(c.mutate, d)
	}
	// The canary samples straight after the last request: the caches are
	// as the requests left them, the state the requests themselves ran in.
	ss.canary.sample()
	ss.canary.sample()
	return nil
}

// endToEndNames are the gated metrics, in BENCHMARK.json's order.
var endToEndNames = []string{"setup_s", "search_ms", "batch_qps", "join_mpairs_per_s",
	"mutate_ms", "bytes_per_vector", "recall_at_10"}

// e2eResult is what the end-to-end pass measured.
type e2eResult struct {
	metrics    []metric
	advisory   []metric // raw times and host readings, un-gated
	rounds     int
	setUps     int
	cold       float64
	samples    map[string]int
	compaction int64
}

// runE2E is the un-traced pass: rule-4 set-ups, one warm-up and the
// timed rounds from one closed-loop client, the closing recall pass,
// the recovery check, then verification of everything journaled.
func (ss *session) runE2E() (*e2eResult, error) {
	rounds := ss.o.rounds(ss.w)
	plans := make([]roundPlan, rounds+1)
	for i := range plans {
		plans[i] = ss.planRound()
	}
	base := heapLive()

	setUpsFrom := ss.canary.mark()
	cold, timed, s, err := ss.setUps()
	if err != nil {
		return nil, err
	}
	defer func() { s.Close() }()
	setUpFactor := hostFactor(ss.canary.samples[setUpsFrom:])
	loaded := settledHeap()
	live := len(ss.in.items) + len(ss.in.joinQ)
	bytesPerVector := float64(loaded-base) / float64(live)
	ss.logf("%s: %d set-ups, cold %.3fs, fastest %.3fs, median %.3fs", ss.w.name,
		len(timed), cold.Seconds(), minOf(timed), median(timed))

	e, err := listen(server.NewHandler(s))
	if err != nil {
		return nil, err
	}
	defer func() { e.close() }()

	c := &cells{}
	if err := ss.round(e, plans[0], nil); err != nil {
		return nil, err
	}
	roundsFrom := ss.canary.mark()
	for r := 1; r <= rounds; r++ {
		if err := ss.round(e, plans[r], c); err != nil {
			return nil, err
		}
	}
	factor := hostFactor(ss.canary.samples[roundsFrom:])

	// Closing pass: the fixed recall set against the final state.
	first := len(ss.journal)
	for i := 0; i < recallSet; i++ {
		if _, err := ss.send(e, op{kind: opSearch, arg: i, check: true, recall: true}, ss.searchReq[i]); err != nil {
			return nil, err
		}
	}
	compactions := s.Stats().Collections[dataName].Compactions
	if ss.w.durable {
		before := ss.journal[first : first+recoverySample]
		e.close()
		if err := s.Close(); err != nil {
			return nil, err
		}
		if s, err = server.Open(ss.w.config(ss.dataDir(), ss.o.scale, false)); err != nil {
			return nil, err
		}
		if e, err = listen(server.NewHandler(s)); err != nil {
			return nil, err
		}
		ss.checkRecovered(e, before)
	}

	v := ss.verify()
	res := &e2eResult{
		rounds: rounds, setUps: len(timed), cold: cold.Seconds(),
		samples: map[string]int{"search": len(c.search), "batch": len(c.batch),
			"join": len(c.join), "mutate": len(c.mutate)},
		compaction: compactions,
	}
	res.advisory = []metric{
		{"canary_ms", "ms", 1e3 * median(ss.canary.samples)},
		{"host_noise", "ratio", ss.canary.noise()},
		{"host_factor", "ratio", factor},
		{"setup_host_factor", "ratio", setUpFactor},
		{"setup_raw_s", "s", minOf(timed)},
	}
	// Gated timings are floors at nominal host speed: the per-operation
	// floor over rounds, divided by how much slower than nominal the
	// canary says the host ran over the same stretch.
	at := map[string]float64{}
	for _, cell := range []struct {
		name string
		xs   []float64
	}{{"search", c.search}, {"batch", c.batch}, {"join", c.join}, {"mutate", c.mutate}} {
		raw := floorMean(cell.xs, rounds)
		at[cell.name] = raw / factor
		hp, hv := highPercentile(cell.xs)
		res.advisory = append(res.advisory,
			metric{cell.name + "_raw_floor_ms", "ms", 1e3 * raw},
			metric{cell.name + "_raw_p50_ms", "ms", 1e3 * median(cell.xs)},
			metric{cell.name + "_raw_" + hp + "_ms", "ms", 1e3 * hv})
	}
	pairs := float64(len(ss.in.items)) * joinQueries / 1e6
	res.metrics = []metric{
		{"setup_s", "s", minOf(timed) / setUpFactor},
		{"search_ms", "ms", 1e3 * at["search"]},
		{"batch_qps", "queries/s", batchWidth / at["batch"]},
		{"join_mpairs_per_s", "Mpairs/s", pairs / at["join"]},
		{"mutate_ms", "ms", 1e3 * at["mutate"]},
		{"bytes_per_vector", "B", bytesPerVector},
		{"recall_at_10", "ratio", v.recall},
	}
	if ss.w.spec.Kind == server.KindALSH {
		res.advisory = append(res.advisory,
			metric{"lsh.argmax_recall", "ratio", v.argmaxRecall},
			metric{"lsh.guarantee_rate", "ratio", v.guaranteeRate})
	}
	return res, nil
}

// checkRecovered replays the sample queries against the reopened
// server; every answer must be bit-identical to the one given before
// the close. It is one operation.
func (ss *session) checkRecovered(e *endpoint, before []op) {
	ss.attempted++
	for _, b := range before {
		status, body, _, err := e.do(ss.searchReq[b.arg])
		if err != nil || status/100 != 2 {
			ss.fail("recovery: query %d: status %d err %v", b.arg, status, err)
			return
		}
		was, errA := decodeMatches(b.body)
		now, errB := decodeMatches(body)
		if errA != nil || errB != nil || !sameHits(was, now) {
			ss.fail("recovery: query %d answered differently after reopen", b.arg)
			return
		}
	}
}
