package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vec"
)

// options is what the command line (or the test) asks of one run.
type options struct {
	seed    uint64
	seconds int     // run length the driver asked for; sets the round count
	scale   float64 // shrinks n; 1 is the committed size
	outDir  string  // span files, summaries and scratch data directories
	log     io.Writer
}

// rounds turns the requested run length into timed rounds: the
// workload's own count at the run length BENCHMARK.json commits to
// (sized so the timed rounds take about that long on a 2 GHz core),
// never fewer than two. Work per round is fixed, so a given -seconds
// always times the same operations.
func (o options) rounds(w *workload) int {
	r := int(math.Round(float64(w.rounds) * float64(o.seconds) / defaultSeconds))
	if r < 2 {
		r = 2
	}
	return r
}

const defaultSeconds = 10

// session is one workload's run: inputs, the write plan, and the
// journal of every request sent, verified once all timers have stopped.
type session struct {
	w    *workload
	o    options
	in   *inputs
	plan *mutationPlan
	root string // scratch directory for durable data
	dirs int

	searchReq [][]byte // one per pool query
	batchReq  [][]byte // one per batchWidth window of the pool
	joinReq   []byte

	journal    []op
	attempted  int
	failed     int
	complaints []string
	canary     *canary
}

func newSession(w *workload, o options) (*session, error) {
	runtime.GOMAXPROCS(1)
	root, err := os.MkdirTemp(o.outDir, "data-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	in := w.generate(o.seed, o.scale)
	ss := &session{w: w, o: o, in: in, plan: newMutationPlan(o.seed, w, in), root: root}
	ss.searchReq = make([][]byte, len(in.queries))
	for i, q := range in.queries {
		ss.searchReq[i] = request("POST", searchPath, searchBody(q, w.unsigned, false))
	}
	for lo := 0; lo+batchWidth <= len(in.queries); lo += batchWidth {
		ss.batchReq = append(ss.batchReq, request("POST", searchPath, batchBody(in.queries[lo:lo+batchWidth], w.unsigned)))
	}
	ss.joinReq = request("POST", "/join", ss.joinBody())
	if ss.canary, err = newCanary(); err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	return ss, nil
}

func (ss *session) joinBody() []byte {
	c := ss.w.joinC
	if c == 0 {
		c = 1
	}
	return []byte(fmt.Sprintf(`{"data":%q,"queries":%q,"engine":%q,"s":%s,"c":%s}`,
		dataName, queryName, ss.w.joinEngine, fmtFloat(ss.in.joinS), fmtFloat(c)))
}

// cleanup removes the scratch data directories.
func (ss *session) cleanup() {
	ss.canary.close()
	os.RemoveAll(ss.root)
}

func (ss *session) logf(format string, args ...any) {
	if ss.o.log != nil {
		fmt.Fprintf(ss.o.log, format+"\n", args...)
	}
}

// fail records one failed operation.
func (ss *session) fail(format string, args ...any) {
	ss.failed++
	if len(ss.complaints) < 20 {
		ss.complaints = append(ss.complaints, fmt.Sprintf(format, args...))
	}
}

// setUp is the timed set-up of rule 4: a fresh server (and data
// directory), both collections created and loaded through in-process
// Ingest in fixed batches, and one answered query. Vectors are cloned
// inside the timer: a server behind HTTP owns its rows, and sharing the
// generator's would hide a copy from bytes_per_vector.
func (ss *session) setUp(tracing bool) (*server.Server, time.Duration, error) {
	ss.dirs++
	start := time.Now()
	s, err := server.Open(ss.w.config(ss.dataDir(), ss.o.scale, tracing))
	if err != nil {
		return nil, 0, err
	}
	if err := ss.load(s); err != nil {
		s.Close()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// dataDir is the data directory of the most recent set-up.
func (ss *session) dataDir() string {
	return filepath.Join(ss.root, fmt.Sprintf("d%d", ss.dirs))
}

func (ss *session) load(s *server.Server) error {
	spec := ss.w.spec
	if _, err := s.EnsureCollection(dataName, &spec, shardCount); err != nil {
		return err
	}
	items := ss.in.items
	for lo := 0; lo < len(items); lo += ss.w.ingestBatch {
		hi := min(lo+ss.w.ingestBatch, len(items))
		if _, _, err := s.Ingest(dataName, nil, 0, records(items[lo:hi], lo)); err != nil {
			return err
		}
	}
	if _, _, err := s.Ingest(queryName, &server.IndexSpec{Kind: server.KindExact}, 1, records(ss.in.joinQ, 0)); err != nil {
		return err
	}
	res, err := s.Search(dataName, []vec.Vector{ss.in.queries[0]}, topK, ss.w.unsigned)
	if err != nil {
		return err
	}
	if res[0].Err != nil {
		return res[0].Err
	}
	if len(res[0].Hits) == 0 {
		return fmt.Errorf("set-up query returned no hits")
	}
	return nil
}

// records clones vs into records with ids firstID, firstID+1, ...
func records(vs []vec.Vector, firstID int) []store.Record {
	recs := make([]store.Record, len(vs))
	for i, v := range vs {
		recs[i] = store.Record{ID: firstID + i, Vec: v.Clone()}
	}
	return recs
}

// setUps runs rule 4: one untimed warm-up, then at least five timed
// set-ups, more while they add up to less than three tenths of the run
// length. It returns the durations and the last server, which becomes
// the one the rounds drive.
func (ss *session) setUps() (cold time.Duration, timed []float64, s *server.Server, err error) {
	s, cold, err = ss.setUp(false)
	if err != nil {
		return 0, nil, nil, err
	}
	budget := 0.3 * float64(ss.o.seconds)
	var total float64
	for len(timed) < 5 || (total < budget && len(timed) < 25) {
		if err := s.Close(); err != nil {
			return 0, nil, nil, err
		}
		s = nil
		ss.cleanupDirs()
		runtime.GC()
		// The canary samples here, with the previous server closed and
		// collected, so nothing of the program's runs beside it.
		ss.canary.sample()
		ss.canary.sample()
		var d time.Duration
		if s, d, err = ss.setUp(false); err != nil {
			return 0, nil, nil, err
		}
		timed = append(timed, d.Seconds())
		total += d.Seconds()
	}
	return cold, timed, s, nil
}

// cleanupDirs deletes the data directories of closed servers, outside
// any timer.
func (ss *session) cleanupDirs() {
	entries, _ := os.ReadDir(ss.root)
	for _, e := range entries {
		os.RemoveAll(filepath.Join(ss.root, e.Name()))
	}
}

// heapLive is HeapAlloc once two collections have settled the heap.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// settledHeap reads heapLive until two readings 50 ms apart agree to
// 0.2%: a durable server may still be writing a checkpoint, and the
// record copy it holds is not resident cost.
func settledHeap() uint64 {
	h := heapLive()
	for i := 0; i < 40; i++ {
		time.Sleep(50 * time.Millisecond)
		next := heapLive()
		if diff := float64(next) - float64(h); math.Abs(diff) <= 0.002*float64(h) {
			return next
		}
		h = next
	}
	return h
}
