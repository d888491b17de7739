package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Spans of one
// operation share Op; Parent is the span that caused this one, zero for
// an operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; write is called once, after the last
// operation, so no file I/O lands inside a measured interval.
type recorder struct {
	epoch time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// op opens a new operation and its root span.
func (r *recorder) op(name string) (op int, root int32) {
	r.ops++
	return r.ops, r.begin(r.ops, 0, name)
}

func (r *recorder) begin(op int, parent int32, name string) int32 {
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{Name: name, Op: op, ID: id, Parent: parent,
		Start: int64(time.Since(r.epoch))})
	return id
}

func (r *recorder) end(id int32) time.Duration {
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.epoch))
	return time.Duration(s.End - s.Start)
}

// timed records f as a child span and returns its duration in seconds.
func (r *recorder) timed(op int, parent int32, name string, f func()) float64 {
	id := r.begin(op, parent, name)
	f()
	return r.end(id).Seconds()
}

// solo records f as an operation of its own.
func (r *recorder) solo(name string, f func()) float64 {
	_, root := r.op(name)
	f()
	return r.end(root).Seconds()
}

func (r *recorder) write(dir, workload string, seed uint64) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(data, '\n'), 0o644)
}
