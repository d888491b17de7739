package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// TestPlanStripes replays each stream's stripe of a mutation plan, the
// streams one after another in either order and interleaved at random,
// and requires the plan's own live set every time: each id's writes
// must all fall in one stream, in plan order. A small id space makes
// every hot id both upserted and deleted many times.
func TestPlanStripes(t *testing.T) {
	const n = 40
	items := make([]vec.Vector, n)
	for i := range items {
		items[i] = vec.Vector{float64(i)}
	}
	plan := mutationPlan(7, n, 2, 300, zipfA)
	want := replay(items, plan)
	rng := xrand.New(3)
	for width := 1; width <= 5; width++ {
		stripes := make([][]mutOp, width)
		for s := range stripes {
			stripes[s] = stripe(plan, s, width)
		}
		var forward, backward, shuffled []mutOp
		for s := range width {
			forward = append(forward, stripes[s]...)
			backward = append(backward, stripes[width-1-s]...)
		}
		for next := make([]int, width); len(shuffled) < len(forward); {
			if s := rng.Intn(width); next[s] < len(stripes[s]) {
				shuffled = append(shuffled, stripes[s][next[s]])
				next[s]++
			}
		}
		for name, order := range map[string][]mutOp{"forward": forward, "backward": backward, "shuffled": shuffled} {
			if got := replay(items, order); !reflect.DeepEqual(got, want) {
				t.Errorf("width %d, streams replayed %s: live set differs from the plan's", width, name)
			}
		}
	}
}

// TestRunVerifies runs loadgen against an in-process server, plain and
// -mixed, f64 and int8, then verifies the same server again with
// -skip-ingest. A run whose plan leaves another live set must fail on
// the record count, and one whose server holds a changed vector on the
// search pass.
func TestRunVerifies(t *testing.T) {
	for _, mode := range []string{"-plain", "-mixed"} {
		for _, precision := range []string{server.PrecisionF64, server.PrecisionI8} {
			t.Run(fmt.Sprintf("%s/%s", mode[1:], precision), func(t *testing.T) {
				base, stop, err := serve("", server.Config{DefaultShards: 4})
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				args := func(extra ...string) []string {
					a := []string{"-addr", base, "-n", "2000", "-q", "40", "-d", "8", "-k", "5",
						"-chunk", "300", "-precision", precision}
					if mode == "-mixed" {
						a = append(a, mode)
					}
					return append(a, extra...)
				}
				for _, a := range [][]string{args("-mutate-pass", "40"), args("-mutate-pass", "40", "-skip-ingest")} {
					var out bytes.Buffer
					if err := run(&out, a); err != nil {
						t.Fatalf("loadgen %s: %v\n%s", strings.Join(a, " "), err, out.String())
					}
					if !strings.Contains(out.String(), "verified: all 40") {
						t.Fatalf("loadgen %s verified nothing:\n%s", strings.Join(a, " "), out.String())
					}
				}
				if err := run(io.Discard, args("-skip-ingest")); err == nil || !strings.Contains(err.Error(), "live records") {
					t.Fatalf("-skip-ingest without the mutation pass: err = %v, want a live-record count mismatch", err)
				}
				id, big := 1999, []float64{1e3, 1e3, 1e3, 1e3, 1e3, 1e3, 1e3, 1e3}
				upsert := server.IngestRequest{Records: []server.RecordJSON{{ID: &id, Vec: big}}}
				if err := newClient(time.Minute, 0).call(http.MethodPost, base+"/collections/"+collection+"/vectors", upsert, nil); err != nil {
					t.Fatal(err)
				}
				if err := run(io.Discard, args("-mutate-pass", "40", "-skip-ingest")); err == nil || !strings.Contains(err.Error(), "differ from the exact scan") {
					t.Fatalf("-skip-ingest after an upsert outside the plan: err = %v, want search mismatches", err)
				}
			})
		}
	}
}
