package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// manifest is the part of BENCHMARK.json the tests hold the code to.
type manifest struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func byName(ms []metric) map[string]metric {
	out := make(map[string]metric, len(ms))
	for _, m := range ms {
		out[m.name] = m
	}
	return out
}

func within(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestSmallScale runs every workload twice, both passes, at a fiftieth
// of its size: every metric BENCHMARK.json names must come out finite
// with its unit, nothing may fail, the metrics that are counts must
// repeat, and the span file must parse with every span complete.
func TestSmallScale(t *testing.T) {
	man := readManifest(t)
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the code %q", i, man.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			o := options{seed: 1, seconds: 1, scale: 0.02, outDir: dir}
			var runs [2]*runResult
			for i := range runs {
				r, err := run(w, o, traceBoth)
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %v", r.attempted, r.failed, r.notes)
				}
				runs[i] = r
			}
			e2e := [2]map[string]metric{byName(runs[0].e2e.metrics), byName(runs[1].e2e.metrics)}
			layers := [2]map[string]metric{byName(runs[0].layers.metrics), byName(runs[1].layers.metrics)}
			check := func(kind string, want []struct{ Name, Unit string }, got map[string]metric, mayBeZero bool) {
				if len(want) != len(got) {
					t.Errorf("%s: BENCHMARK.json names %d metrics, the run printed %d", kind, len(want), len(got))
				}
				for _, m := range want {
					g, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("%s metric %s missing", kind, m.Name)
					case g.unit != m.Unit:
						t.Errorf("%s metric %s has unit %q, want %q", kind, m.Name, g.unit, m.Unit)
					case math.IsNaN(g.value) || math.IsInf(g.value, 0):
						t.Errorf("%s metric %s = %v", kind, m.Name, g.value)
					case !mayBeZero && g.value == 0:
						t.Errorf("%s metric %s is zero", kind, m.Name)
					}
				}
			}
			check("end-to-end", man.EndToEnd, e2e[0], false)
			check("per-layer", man.PerLayer, layers[0], true)

			if a, b := e2e[0]["recall_at_10"].value, e2e[1]["recall_at_10"].value; a != b {
				t.Errorf("recall_at_10 does not repeat: %v then %v", a, b)
			}
			if a, b := e2e[0]["bytes_per_vector"].value, e2e[1]["bytes_per_vector"].value; !within(a, b, 0.02) {
				t.Errorf("bytes_per_vector does not repeat within 2%%: %v then %v", a, b)
			}
			for _, name := range []string{"server.upsert_alloc_bytes_per_vector", "server.ingest_alloc_bytes_per_vector"} {
				if a, b := layers[0][name].value, layers[1][name].value; !within(a, b, 0.05) {
					t.Errorf("%s does not repeat within 5%%: %v then %v", name, a, b)
				}
			}
			for _, name := range []string{"persist.wal_append_ms", "persist.checkpoint_s", "persist.recover_s"} {
				if v := layers[0][name].value; (v > 0) != w.durable {
					t.Errorf("%s = %v on a workload with durable=%t", name, v, w.durable)
				}
			}
			checkSpans(t, filepath.Join(dir, "trace-"+w.name+".json"))
		})
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []map[string]json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) == 0 {
		t.Fatal("no spans written")
	}
	ids := make(map[int32]bool, len(file.Spans))
	for i, raw := range file.Spans {
		for _, key := range []string{"name", "op", "id", "parent", "start_ns", "end_ns"} {
			if _, ok := raw[key]; !ok {
				t.Fatalf("span %d lacks %q", i, key)
			}
		}
		var s span
		full, _ := json.Marshal(raw)
		if err := json.Unmarshal(full, &s); err != nil {
			t.Fatal(err)
		}
		if s.Name == "" || s.Op < 1 || s.End < s.Start || (s.Parent != 0 && !ids[s.Parent]) {
			t.Fatalf("span %d is incomplete: %+v", i, s)
		}
		ids[s.ID] = true
	}
}

// TestSeedsMakeInputs holds the generators to the contract: one seed,
// one input; another seed, another input.
func TestSeedsMakeInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.generate(7, 0.02), w.generate(7, 0.02), w.generate(8, 0.02)
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 gave two inputs: %s and %s", w.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same input", w.name)
		}
	}
}
