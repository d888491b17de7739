// Command bench is the ipsd benchmark BENCHMARK.json describes: four
// workloads, seven end-to-end metrics from one closed-loop HTTP client,
// and a traced pass that replays the same operations down a ladder of
// each layer's public functions. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	name, unit string
	value      float64
}

// runResult is one workload run, either pass or both.
type runResult struct {
	workload  string
	seed      uint64
	inputHash string
	attempted int
	failed    int
	notes     []string
	e2e       *e2eResult
	layers    *layerResult
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// Trace modes: the driver passes 0 or 1; a person usually wants both.
const (
	traceOff  = 0
	traceOnly = 1
	traceBoth = 2
)

func run(w *workload, o options, trace int) (*runResult, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	ss, err := newSession(w, o)
	if err != nil {
		return nil, err
	}
	defer ss.cleanup()
	res := &runResult{workload: w.name, seed: o.seed, inputHash: ss.in.hash}
	if trace != traceOnly {
		if res.e2e, err = ss.runE2E(); err != nil {
			return nil, err
		}
	}
	if trace != traceOff {
		if res.layers, err = ss.runLayers(); err != nil {
			return nil, err
		}
	}
	res.attempted, res.failed, res.notes = ss.attempted, ss.failed, ss.complaints
	if err := writeSummary(o.outDir, res); err != nil {
		return nil, err
	}
	return res, nil
}

// contractLine is the one-object result line the driver reads: the
// end-to-end metrics of an un-traced run, the per-layer ones of a
// traced run (both for a person who asked for both).
func contractLine(r *runResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`,
		r.failed == 0, max(r.attempted, 1), r.failed)
	var ms []metric
	if r.e2e != nil {
		ms = append(ms, r.e2e.metrics...)
	}
	if r.layers != nil {
		ms = append(ms, r.layers.metrics...)
	}
	for i, m := range ms {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, fmtFloat(finite(m.value)), m.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// finite keeps the result line valid JSON whatever a division did.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// printTable writes every metric by name with its unit.
func printTable(out io.Writer, r *runResult) {
	fmt.Fprintf(out, "\n== %s  seed=%d  inputs=%s  ops=%d failed=%d\n",
		r.workload, r.seed, r.inputHash[:16], r.attempted, r.failed)
	row := func(kind string, m metric) {
		fmt.Fprintf(out, "  %-10s %-40s %16.6g %s\n", kind, m.name, m.value, m.unit)
	}
	if e := r.e2e; e != nil {
		fmt.Fprintf(out, "  rounds=%d set-ups=%d cold_setup=%.3fs samples=%v compactions=%d\n",
			e.rounds, e.setUps, e.cold, e.samples, e.compaction)
		for _, m := range e.metrics {
			row("end-to-end", m)
		}
		for _, m := range e.advisory {
			row("advisory", m)
		}
	}
	if l := r.layers; l != nil {
		for _, m := range l.metrics {
			row("per-layer", m)
		}
		for _, line := range l.report {
			fmt.Fprintln(out, "  "+line)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "  FAILED: "+n)
	}
}

// writeSummary records the run under outDir. It claims nothing: the
// benchmark measures, a later change argues.
func writeSummary(dir string, r *runResult) error {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	toMap := func(ms []metric) map[string]jm {
		out := make(map[string]jm, len(ms))
		for _, m := range ms {
			out[m.name] = jm{finite(m.value), m.unit}
		}
		return out
	}
	s := struct {
		Workload  string        `json:"workload"`
		Seed      uint64        `json:"seed"`
		InputHash string        `json:"input_sha256"`
		Attempted int           `json:"ops_attempted"`
		Failed    int           `json:"ops_failed"`
		Notes     []string      `json:"failures,omitempty"`
		EndToEnd  map[string]jm `json:"end_to_end,omitempty"`
		Advisory  map[string]jm `json:"advisory,omitempty"`
		PerLayer  map[string]jm `json:"per_layer,omitempty"`
		Claim     *string       `json:"claim"`
	}{Workload: r.workload, Seed: r.seed, InputHash: r.inputHash,
		Attempted: r.attempted, Failed: r.failed, Notes: r.notes}
	if r.e2e != nil {
		s.EndToEnd, s.Advisory = toMap(r.e2e.metrics), toMap(r.e2e.advisory)
	}
	if r.layers != nil {
		s.PerLayer = toMap(r.layers.metrics)
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(summaryPath(dir, r.workload), append(data, '\n'), 0o644)
}

func summaryPath(dir, workload string) string {
	return filepath.Join(dir, "summary-"+workload+".json")
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", defaultSeconds, "run length; sets the number of timed rounds")
		trace   = flag.Int("trace", traceBoth, "0 end-to-end pass, 1 traced per-layer pass, 2 both")
		scale   = flag.Float64("scale", 1, "shrink every workload's row count")
		repeat  = flag.Int("repeat", 0, "calibration: run the end-to-end suite N times and print the spread table")
		outDir  = flag.String("out", "out", "directory for span files, summaries and scratch data")
	)
	flag.Parse()
	if *seconds < 1 || *scale <= 0 || *trace < traceOff || *trace > traceBoth || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []*workload{w}
	}
	o := options{seed: *seed, seconds: *seconds, scale: *scale, outDir: *outDir, log: os.Stderr}
	if *repeat > 0 {
		if err := calibrate(os.Stdout, selected, o, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	failed := false
	for _, w := range selected {
		start := time.Now()
		r, err := run(w, o, *trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printTable(os.Stderr, r)
		fmt.Fprintf(os.Stderr, "  wall %.1fs\n", time.Since(start).Seconds())
		fmt.Println(contractLine(r))
		failed = failed || r.failed > 0
	}
	if failed {
		os.Exit(1)
	}
}
