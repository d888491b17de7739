package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// noisyHost is the canary ratio above which a calibration run warns:
// the reference scan's median ran this far above its own floor.
const noisyHost = 1.5

// calibrate runs the end-to-end suite n times back to back, workloads
// interleaved, each run a fresh process on the next seed — exactly what
// the driver does — and prints one row per workload × metric: the
// median, the coefficient of variation, the quartile spread the driver
// computes, and the gap between the medians of the first and second
// half of the runs (a drifting host shows there before it shows in the
// CV).
func calibrate(out io.Writer, ws []*workload, o options, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type cell struct{ workload, metric, unit string }
	var order []cell
	values := map[cell][]float64{}
	noise := map[string][]float64{}
	for rep := 0; rep < n; rep++ {
		for _, w := range ws {
			seed := o.seed + uint64(rep)
			cmd := exec.Command(self, "-workload", w.name, "-trace", "0", "-out", o.outDir,
				"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(o.seconds),
				"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64))
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			var line struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil || !line.Correct {
				return fmt.Errorf("%s seed %d: bad result line (%v): %s", w.name, seed, err, lines[len(lines)-1])
			}
			for _, m := range endToEndNames {
				c := cell{w.name, m, line.Metrics[m].Unit}
				if _, ok := values[c]; !ok {
					order = append(order, c)
				}
				values[c] = append(values[c], line.Metrics[m].Value)
			}
			var summary struct {
				Advisory map[string]struct{ Value float64 } `json:"advisory"`
			}
			if data, err := os.ReadFile(summaryPath(o.outDir, w.name)); err == nil && json.Unmarshal(data, &summary) == nil {
				noise[w.name] = append(noise[w.name], summary.Advisory["host_noise"].Value)
			}
			fmt.Fprintf(o.log, "calibrate: run %d/%d %s done\n", rep+1, n, w.name)
		}
	}

	fmt.Fprintf(out, "| workload | metric | unit | median | CV | IQR/median | half gap | host noise |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|\n")
	for _, c := range order {
		xs := values[c]
		half := len(xs) / 2
		gap := 0.0
		if half > 0 && median(xs[:half]) != 0 {
			gap = math.Abs(median(xs[half:])-median(xs[:half])) / math.Abs(median(xs[:half]))
		}
		fmt.Fprintf(out, "| %s | %s | %s | %.6g | %.1f%% | %.1f%% | %.1f%% | %.2f |\n",
			c.workload, c.metric, c.unit, median(xs), 100*cv(xs), 100*iqrShare(xs), 100*gap, median(noise[c.workload]))
	}
	for _, w := range ws {
		if m := median(noise[w.name]); m > noisyHost {
			fmt.Fprintf(out, "\nWARNING: %s ran on a noisy host (canary p50/floor %.2f > %.1f); repeat before trusting its rows.\n",
				w.name, m, noisyHost)
		}
	}
	return nil
}
