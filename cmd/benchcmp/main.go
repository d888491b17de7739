// Command benchcmp compares two BENCH_*.json files produced by
// scripts/bench.sh and prints a benchstat-style delta table: time and
// allocations per op, old vs new, with the relative change. A benchmark
// a file lists more than once (rounds of output converted into one file,
// or -count) is compared by its median ns/op. By default it is
// report-only — regressions are flagged in the output but the
// exit code stays zero, so CI and bench.sh can surface the comparison
// without gating on a noisy box.
//
// With -gate it becomes an enforcing check: the exit code is non-zero
// if any benchmark (optionally restricted by -match) got slower than
// the given percentage. CI uses this to fail a change that regresses
// the flat scan rate's median over five alternating rounds by more
// than 10%.
//
// Usage:
//
//	benchcmp [-gate pct] [-match regexp] OLD.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"slices"
)

type benchFile struct {
	Commit     string  `json:"commit"`
	Benchmarks []entry `json:"benchmarks"`
}

type entry struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	MBPerS      *float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// load reads a BENCH_*.json file and keeps one entry per benchmark: the
// first one listed, with the median ns/op of all listed.
func load(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ns := make(map[string][]float64)
	var firsts []entry
	for _, e := range bf.Benchmarks {
		if ns[e.Name] == nil {
			firsts = append(firsts, e)
		}
		ns[e.Name] = append(ns[e.Name], e.NsPerOp)
	}
	for i := range firsts {
		firsts[i].NsPerOp = median(ns[firsts[i].Name])
	}
	bf.Benchmarks = firsts
	return &bf, nil
}

// median returns the middle of xs, the mean of the middle two when the
// count is even.
func median(xs []float64) float64 {
	xs = slices.Sorted(slices.Values(xs))
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// delta renders the old→new relative change, flagging slowdowns above
// 10% (likely real even on a noisy box) with a trailing '!'.
func delta(old, new float64) string {
	if old == 0 {
		return "n/a"
	}
	pct := (new - old) / old * 100
	mark := ""
	if pct > 10 {
		mark = " !"
	}
	return fmt.Sprintf("%+.1f%%%s", pct, mark)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcmp: ")
	gate := flag.Float64("gate", 0, "exit non-zero if a matched benchmark's ns/op regresses more than this percent (0 = report only)")
	match := flag.String("match", "", "regexp restricting which benchmarks -gate applies to (default: all)")
	flag.Parse()
	if flag.NArg() != 2 {
		log.Fatalf("usage: benchcmp [-gate pct] [-match regexp] OLD.json NEW.json")
	}
	var matchRE *regexp.Regexp
	if *match != "" {
		var err error
		if matchRE, err = regexp.Compile(*match); err != nil {
			log.Fatalf("-match: %v", err)
		}
	}
	oldF, err := load(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	newF, err := load(flag.Arg(1))
	if err != nil {
		log.Fatal(err)
	}
	oldBy := make(map[string]entry, len(oldF.Benchmarks))
	for _, e := range oldF.Benchmarks {
		oldBy[e.Name] = e
	}
	fmt.Printf("benchcmp %s (%s) -> %s (%s)\n", flag.Arg(0), oldF.Commit, flag.Arg(1), newF.Commit)
	fmt.Printf("%-46s %14s %14s %10s %18s\n", "benchmark", "old ns/op", "new ns/op", "time", "allocs|MB/s old->new")
	var gated, compared int
	var offenders []string
	for _, e := range newF.Benchmarks {
		o, ok := oldBy[e.Name]
		if !ok {
			mbs := ""
			if e.MBPerS != nil {
				mbs = fmt.Sprintf("%.0f MB/s", *e.MBPerS)
			}
			fmt.Printf("%-46s %14s %14.0f %10s %18s\n", e.Name, "(new)", e.NsPerOp, "", mbs)
			continue
		}
		allocs := ""
		if o.AllocsPerOp != nil && e.AllocsPerOp != nil {
			allocs = fmt.Sprintf("%.0f -> %.0f (%s)", *o.AllocsPerOp, *e.AllocsPerOp, delta(*o.AllocsPerOp, *e.AllocsPerOp))
		} else if o.MBPerS != nil && e.MBPerS != nil {
			allocs = fmt.Sprintf("%.0f -> %.0f MB/s", *o.MBPerS, *e.MBPerS)
		}
		fmt.Printf("%-46s %14.0f %14.0f %10s %18s\n", e.Name, o.NsPerOp, e.NsPerOp, delta(o.NsPerOp, e.NsPerOp), allocs)
		delete(oldBy, e.Name)
		if *gate > 0 && (matchRE == nil || matchRE.MatchString(e.Name)) && o.NsPerOp > 0 {
			compared++
			if pct := (e.NsPerOp - o.NsPerOp) / o.NsPerOp * 100; pct > *gate {
				gated++
				offenders = append(offenders, fmt.Sprintf("%s: %+.1f%%", e.Name, pct))
			}
		}
	}
	for _, e := range oldF.Benchmarks {
		if _, gone := oldBy[e.Name]; gone {
			fmt.Printf("%-46s %14.0f %14s %10s\n", e.Name, e.NsPerOp, "(gone)", "")
		}
	}
	if *gate > 0 {
		if compared == 0 {
			log.Fatalf("-gate %.0f: no benchmarks matched %q in both files", *gate, *match)
		}
		if gated > 0 {
			for _, off := range offenders {
				log.Printf("regression over %.0f%%: %s", *gate, off)
			}
			log.Fatalf("%d/%d gated benchmarks regressed more than %.0f%%", gated, compared, *gate)
		}
		fmt.Printf("gate ok: %d benchmarks within %.0f%%\n", compared, *gate)
	}
}
