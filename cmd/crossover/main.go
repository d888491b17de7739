// Command crossover runs the ablation study of DESIGN.md experiment
// E-X: who wins where among the join/search strategies — exact scan
// (the scalar reference over row slices, and the columnar sweep ipsd
// serves), norm-pruned scan, ball tree, asymmetric LSH, and the §4.3
// sketch structure — as the data size grows, on the latent-factor MIPS
// workload. It also runs the Valiant-style
// aggregation detector against the naive correlation scan (the
// permissible side of Table 1 for unsigned {−1,1}).
//
// Usage:
//
//	crossover [-sizes 1000,2000,4000] [-d 24] [-queries 40] [-seed 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	ips "repro"
	"repro/internal/corr"
	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/mips"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func main() {
	sizesFlag := flag.String("sizes", "1000,2000,4000", "data sizes to sweep")
	d := flag.Int("d", 24, "vector dimension / rank")
	queries := flag.Int("queries", 40, "queries per size")
	seed := flag.Uint64("seed", 1, "workload seed")
	flag.Parse()

	sizes, err := parseInts(*sizesFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crossover: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("# MIPS crossover (latent-factor workload, d=%d, %d queries/size)\n", *d, *queries)
	tb := stats.NewTable("n", "method", "avg_query", "recall@1", "notes")
	for _, n := range sizes {
		rng := xrand.New(*seed + uint64(n))
		lf := dataset.NewLatentFactor(rng, n, *queries, *d, 0.6)
		lf.ScaleItemsToUnitBall()

		exactIdx := make([]int, *queries)
		exactTime := timeIt(func() {
			for qi, q := range lf.Users {
				r := mips.LinearScan(lf.Items, q)
				exactIdx[qi] = r.Index
			}
		})
		tb.Add(n, "exact-scan", perQuery(exactTime, *queries), 1.0, "ground truth")

		// The same exact answer the way ipsd serves it: flat's blocked sweep
		// of one columnar store.
		fs, err := flat.FromVectors(lf.Items)
		if err != nil {
			fail(err)
		}
		flatHits := 0
		flatTime := timeIt(func() {
			for qi, q := range lf.Users {
				hs, err := fs.View().Scan(context.Background(), q, flat.ScanOpts{K: 1})
				if err != nil {
					fail(err)
				}
				if hs[0].Index == exactIdx[qi] {
					flatHits++
				}
			}
		})
		tb.Add(n, "flat-scan", perQuery(flatTime, *queries),
			float64(flatHits)/float64(*queries), "the baseline ipsd serves")

		np, err := mips.NewNormPruned(lf.Items)
		if err != nil {
			fail(err)
		}
		scanned := 0
		npHits := 0
		npTime := timeIt(func() {
			for qi, q := range lf.Users {
				r := np.Query(q)
				scanned += r.Scanned
				if r.Index == exactIdx[qi] {
					npHits++
				}
			}
		})
		tb.Add(n, "norm-prune", perQuery(npTime, *queries),
			float64(npHits)/float64(*queries),
			fmt.Sprintf("scanned %.0f%%", 100*float64(scanned)/float64(n**queries)))

		bt, err := mips.NewBallTree(lf.Items, 32)
		if err != nil {
			fail(err)
		}
		btHits, btScanned := 0, 0
		btTime := timeIt(func() {
			for qi, q := range lf.Users {
				r := bt.Query(q)
				btScanned += r.Scanned
				if r.Index == exactIdx[qi] {
					btHits++
				}
			}
		})
		tb.Add(n, "ball-tree", perQuery(btTime, *queries),
			float64(btHits)/float64(*queries),
			fmt.Sprintf("scanned %.0f%%", 100*float64(btScanned)/float64(n**queries)))

		ix, err := ips.NewMIPSIndex(lf.Items, ips.MIPSOptions{K: 6, L: 32, Seed: *seed})
		if err != nil {
			fail(err)
		}
		lshHits := 0
		lshTime := timeIt(func() {
			for qi, q := range lf.Users {
				got, _ := ix.Query(q)
				if got == exactIdx[qi] {
					lshHits++
				}
			}
		})
		tb.Add(n, "lsh (§4.1)", perQuery(lshTime, *queries),
			float64(lshHits)/float64(*queries), "approximate")

		sk, err := ips.NewSketchMIPS(lf.Items, 3, 7, *seed)
		if err != nil {
			fail(err)
		}
		skHits := 0
		skTime := timeIt(func() {
			for qi, q := range lf.Users {
				got, _ := sk.Query(q)
				if got == exactIdx[qi] {
					skHits++
				}
			}
		})
		tb.Add(n, "sketch (§4.3)", perQuery(skTime, *queries),
			float64(skHits)/float64(*queries),
			fmt.Sprintf("c-MIPS, c=%.3f", ips.SketchJoinGuaranteedC(n, 3)))
	}
	fmt.Print(tb.String())

	fmt.Println("\n# Outlier correlation: naive vs Valiant-style aggregation (unsigned {−1,1})")
	ctb := stats.NewTable("n", "d", "g", "rho", "naive_work", "agg_work", "agg_found")
	for _, n := range []int{64, 128, 256} {
		const dd = 4096
		g := 4
		rho := 2 * corr.MinSignal(n, dd, g)
		if rho > 1 {
			continue
		}
		rng := xrand.New(*seed + uint64(n))
		in, err := corr.NewInstance(rng, n, n, dd, rho)
		if err != nil {
			fail(err)
		}
		naive := corr.Naive(in)
		agg, err := corr.Aggregate(in, g, rng)
		if err != nil {
			fail(err)
		}
		ctb.Add(n, dd, g, rho, naive.Work, agg.Work,
			agg.PIdx == in.PIdx && agg.QIdx == in.QIdx)
	}
	fmt.Print(ctb.String())
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func perQuery(d time.Duration, q int) string {
	return (d / time.Duration(q)).Round(time.Microsecond).String()
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad size %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "crossover: %v\n", err)
	os.Exit(1)
}
