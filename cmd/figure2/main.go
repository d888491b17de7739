// Command figure2 regenerates Figure 2 of the paper: the ρ exponents of
// the three LSH constructions for signed inner product search —
// DATA-DEP (the paper's §4.1 bound, equation 3), SIMP (Neyshabur–Srebro
// SIMPLE-ALSH) and MH-ALSH (Shrivastava–Li asymmetric minwise hashing,
// binary data) — as functions of the normalized threshold s for one or
// more approximation factors c.
//
// With -mc it additionally Monte-Carlo-validates the SIMP curve by
// estimating collision probabilities of a real hyperplane-LSH
// implementation composed with the SIMPLE transform.
//
// Usage:
//
//	figure2 [-c 0.5,0.7,0.9] [-points 19] [-csv] [-mc] [-trials 20000]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/lsh"
	"repro/internal/stats"
	"repro/internal/vec"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "figure2: %v\n", err)
		os.Exit(1)
	}
}

// run writes the series args ask for to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("figure2", flag.ExitOnError)
	cList := fs.String("c", "0.5,0.7,0.9", "comma-separated approximation factors")
	points := fs.Int("points", 19, "number of s samples in (0,1)")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	mc := fs.Bool("mc", false, "Monte-Carlo validate the SIMP curve with real hashes")
	trials := fs.Int("trials", 20000, "Monte-Carlo trials per point")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with the usage, as before

	cs, err := parseFloats(*cList)
	if err != nil {
		return err
	}
	for _, c := range cs {
		fmt.Fprintf(w, "# Figure 2, c = %.3g\n", c)
		header := []string{"s", "rho_datadep", "rho_simp", "rho_mhalsh"}
		if *mc {
			header = append(header, "rho_simp_mc")
		}
		tb := stats.NewTable(header...)
		for _, pt := range lsh.Figure2Series(c, *points) {
			row := []any{pt.S, pt.DataDep, pt.Simp, pt.MHALSH}
			if *mc {
				row = append(row, mcSimpleRho(c, pt.S, *trials))
			}
			tb.Add(row...)
		}
		if *csv {
			fmt.Fprint(w, tb.CSV())
		} else {
			fmt.Fprint(w, tb.String())
		}
		fmt.Fprintln(w)
	}
	return nil
}

// mcSimpleRho estimates the SIMP exponent log P1/log P2 by hashing unit
// vectors at inner products s and c·s with real hyperplane hashes.
func mcSimpleRho(c, s float64, trials int) float64 {
	const d = 8
	fam, err := lsh.NewHyperplane(d)
	if err != nil {
		panic(err)
	}
	pair := func(t float64) (vec.Vector, vec.Vector) {
		p := vec.New(d)
		p[0] = 1
		q := vec.New(d)
		q[0] = t
		q[1] = math.Sqrt(1 - t*t)
		return p, q
	}
	p1p, p1q := pair(s)
	p2p, p2q := pair(c * s)
	p1 := lsh.EstimateCollision(fam, p1p, p1q, trials, 101)
	p2 := lsh.EstimateCollision(fam, p2p, p2q, trials, 102)
	if p1 <= 0 || p1 >= 1 || p2 <= 0 || p2 >= 1 {
		return math.NaN()
	}
	return math.Log(p1) / math.Log(p2)
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", p)
		}
		if v <= 0 || v >= 1 {
			return nil, fmt.Errorf("c=%v out of (0,1)", v)
		}
		out = append(out, v)
	}
	return out, nil
}
