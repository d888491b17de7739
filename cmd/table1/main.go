// Command table1 regenerates Table 1 of the paper: the hard and
// permissible approximation ranges for signed/unsigned (cs, s) IPS join
// over {−1,1}^d and {0,1}^d.
//
// The hard side is *constructive*: for each row it instantiates the
// Lemma 3 gap embedding, certifies its exact (cs, s) parameters on
// planted OVP instances (the Lemma 2 pipeline), and reports the achieved
// approximation factor c and the Theorem 2 ratio log(s/d)/log(cs/d).
//
// The permissible side is *measured*: it runs the §4.3 sketch join
// (c = n^{−1/κ}) and the {0,1} MinHash-LSH join across a sweep of n and
// reports the empirical work exponents against the paper's predictions
// 2 − 2/κ and 1 + log(s/d)/log(cs/d).
//
// Usage:
//
//	table1 [-hard] [-permissible] [-quick]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/join"
	"repro/internal/lsh"
	"repro/internal/ovp"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "table1: %v\n", err)
		os.Exit(1)
	}
}

// run writes the table that args ask for to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	hard := fs.Bool("hard", true, "emit the hard-range (embedding) rows")
	perm := fs.Bool("permissible", true, "emit the permissible-range (algorithm) rows")
	quick := fs.Bool("quick", false, "smaller sweeps for fast runs")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with the usage, as before
	if *hard {
		if err := hardRows(w); err != nil {
			return err
		}
	}
	if *perm {
		return permissibleRows(w, *quick)
	}
	return nil
}

// hardRows certifies the Lemma 3 embeddings behind Table 1's hard ranges.
func hardRows(w io.Writer) error {
	fmt.Fprintln(w, "# Table 1 — hard ranges (constructive: Lemma 3 embeddings, verified on planted OVP)")
	tb := stats.NewTable("problem", "embedding", "d1", "d2", "cs", "s",
		"c=cs/s", "ratio", "ovp_ok")
	rng := xrand.New(1)

	// Signed {−1,1}: embedding 1, hard for every c > 0 (cs = 0).
	for _, d := range []int{16, 32, 64} {
		e, err := embed.NewSignedPM1(d)
		if err != nil {
			return err
		}
		p := e.Params()
		ok := pipelineOK(rng, d, func(in *ovp.Instance) (ovp.Pair, bool) {
			return ovp.SolveViaSignsEmbedding(in, e)
		})
		tb.Add("signed {-1,1}", "E1", p.D1, p.D2, p.CS, p.S, p.C(), "->0", ok)
	}

	// Unsigned {−1,1}: embedding 2 (Chebyshev), c = 1/T_q(1+1/d) → e^{−Θ(q/√d)}.
	for _, pq := range [][2]int{{8, 1}, {8, 2}, {8, 3}, {16, 2}, {16, 3}} {
		d, q := pq[0], pq[1]
		e, err := embed.NewChebyshevPM1(d, q)
		if err != nil {
			return err
		}
		p := e.Params()
		ok := pipelineOK(rng, d, func(in *ovp.Instance) (ovp.Pair, bool) {
			return ovp.SolveViaSignsEmbedding(in, e)
		})
		tb.Add("unsigned {-1,1}", fmt.Sprintf("E2(q=%d)", q),
			p.D1, p.D2, p.CS, p.S, p.C(), p.Ratio(), ok)
	}

	// Unsigned {0,1}: embedding 3 (chopped polynomial), c = (k−1)/k → 1.
	for _, dk := range [][2]int{{16, 4}, {32, 8}, {32, 32}, {64, 64}} {
		d, k := dk[0], dk[1]
		e, err := embed.NewChopped01(d, k)
		if err != nil {
			return err
		}
		p := e.Params()
		ok := pipelineOK(rng, d, func(in *ovp.Instance) (ovp.Pair, bool) {
			return ovp.SolveViaBitsEmbedding(in, e)
		})
		tb.Add("unsigned {0,1}", fmt.Sprintf("E3(k=%d)", k),
			p.D1, p.D2, p.CS, p.S, p.C(), p.Ratio(), ok)
	}
	fmt.Fprint(w, tb.String())
	fmt.Fprintln(w, "# c=cs/s is the hard approximation the embedding certifies; ratio is log(s/d2)/log(cs/d2) (Theorem 2).")
	fmt.Fprintln(w)
	return nil
}

// pipelineOK runs the Lemma 2 pipeline on a planted and an unplanted
// instance and reports whether both answers are correct.
func pipelineOK(rng *xrand.RNG, d int, solve func(*ovp.Instance) (ovp.Pair, bool)) bool {
	pos, want := ovp.Planted(rng, 8, 10, d, 0.2, true)
	got, ok := solve(pos)
	if !ok || got != want {
		return false
	}
	neg, _ := ovp.Planted(rng, 8, 10, d, 0.2, false)
	if _, ok := solve(neg); ok {
		return false
	}
	return true
}

// permissibleRows measures the work exponents of the two subquadratic
// algorithms on the permissible side of Table 1.
func permissibleRows(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "# Table 1 — permissible ranges (measured subquadratic algorithms)")

	// (a) §4.3 sketch join: c = n^{−1/κ}, predicted per-query work
	// exponent 1−2/κ (total 2−2/κ). The work proxy is the total sketch
	// rows touched per query.
	ns := []int{256, 512, 1024, 2048}
	if quick {
		ns = []int{256, 512, 1024}
	}
	tb := stats.NewTable("algorithm", "kappa", "c(n=max)", "measured_exp", "predicted_exp")
	for _, kappa := range []float64{2.5, 3, 4} {
		xs := make([]float64, 0, len(ns))
		ys := make([]float64, 0, len(ns))
		for _, n := range ns {
			work := sketchWorkPerQuery(n, kappa)
			xs = append(xs, float64(n))
			ys = append(ys, work)
		}
		slope := stats.LogLogSlope(xs, ys)
		tb.Add("sketch-join", kappa,
			1/math.Pow(float64(ns[len(ns)-1]), 1/kappa), slope, 1-2/kappa)
	}

	// (b) {0,1} LSH join with MinHash: predicted query exponent
	// ρ = log(s/d)/log(cs/d) in Jaccard terms; the work proxy is the
	// candidate count per query.
	xs := make([]float64, 0, len(ns))
	ys := make([]float64, 0, len(ns))
	var rhoPred float64
	for _, n := range ns {
		cands, rho := minhashCandidatesPerQuery(n, quick)
		rhoPred = rho
		xs = append(xs, float64(n))
		ys = append(ys, math.Max(cands, 0.5))
	}
	tb.Add("minhash-join {0,1}", "-", "-", stats.LogLogSlope(xs, ys), rhoPred)
	fmt.Fprint(w, tb.String())
	fmt.Fprintln(w, "# sketch-join: per-query work ~ n^{1−2/κ} with approximation c = n^{−1/κ} (§4.3).")
	fmt.Fprintln(w, "# minhash-join: per-query candidates ~ n^ρ with ρ = log(P1)/log(P2) from the Jaccard gap.")
	return nil
}

// sketchWorkPerQuery builds the real §4.3 MaxDot structure over n
// random vectors and returns its per-query row count — the measured
// query cost driver (the full cost is rows × d × copies). The
// structure's row count carries a log n boosting factor on top of
// n^{1−2/κ}, which biases the measured exponent slightly upward; the
// residual is reported against the clean prediction.
func sketchWorkPerQuery(n int, kappa float64) float64 {
	const d = 8
	rng := xrand.New(uint64(n) * 31)
	data := make([]vec.Vector, n)
	for i := range data {
		data[i] = vec.Vector(rng.NormalVec(d))
	}
	md, err := sketch.NewMaxDot(data, kappa, 1, 17)
	if err != nil {
		panic(err)
	}
	// Remove the log factor so the slope isolates the polynomial term.
	return float64(md.SketchRows()) / math.Log(float64(n)+2)
}

// minhashCandidatesPerQuery builds a MinHash banding index over n binary
// sets with the theory-prescribed parameters K = ⌈ln n / ln(1/j2)⌉ and
// L = ⌈n^ρ⌉, and returns the mean per-query work (candidates + L table
// probes) plus the predicted exponent ρ = log(j1)/log(j2).
func minhashCandidatesPerQuery(n int, quick bool) (float64, float64) {
	// Near-uniform sets of size `avg` over universe d keep background
	// Jaccard similarity below j2 with good margin.
	const d, avg = 256, 12
	const j1, j2 = 0.5, 0.1
	rng := xrand.New(uint64(n))
	data := dataset.BinarySets(rng, n, d, avg, 0.05)
	nq := 24
	if quick {
		nq = 12
	}
	queries := dataset.BinarySets(rng, nq, d, avg, 0.05)
	fam, err := lsh.NewMinHash(d)
	if err != nil {
		panic(err)
	}
	rho := math.Log(j1) / math.Log(j2)
	k := int(math.Ceil(math.Log(float64(n)) / math.Log(1/j2)))
	l := int(math.Ceil(math.Pow(float64(n), rho)))
	j := join.LSHJoiner{Family: fam, K: k, L: l, Seed: 9}
	res, err := j.Unsigned(data, queries, float64(avg)/2, float64(avg)/4)
	if err != nil {
		panic(err)
	}
	// Per-query work: candidate verifications plus the L table lookups
	// (the n^ρ term that dominates when candidate lists are empty).
	// Unsigned probes both q and −q; −q has empty support and contributes
	// no candidates, so halve the probe count.
	work := float64(res.Compared)/float64(nq)/2 + float64(l)
	return work, rho
}
