// Command ovpreduce runs the Lemma 2 reduction end to end: it generates
// planted Orthogonal Vectors instances, embeds them with each of the
// three Lemma 3 gap embeddings, solves the resulting (cs, s) joins, and
// reports correctness and timings against the direct bit-packed solver.
// This is Theorems 1 and 2 "run forward": the reduction that transfers
// OVP hardness to approximate IPS join, demonstrated as a working
// algorithm.
//
// Usage:
//
//	ovpreduce [-n 64] [-m 48] [-d 16] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/embed"
	"repro/internal/ovp"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "ovpreduce: %v\n", err)
		os.Exit(1)
	}
}

// run writes the reduction's report for the instance args describe to w.
// Its last column is wall time.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("ovpreduce", flag.ExitOnError)
	n := fs.Int("n", 64, "|Q| (queries)")
	m := fs.Int("m", 48, "|P| (data)")
	d := fs.Int("d", 16, "OVP dimension")
	seed := fs.Uint64("seed", 1, "instance seed")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with the usage, as before

	rng := xrand.New(*seed)
	pos, want := ovp.Planted(rng, *m, *n, *d, 0.2, true)
	neg, _ := ovp.Planted(rng, *m, *n, *d, 0.2, false)

	fmt.Fprintf(w, "# OVP → IPS join reduction (|P|=%d |Q|=%d d=%d)\n", *m, *n, *d)
	tb := stats.NewTable("solver", "d2", "cs", "s", "planted_found", "negative_clean", "time")

	row := func(name string, d2 int, cs, s float64, solve func(*ovp.Instance) (ovp.Pair, bool)) {
		start := time.Now()
		got, ok := solve(pos)
		_, falsePos := solve(neg)
		elapsed := time.Since(start)
		tb.Add(name, d2, cs, s, ok && got == want, !falsePos, elapsed.Round(time.Microsecond))
	}

	row("naive (bit-packed)", *d, 0, 1, ovp.SolveNaive)

	e1, err := embed.NewSignedPM1(*d)
	if err != nil {
		return err
	}
	p1 := e1.Params()
	row("E1 signed {-1,1}", p1.D2, p1.CS, p1.S, func(in *ovp.Instance) (ovp.Pair, bool) {
		return ovp.SolveViaSignsEmbedding(in, e1)
	})

	for q := 1; q <= 2; q++ {
		e2, err := embed.NewChebyshevPM1(*d, q)
		if err != nil {
			return err
		}
		p2 := e2.Params()
		row(fmt.Sprintf("E2 Chebyshev q=%d", q), p2.D2, p2.CS, p2.S,
			func(in *ovp.Instance) (ovp.Pair, bool) {
				return ovp.SolveViaSignsEmbedding(in, e2)
			})
	}

	for _, k := range []int{4, *d} {
		if k > *d {
			continue
		}
		e3, err := embed.NewChopped01(*d, k)
		if err != nil {
			return err
		}
		p3 := e3.Params()
		row(fmt.Sprintf("E3 chopped k=%d", k), p3.D2, p3.CS, p3.S,
			func(in *ovp.Instance) (ovp.Pair, bool) {
				return ovp.SolveViaBitsEmbedding(in, e3)
			})
	}

	fmt.Fprint(w, tb.String())
	fmt.Fprintln(w, "# planted_found: the certified orthogonal pair was recovered through the embedding.")
	fmt.Fprintln(w, "# negative_clean: no pair reported on the certified orthogonal-free instance.")
	return nil
}
