// Command figure1 regenerates Figure 1 of the paper — the partition of
// the lower triangle of the collision grid into exponentially-sized
// squares G_{r,s} — and runs the Lemma 4 / Theorem 3 experiment: it
// builds the three staircase sequences, measures the empirical collision
// gap P1 − P2 of a concrete SIMPLE-ALSH on them, and compares it against
// the Lemma 4 bound.
//
// Usage:
//
//	figure1 [-n 15] [-bound] [-u 512] [-trials 3000]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/grid"
	"repro/internal/lsh"
	"repro/internal/seqs"
	"repro/internal/stats"
	"repro/internal/transform"
	"repro/internal/vec"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "figure1: %v\n", err)
		os.Exit(1)
	}
}

// run writes the figure, and the experiments args ask for, to w. A
// staircase that cannot be built is reported on stderr and skipped.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("figure1", flag.ExitOnError)
	n := fs.Int("n", 15, "grid size (must be 2^l − 1); 15 reproduces the figure")
	bound := fs.Bool("bound", false, "run the Lemma 4 empirical-gap experiment")
	masses := fs.Bool("masses", false, "run the full Lemma 4 mass-accounting ledger")
	u := fs.Float64("u", 512, "query ball radius U for the staircases")
	trials := fs.Int("trials", 3000, "hash samples for the empirical gap")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with the usage, as before

	out, err := grid.Render(*n)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Figure 1: square partition of the lower triangle (n = %d)\n", *n)
	fmt.Fprintf(w, "# cell value = level r of the covering square G_{r,s}; '·' = P2-node\n")
	fmt.Fprint(w, out)

	// Block geometry of the square the paper zooms into.
	if *n >= 15 {
		sq := grid.Square{R: 2, S: 0}
		rlo, rhi := sq.RowRange()
		clo, chi := sq.ColRange()
		llo, lhi := sq.LeftBlockCols()
		tlo, thi := sq.TopBlockRows()
		fmt.Fprintf(w, "\n# G_{2,0}: rows [%d,%d) cols [%d,%d); left-block cols [%d,%d); top-block rows [%d,%d)\n",
			rlo, rhi, clo, chi, llo, lhi, tlo, thi)
	}

	if *masses {
		if err := runMasses(w, *trials); err != nil {
			return err
		}
	}

	if !*bound {
		return nil
	}
	fmt.Fprintf(w, "\n# Lemma 4 experiment: empirical gap of SIMPLE-ALSH on Theorem 3 staircases (U = %g)\n", *u)
	tb := stats.NewTable("case", "n", "s", "cs", "emp_P1", "emp_P2", "emp_gap", "lemma4_bound", "ok")
	for _, tc := range []struct {
		name  string
		build func() (*seqs.Staircase, error)
	}{
		{"case1(d=2)", func() (*seqs.Staircase, error) {
			return seqs.Case1(2, *u/5000, 0.5, *u)
		}},
		{"case2(d=2)", func() (*seqs.Staircase, error) {
			return seqs.Case2(2, *u/128, 0.5, *u)
		}},
		{"case3(RS)", func() (*seqs.Staircase, error) {
			return seqs.Case3(*u/128, 0.5, *u, seqs.FamilyReedSolomon, 7)
		}},
	} {
		st, err := tc.build()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure1: %s: %v\n", tc.name, err)
			continue
		}
		if err := st.Verify(1e-9); err != nil {
			fmt.Fprintf(os.Stderr, "figure1: %s staircase invalid: %v\n", tc.name, err)
			continue
		}
		m := truncPow2m1(st.Len())
		if m < 3 {
			fmt.Fprintf(os.Stderr, "figure1: %s too short (%d)\n", tc.name, st.Len())
			continue
		}
		fam, err := simpleALSH(len(st.P[0]), *u)
		if err != nil {
			return err
		}
		p1, p2 := grid.EmpiricalGap(fam, st.P[:m], st.Q[:m], *trials, 11)
		b := grid.GapBound(m)
		tb.Add(tc.name, m, st.S, st.CS, p1, p2, p1-p2, b, p1-p2 <= b)
	}
	fmt.Fprint(w, tb.String())
	return nil
}

// runMasses reproduces the proof's bookkeeping on a 15-long case-1
// staircase under SIMPLE-ALSH: per-square total/proper/shared/partially
// shared masses, the inequality chain, and the resulting gap bound.
func runMasses(w io.Writer, trials int) error {
	const bigU = 1 << 16
	st, err := seqs.Case1_1D(1.0/256, 0.5, bigU)
	if err != nil {
		return err
	}
	if st.Len() < 15 {
		return fmt.Errorf("staircase too short: %d", st.Len())
	}
	fam, err := simpleALSH(1, bigU)
	if err != nil {
		return err
	}
	ma, err := grid.AccountMasses(fam, st.P[:15], st.Q[:15], trials, 13)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n# Lemma 4 mass accounting (n = 15, SIMPLE-ALSH, %d sampled hashers)\n", trials)
	tb := stats.NewTable("square", "side", "total", "proper", "shared", "part_shared",
		"area*P1", "combined_bound")
	for _, sm := range ma.Squares {
		area := float64(sm.Side() * sm.Side())
		tb.Add(fmt.Sprintf("G(%d,%d)", sm.R, sm.S), sm.Side(), sm.Total, sm.Proper,
			sm.Shared, sm.PartShared, area*ma.P1,
			float64(2*sm.Side()+1)*sm.Proper+area*ma.P2)
	}
	fmt.Fprint(w, tb.String())
	fmt.Fprintf(w, "empirical P1 = %.4f, P2 = %.4f, gap = %.4f (Lemma 4 bound %.4f)\n",
		ma.P1, ma.P2, ma.Gap(), grid.GapBound(ma.N))
	if err := ma.VerifyProof(1e-9); err != nil {
		return fmt.Errorf("proof inequalities violated: %w", err)
	}
	fmt.Fprintln(w, "proof inequalities: OK (decomposition, area bound, combined bound, Σproper ≤ 2n)")
	return nil
}

// truncPow2m1 returns the largest 2^l − 1 that is ≤ n.
func truncPow2m1(n int) int {
	g := 1
	for g*2-1 <= n {
		g *= 2
	}
	return g - 1
}

// simpleALSH composes the Neyshabur–Srebro map with hyperplane hashing.
func simpleALSH(d int, u float64) (lsh.Family, error) {
	tr, err := transform.NewSimple(d, u)
	if err != nil {
		return nil, err
	}
	inner, err := lsh.NewHyperplane(tr.OutputDim())
	if err != nil {
		return nil, err
	}
	return lsh.NewAsymmetric("simple-alsh", lsh.MapPair{
		Data: func(p vec.Vector) vec.Vector {
			// Guard tiny norm excesses from float accumulation.
			if n := vec.Norm(p); n > 1 {
				p = vec.Scaled(p, (1-1e-12)/n)
			}
			return tr.Data(p)
		},
		Query: func(q vec.Vector) vec.Vector {
			if n := vec.Norm(q); n > u {
				q = vec.Scaled(q, (1-1e-12)*u/n)
			}
			return tr.Query(q)
		},
	}, inner)
}
