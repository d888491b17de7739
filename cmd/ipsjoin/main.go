// Command ipsjoin is the general join driver: it generates (or loads) a
// workload, packs it into columnar flat stores, runs the selected join
// engine on the signed or unsigned (cs, s) join, verifies the
// Definition 1 guarantee by brute force, and prints a summary with work
// counters. Workloads can be persisted with -save and replayed with
// -load for exact reruns.
//
// Engines: "exact" is the blocked tiled P×Q kernel (the default),
// "normpruned" adds Cauchy–Schwarz tile skipping, "lsh" and "sketch"
// are the approximate engines, and "naive" is the row-slice reference
// scan (the benchmark baseline; it thresholds at s and ignores -c and
// -topk). -workers > 1 spreads query tiles over a bounded worker pool.
//
// Usage:
//
//	ipsjoin [-engine exact|normpruned|lsh|sketch|naive]
//	        [-variant signed|unsigned] [-workload planted|latent|binary]
//	        [-n 1000] [-nq 100] [-d 32] [-s 0.9] [-c 0.5] [-topk 0]
//	        [-workers 1] [-kappa 3] [-k 8] [-l 16] [-seed 1] [-verify]
//	        [-save PREFIX] [-load PREFIX]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/join"
	"repro/internal/lsh"
	"repro/internal/server"
	"repro/internal/vec"
	"repro/internal/vecio"
	"repro/internal/xrand"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); errors.Is(err, errViolated) {
		os.Exit(2)
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "ipsjoin: %v\n", err)
		os.Exit(1)
	}
}

// errViolated is run's error when the brute-force check finds the (cs, s)
// guarantee broken; the report is already written.
var errViolated = errors.New("guarantee violated")

// run performs the join that args ask for and writes its summary to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("ipsjoin", flag.ExitOnError)
	engine := fs.String("engine", "exact", "exact | normpruned | lsh | sketch | naive")
	variant := fs.String("variant", "signed", "signed | unsigned")
	workload := fs.String("workload", "planted", "planted | latent | binary")
	n := fs.Int("n", 1000, "|P|")
	nq := fs.Int("nq", 100, "|Q|")
	d := fs.Int("d", 32, "dimension")
	s := fs.Float64("s", 0.9, "promise threshold s")
	c := fs.Float64("c", 0.5, "approximation factor c (exact engines accept at c·s too)")
	topk := fs.Int("topk", 0, "report up to k pairs per query (0 = best pair only)")
	workers := fs.Int("workers", 1, "parallel query-tile workers")
	kappa := fs.Float64("kappa", 3, "sketch ℓ_κ parameter")
	k := fs.Int("k", 8, "LSH hashes per table")
	l := fs.Int("l", 16, "LSH tables")
	seed := fs.Uint64("seed", 1, "workload + algorithm seed")
	verify := fs.Bool("verify", true, "brute-force verify the (cs,s) guarantee")
	save := fs.String("save", "", "write the workload to PREFIX.p / PREFIX.q")
	load := fs.String("load", "", "read the workload from PREFIX.p / PREFIX.q")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with the usage

	var P, Q []vec.Vector
	if *load != "" {
		var err error
		if P, Q, err = loadWorkload(*load); err != nil {
			return err
		}
		if len(P) == 0 || len(Q) == 0 {
			return fmt.Errorf("loaded workload is empty")
		}
		*d = len(P[0])
	} else {
		var err error
		if P, Q, err = generate(xrand.New(*seed), *workload, *n, *nq, *d, *s); err != nil {
			return err
		}
	}
	if *save != "" {
		if err := saveWorkload(*save, P, Q); err != nil {
			return err
		}
		fmt.Fprintf(w, "workload saved to %s.p / %s.q\n", *save, *save)
	}

	sp := core.Spec{S: *s, C: *c}
	switch *variant {
	case "signed":
		sp.Variant = core.Signed
	case "unsigned":
		sp.Variant = core.Unsigned
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	if err := sp.Validate(); err != nil {
		return err
	}

	fp, err := flat.FromVectors(P)
	if err != nil {
		return err
	}
	fq, err := flat.FromVectors(Q)
	if err != nil {
		return err
	}

	opts := join.Opts{Unsigned: sp.Variant == core.Unsigned, TopK: *topk}
	if *workers > 1 {
		opts.Runner = server.NewPool(*workers)
	}

	var eng join.Engine
	switch *engine {
	case "exact", "tiled":
		eng = join.Tiled{}
	case "normpruned":
		eng = join.NormPruned{}
	case "lsh":
		eng = join.LSH{
			NewFamily: func(dim int) (lsh.Family, error) { return lsh.NewHyperplane(dim) },
			K:         *k, L: *l, Seed: *seed,
		}
	case "sketch":
		eng = join.Sketch{Kappa: *kappa, Copies: 9, Seed: *seed}
	case "naive":
		// Reference scan over the row slices; thresholds at s.
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}

	// Exact engines accept at c·s like the approximate ones; with the
	// default -c they mirror the approximate runs, with -c 1 they solve
	// the strict exact join.
	name := *engine
	start := time.Now()
	var res join.Result
	if eng != nil {
		if res, err = eng.Join(fp, fq, sp.S, sp.CS(), opts); err != nil {
			return err
		}
		name = eng.Name()
	} else if sp.Variant == core.Signed {
		res = join.NaiveSigned(P, Q, sp.S)
	} else {
		res = join.NaiveUnsigned(P, Q, sp.S)
	}
	elapsed := time.Since(start)

	fmt.Fprintf(w, "engine=%s variant=%s workload=%s |P|=%d |Q|=%d d=%d s=%g c=%g topk=%d workers=%d\n",
		name, sp.Variant, *workload, len(P), len(Q), *d, sp.S, sp.C, *topk, *workers)
	fmt.Fprintf(w, "matches=%d compared=%d (naive would compare %d) time=%s\n",
		len(res.Matches), res.Compared, len(P)*len(Q), elapsed.Round(time.Microsecond))
	if *verify {
		if err := core.CheckGuarantee(P, Q, res, sp); err != nil {
			fmt.Fprintf(w, "guarantee: VIOLATED — %v\n", err)
			return errViolated
		}
		fmt.Fprintln(w, "guarantee: OK (Definition 1 verified by brute force)")
	}
	return nil
}

// generate builds the selected synthetic workload.
func generate(rng *xrand.RNG, workload string, n, nq, d int, s float64) (P, Q []vec.Vector, err error) {
	switch workload {
	case "planted":
		hot := make([]int, 0, nq/4)
		for i := 0; i < nq; i += 4 {
			hot = append(hot, i)
		}
		P, Q, _ = dataset.Planted(rng, n, nq, d, s*1.05, hot)
	case "latent":
		lf := dataset.NewLatentFactor(rng, n, nq, d, 0.5)
		lf.ScaleItemsToUnitBall()
		P, Q = lf.Items, lf.Users
	case "binary":
		P = dataset.BinarySets(rng, n, d, max(2, d/8), 0.8)
		Q = dataset.BinarySets(rng, nq, d, max(2, d/8), 0.8)
	default:
		return nil, nil, fmt.Errorf("unknown workload %q", workload)
	}
	return P, Q, nil
}

// saveWorkload writes P and Q in the vecio binary format.
func saveWorkload(prefix string, P, Q []vec.Vector) error {
	for _, part := range []struct {
		suffix string
		vs     []vec.Vector
	}{{".p", P}, {".q", Q}} {
		f, err := os.Create(prefix + part.suffix)
		if err != nil {
			return err
		}
		if err := vecio.WriteDense(f, part.vs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// loadWorkload reads P and Q written by saveWorkload.
func loadWorkload(prefix string) (P, Q []vec.Vector, err error) {
	read := func(path string) ([]vec.Vector, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return vecio.ReadDense(f)
	}
	if P, err = read(prefix + ".p"); err != nil {
		return nil, nil, err
	}
	if Q, err = read(prefix + ".q"); err != nil {
		return nil, nil, err
	}
	return P, Q, nil
}
