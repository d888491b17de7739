// Setjoin: unsigned IPS join over binary set data ({0,1}^d — the
// domain the paper singles out as "particularly interesting, as it
// occurs often in practice, for example when the vectors represent
// sets"). Inner product = intersection size. The example runs the
// MinHash-LSH banding join against the exact scan and reports recall
// and the candidate work saved.
package main

import (
	"fmt"
	"log"

	ips "repro"
	"repro/internal/dataset"
	"repro/internal/join"
	"repro/internal/lsh"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func main() {
	const (
		nData    = 4000
		nQuery   = 100
		universe = 512
		setSize  = 24
	)
	rng := xrand.New(7)
	P := dataset.BinarySets(rng, nData, universe, setSize, 0.7)
	Q := dataset.BinarySets(rng, nQuery, universe, setSize, 0.7)
	// Plant near-duplicates for a quarter of the queries: copy the query
	// set with a few elements dropped.
	plantedThreshold := float64(setSize) * 0.6
	for qi := 0; qi < nQuery; qi += 4 {
		p := Q[qi].Clone()
		dropped := 0
		for e := range p {
			if p[e] == 1 && dropped < setSize/4 {
				p[e] = 0
				dropped++
			}
		}
		P[qi] = p
	}

	s := plantedThreshold
	cs := s / 2
	fam, err := lsh.NewMinHash(universe)
	if err != nil {
		log.Fatal(err)
	}
	e := join.LSH{NewFamily: func(int) (lsh.Family, error) { return fam, nil }, K: 3, L: 16, Seed: 9}
	approx, err := join.JoinVectors(e, P, Q, s, cs, join.Opts{Unsigned: true})
	if err != nil {
		log.Fatal(err)
	}
	exact := join.NaiveUnsigned(P, Q, s)

	fmt.Printf("binary set join: %d data sets, %d queries, universe %d, |set|≈%d\n",
		nData, nQuery, universe, setSize)
	fmt.Printf("threshold s=%.0f (intersection), acceptance cs=%.0f\n", s, cs)
	fmt.Printf("exact:   %d satisfied queries, %d pairs compared\n",
		len(exact.Matches), exact.Compared)
	fmt.Printf("minhash: %d satisfied queries, %d pairs compared (%.1fx less work)\n",
		len(approx.Matches), approx.Compared,
		float64(exact.Compared)/float64(approx.Compared))
	fmt.Printf("recall vs exact: %.2f\n", ips.Recall(exact, approx, s))

	// Show one recovered pair in set notation.
	if len(approx.Matches) > 0 {
		m := approx.Matches[0]
		fmt.Printf("\nexample pair: query %d ∩ data %d = %.0f elements\n",
			m.QIdx, m.PIdx, vec.Dot(P[m.PIdx], Q[m.QIdx]))
	}
}
