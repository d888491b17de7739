package main

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/vec"
)

// The oracle is the benchmark's own f64 brute force: it shares no code
// with the program under test, not even the dot kernel, so its sums
// may differ from the served ones in the last bits. scoreTol absorbs
// that; it is six orders below any gap the generators produce.
const scoreTol = 1e-9

type scored struct {
	id    int
	score float64
}

func dot(x, y []float64) float64 {
	var s float64
	for i, a := range x {
		s += a * y[i]
	}
	return s
}

func sameScore(a, b float64) bool {
	return math.Abs(a-b) <= scoreTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// oracleTopK returns the k best live rows for q in decreasing score,
// ties toward the smaller id. A nil row is a deleted record. Rows are
// split across the available CPUs; the merge keeps the order total.
func oracleTopK(rows []vec.Vector, q vec.Vector, k int, unsigned bool) []scored {
	parts := runtime.GOMAXPROCS(0)
	if len(rows) < 4096 {
		parts = 1
	}
	tops := make([][]scored, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lo, hi := p*len(rows)/parts, (p+1)*len(rows)/parts
			tops[p] = scanTopK(rows, lo, hi, q, k, unsigned)
		}(p)
	}
	wg.Wait()
	var all []scored
	for _, t := range tops {
		all = append(all, t...)
	}
	sortScored(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func sortScored(s []scored) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].score != s[j].score {
			return s[i].score > s[j].score
		}
		return s[i].id < s[j].id
	})
}

// scanTopK keeps the k best of rows[lo:hi] in a small sorted buffer.
func scanTopK(rows []vec.Vector, lo, hi int, q vec.Vector, k int, unsigned bool) []scored {
	best := make([]scored, 0, k+1)
	for id := lo; id < hi; id++ {
		if rows[id] == nil {
			continue
		}
		s := dot(rows[id], q)
		if unsigned && s < 0 {
			s = -s
		}
		if len(best) == k && s <= best[k-1].score {
			continue
		}
		at := sort.Search(len(best), func(i int) bool { return best[i].score < s })
		best = append(best, scored{})
		copy(best[at+1:], best[at:])
		best[at] = scored{id, s}
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}
