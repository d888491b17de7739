package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// floorMean is the gated timing estimator for a cell whose rounds all
// replay the same operation list: xs holds rounds × perRound samples in
// round-major order. Each operation's time is the mean of the fastest
// quarter of its rounds — its floor, robust to the one-sided, bursty
// interference of a shared host — and the cell's time is the mean over
// operations, so cheap and dear requests (cache hit and miss, pruned and
// full scan) all count, each once.
func floorMean(xs []float64, rounds int) float64 {
	if rounds <= 0 || len(xs) < rounds {
		return 0
	}
	perRound := len(xs) / rounds
	keep := max(rounds/4, 1)
	col := make([]float64, rounds)
	var total float64
	for i := 0; i < perRound; i++ {
		for r := range col {
			col[r] = xs[r*perRound+i]
		}
		total += mean(sorted(col)[:keep])
	}
	return total / float64(perRound)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// highPercentile returns the highest of p99/p95/p90/p75 that still has
// at least ten samples beyond it, with its label; the median when the
// sample is too small for any of them.
func highPercentile(xs []float64) (string, float64) {
	for _, p := range []struct {
		name string
		q    float64
	}{{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}} {
		if float64(len(xs))*(1-p.q) >= 10 {
			return p.name, quantile(xs, p.q)
		}
	}
	return "p50", median(xs)
}

// cv is the coefficient of variation (sample standard deviation over
// the mean), the calibration table's repeatability measure.
func cv(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	if m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / math.Abs(m)
}

// iqrShare is the driver's spread statistic: the distance between the
// first and third quartile as a share of the median (the exclusive
// method of Python's statistics.quantiles(n=4)).
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(math.Floor(pos))
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := q(0.5)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(med)
}
