package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks, the rule Python's
// statistics.quantiles(method="inclusive") uses. xs need not be sorted;
// it is not modified. An empty sample yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (its default
// "exclusive" method), so the spreads this command prints match the
// ones computed from the raw result files with Python.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// statistics.quantiles, method="exclusive", n=4.
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// tailLadder lists the percentiles tailPercentile chooses from.
var tailLadder = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of the ladder that has
// at least ten samples beyond it in a sample of n, and false when even
// the median has fewer than ten (n < 20).
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// pname spells a percentile as a metric-name suffix: 90 -> "p90",
// 99.9 -> "p99.9".
func pname(p float64) string {
	return fmt.Sprintf("p%g", p)
}
