package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of xs by the exclusive method, the
// default of Python's statistics.quantiles: position p·(n+1) in the sorted
// data, interpolated linearly between its neighbours and extrapolated from
// the end pair when the position falls outside them. Matching that method
// keeps the quartiles printed here equal to the ones a reader computes from
// the same values.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(n+1)
	j := min(max(int(math.Floor(h)), 1), n-1)
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailAt returns the p-quantile of xs only when at least ten samples lie
// beyond it: with fewer, a tail percentile is one or two outliers, and the
// caller reports nothing rather than a number that does not repeat.
func tailAt(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	v := quantile(xs, p)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	return v, beyond >= 10
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
