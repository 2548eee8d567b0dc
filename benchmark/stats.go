package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"graphmem/internal/stats"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(sortedCopy(xs), 50)
}

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks. It refuses a percentile with
// fewer than ten samples beyond it: a tail estimated from a handful of
// values is the sample maximum under another name.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of range (0,100)", p)
	}
	tail := math.Min(p, 100-p) / 100
	if beyond := int(float64(len(xs)) * tail); beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %d samples beyond it, need 10", p, len(xs), beyond)
	}
	return stats.Percentile(sortedCopy(xs), p), nil
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method) computes them, so the spread printed
// by -selfcheck is the number the acceptance rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	ld := len(xs)
	if ld < 2 {
		v := median(xs)
		return v, v
	}
	s := sortedCopy(xs)
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// lowerQuartile is Q1 of xs as quartiles gives it, but never below the
// smallest value (the exclusive method extrapolates from two values): the
// smallest of up to three values, a quarter of the way up from there on.
func lowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	q1, _ := quartiles(xs)
	return max(q1, slices.Min(xs))
}

// spreadShare is the interquartile distance of xs as a share of their
// median.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
