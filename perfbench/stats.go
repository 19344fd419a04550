package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "exclusive" definition Python's
// statistics.quantiles uses, so the steadiness mode reports the same
// quartiles the acceptance check computes). xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	// Position on the 1-based (n+1)p scale, clamped to the sample range.
	pos := q * float64(len(s)+1)
	if pos <= 1 {
		return s[0]
	}
	if pos >= float64(len(s)) {
		return s[len(s)-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return s[lo-1] + frac*(s[lo]-s[lo-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
