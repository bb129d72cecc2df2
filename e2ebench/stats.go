package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); xs need not be sorted.  An empty slice gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest candidate percentile with at least ten
// samples beyond it, with its name ("p99"); with fewer than twenty
// samples there is none and it returns the maximum, named "max".
func tail(xs []float64) (float64, string) {
	for _, p := range tailPercentiles {
		if float64(len(xs))*(100-p)/100 >= 10 {
			return quantile(xs, p/100), fmt.Sprintf("p%g", p)
		}
	}
	return quantile(xs, 1), "max"
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
