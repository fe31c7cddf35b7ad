package main

import (
	"fmt"
	"sort"
)

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	return sorted[min(i, len(sorted)-1)]
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n > 0 && n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tail describes the highest percentile of an ascending sample that still
// has at least ten samples beyond it.
func tail(sorted []float64) string {
	n := len(sorted)
	if n <= 10 {
		return fmt.Sprintf("n=%d, too few samples for a tail percentile", n)
	}
	return fmt.Sprintf("p%.4g = %.3f ms (n=%d, 10 samples beyond)", 100*float64(n-10)/float64(n), sorted[n-11], n)
}
