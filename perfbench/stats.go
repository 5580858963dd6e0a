package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile before
// the benchmark reports it; with fewer, the percentile is one or two
// outliers, not a property of the system.
const minBeyond = 10

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (the mean of the two middle samples for
// an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean is the arithmetic mean; NaN for no samples.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail returns the nearest-rank p-th percentile (0 < p < 1) of xs, or
// an error when fewer than minBeyond samples lie above its rank.
func tail(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minBeyond {
		return math.NaN(), fmt.Errorf("p%g needs %d samples beyond it, have %d (n=%d)",
			100*p, minBeyond, beyond, n)
	}
	return sortedCopy(xs)[rank], nil
}

// histQuantile interpolates the q-quantile of a bucketed histogram:
// counts[i] observations fell in (bounds[i-1], bounds[i]], the last
// count being the +Inf overflow. Values inside a bucket are taken as
// uniform; the overflow bucket reports its lower bound.
func histQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= want {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(want-seen)/float64(c)
		}
		seen += float64(c)
	}
	return bounds[len(bounds)-1]
}
