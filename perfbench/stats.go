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

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spreads this program prints match the ones a Python harness
// computes over its results. Fewer than two values yield that value twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// tailPercentiles are the percentiles a timing tail is chosen from, highest
// last.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// nearestRank returns the nearest-rank position (1-based) of percentile p
// in n samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // p*n is exact for the listed p
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail picks the highest percentile of tailPercentiles that has at least
// minBeyond samples ranked above it, and returns it with its nearest-rank
// value. ok is false when not even the median qualifies.
func tail(xs []float64, minBeyond int) (p, value float64, ok bool) {
	s := sorted(xs)
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		q := tailPercentiles[i]
		r := nearestRank(q, len(s))
		if len(s) > 0 && len(s)-r >= minBeyond {
			return q, s[r-1], true
		}
	}
	return 0, 0, false
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
