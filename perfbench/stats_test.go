package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},                        // quantiles(range(1, 11), n=4)
		{seq(5), 1.5, 4.5},                           // quantiles([1, 2, 3, 4, 5], n=4)
		{[]float64{1, 2}, 0.75, 2.25},                // quantiles([1, 2], n=4) extrapolates
		{[]float64{2.0, 2.1, 2.6, 2.4}, 2.025, 2.55}, // quantiles([2.0, 2.1, 2.4, 2.6], n=4)
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// The tail is the highest percentile with at least ten samples above it.
func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		p     float64
		value float64
		ok    bool
	}{
		{9, 0, 0, false},      // not even the median has 10 beyond
		{20, 50, 10, true},    // median only: rank 10, 10 beyond
		{39, 50, 20, true},    // p75 would leave 9 beyond
		{40, 75, 30, true},    // p75: rank 30, 10 beyond
		{72, 75, 54, true},    // p90 would leave 7 beyond
		{100, 90, 90, true},   // p90: rank 90, 10 beyond
		{1000, 99, 990, true}, // p99.9 would leave 1 beyond
	} {
		p, v, ok := tail(seq(c.n), 10)
		if p != c.p || v != c.value || ok != c.ok {
			t.Errorf("tail of %d samples = p%v %v %v; want p%v %v %v", c.n, p, v, ok, c.p, c.value, c.ok)
		}
	}
}

func TestRatioOfNothingIsZero(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}
