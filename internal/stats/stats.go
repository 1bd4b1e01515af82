// Package stats provides the small set of statistics helpers used by the
// EEWA experiment harness: means, variance, medians and confidence
// intervals.
//
// All functions are pure and operate on float64 slices; none of them
// mutate their arguments.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// It returns 0 when xs has fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Median returns the median of xs (average of the two central elements
// for even lengths). It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// CI95 returns the half-width of the 95% confidence interval for the
// mean of xs, using the normal approximation (z = 1.96). The paper
// averages 100 runs per benchmark, so the normal approximation is the
// appropriate model here.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(n))
}
