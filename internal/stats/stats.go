// Package stats provides the small set of statistics helpers used by the
// EEWA experiment harness: means, variance, confidence intervals,
// and normalization against a baseline.
//
// All functions are pure and operate on float64 slices; none of them
// mutate their arguments.
package stats

import (
	"fmt"
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

// Min returns the minimum of xs. It panics on an empty slice because a
// minimum of nothing is a caller bug, not a recoverable condition.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
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

// Normalize returns xs scaled so that base maps to 1.0. A zero base
// yields a slice of zeros rather than Inf, because the experiment tables
// treat an absent baseline as "no data".
func Normalize(xs []float64, base float64) []float64 {
	out := make([]float64, len(xs))
	if base == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / base
	}
	return out
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

// GeoMean returns the geometric mean of xs. Non-positive inputs panic:
// the harness only ever geo-means normalized times/energies, which are
// strictly positive by construction.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
