package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Mean(tc.in); !almostEq(got, tc.want, 1e-12) {
				t.Errorf("Mean(%v) = %g, want %g", tc.in, got, tc.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance of this classic dataset is 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEq(got, want, 1e-12) {
		t.Errorf("Variance = %g, want %g", got, want)
	}
	if got, want := StdDev(xs), math.Sqrt(32.0/7.0); !almostEq(got, want, 1e-12) {
		t.Errorf("StdDev = %g, want %g", got, want)
	}
	if Variance([]float64{1}) != 0 {
		t.Error("Variance of singleton should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Sum(xs); got != 9 {
		t.Errorf("Sum = %g, want 9", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd Median = %g, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even Median = %g, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty Median = %g, want 0", got)
	}
	// Median must not mutate its argument.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated input: %v", xs)
	}
}

func TestCI95(t *testing.T) {
	if CI95([]float64{1}) != 0 {
		t.Error("CI95 of singleton should be 0")
	}
	xs := []float64{10, 12, 9, 11, 10, 12, 9, 11}
	ci := CI95(xs)
	if ci <= 0 {
		t.Errorf("CI95 = %g, want > 0", ci)
	}
	// Wider data → wider interval.
	wide := []float64{0, 22, -2, 24, 0, 22, -2, 24}
	if CI95(wide) <= ci {
		t.Error("CI95 should grow with spread")
	}
}

// Property: the mean lies within [min, max] for any non-empty input.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		return m >= slices.Min(clean)-1e-6 && m <= slices.Max(clean)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
