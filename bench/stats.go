package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// tailPercentile picks the percentile a sample of n supports: the
// highest of p99.9, p99, p95 and p90 that still has at least ten
// samples beyond it, so the reported tail is never one or two outliers.
// It returns 0 when not even p90 qualifies (n < 100).
func tailPercentile(n int) float64 {
	for _, perMille := range []int{999, 990, 950, 900} {
		if n*(1000-perMille)/1000 >= 10 {
			return float64(perMille) / 1000
		}
	}
	return 0
}

// minLatencySamples is the fewest operations a window may complete and
// still report latency: the p95 printed beside the median then has ten
// samples beyond it.
const minLatencySamples = 200

// minReps is the fewest repetitions (matrix repetitions, batches) the
// traced run's shortened sim or rt loop may complete.
const minReps = 20

// Every time-based figure is taken over the middle of the operations'
// distribution (midMean), never as a mean over the window: the host is a
// few cores of a shared machine, what it adds comes in bursts and phases,
// and a mean moves with however many of them the window caught. Where the
// program gives only a running total (the server's energy account), the
// window is cut into segments, the total is read at every boundary and
// the median is over the segments.
const segmentLen = 250 * time.Millisecond

// segmentsOf cuts a window into n whole segments of segmentLen, or into
// four when it is shorter than that allows (the smoke runs of the tests).
func segmentsOf(window time.Duration) (n int, length time.Duration) {
	if window < 4*segmentLen {
		return 4, window / 4
	}
	return int(window / segmentLen), segmentLen
}

// medianMJPerJob is the median over the segments of the energy the
// server charged in a segment over the jobs it completed in it. snaps
// holds one reading per segment boundary.
func medianMJPerJob(snaps []serveSnap) (float64, error) {
	var mj []float64
	for k := 0; k+1 < len(snaps); k++ {
		a, b := snaps[k], snaps[k+1]
		if b.completed > a.completed {
			mj = append(mj, (b.energyJ-a.energyJ)*1e3/float64(b.completed-a.completed))
		}
	}
	if 2*len(mj) < len(snaps)-1 {
		return 0, fmt.Errorf("jobs completed in %d of %d segments, too few for a median", len(mj), len(snaps)-1)
	}
	return stats.Median(mj), nil
}

// midMean is the interquartile mean of an ascending sample: the mean of
// its middle half. Like the median it ignores the slowest and the fastest
// quarter of the operations, so a burst of slow ones does not reach it;
// unlike the median it does not jump when the sample has two modes and
// their shares move past one half (an rt batch ends 1.0, 1.6 or 2.1 ms
// after it began, depending on whether an idle worker's 20 us poll came
// back in 20 us or in a millisecond, and the median of a window flips
// between the modes while the middle half's mean moves by their share).
func midMean(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	mid := sorted[n/4 : n-n/4]
	return stats.Sum(mid) / float64(len(mid))
}

// quantileSorted is the nearest-rank quantile of an ascending sample.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is what the driver applies to ten runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// nsToSortedMS converts a nanosecond sample to ascending milliseconds.
func nsToSortedMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}
