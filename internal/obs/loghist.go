package obs

import (
	"math"
	"sync/atomic"
)

// LogHistogram is a lock-free log-bucketed distribution: bucket
// boundaries are spaced geometrically (lhSub sub-buckets per power of
// two), so one fixed ~4 KiB bucket array covers every latency from
// sub-nanosecond to decades with a bounded relative error of
// 1/lhSub = 12.5% per bucket (half that in expectation, since quantile
// reads interpolate linearly inside the bucket).
//
// A LogHistogram needs no bucket choice at registration time and
// supports quantile estimation and merging — it is the one distribution
// type behind every histogram family (latency spans, batch durations,
// batch sizes, search depths).
//
// Observe is a single atomic add per call plus the shared sum/count
// words; all methods are safe for concurrent use, and a nil
// *LogHistogram no-ops like every other obs metric.
type LogHistogram struct {
	counts  [lhBuckets]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Bucket layout: bucket 0 is the underflow bucket (v ≤ 2^lhMinExp,
// including zero and negatives), bucket lhBuckets-1 the overflow bucket
// (v ≥ 2^lhMaxExp). In between, each power-of-two octave [2^o, 2^(o+1))
// is split into lhSub equal-width sub-buckets.
const (
	lhSubBits = 3
	lhSub     = 1 << lhSubBits // sub-buckets per octave
	lhMinExp  = -31            // 2^-31 s ≈ 0.47 ns
	lhMaxExp  = 33             // 2^33 s ≈ 272 years
	lhOctaves = lhMaxExp - lhMinExp
	lhBuckets = lhOctaves*lhSub + 2
)

// lhIndex maps a value to its bucket index.
func lhIndex(v float64) int {
	if !(v > 0) || math.IsNaN(v) { // ≤0 and NaN both underflow
		return 0
	}
	if math.IsInf(v, 1) { // Frexp(+Inf) = (+Inf, 0): handle explicitly
		return lhBuckets - 1
	}
	frac, exp := math.Frexp(v) // v = frac × 2^exp, frac ∈ [0.5, 1)
	o := exp - 1               // v ∈ [2^o, 2^(o+1))
	if o < lhMinExp {
		return 0
	}
	if o >= lhMaxExp {
		return lhBuckets - 1
	}
	sub := int((frac - 0.5) * 2 * lhSub)
	if sub >= lhSub { // frac == nextafter(1, 0) rounding guard
		sub = lhSub - 1
	}
	return 1 + (o-lhMinExp)*lhSub + sub
}

// lhBounds returns the [lo, hi) value range of bucket i.
func lhBounds(i int) (lo, hi float64) {
	switch {
	case i <= 0:
		return 0, math.Ldexp(1, lhMinExp)
	case i >= lhBuckets-1:
		return math.Ldexp(1, lhMaxExp), math.Inf(1)
	}
	i--
	o := lhMinExp + i/lhSub
	s := i % lhSub
	base := math.Ldexp(1, o)
	step := base / lhSub
	return base + float64(s)*step, base + float64(s+1)*step
}

// Observe records one sample. Non-positive and NaN values land in the
// underflow bucket and contribute 0 to the sum.
func (h *LogHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[lhIndex(v)].Add(1)
	h.count.Add(1)
	if v > 0 && !math.IsInf(v, 1) {
		for {
			old := h.sumBits.Load()
			neu := math.Float64bits(math.Float64frombits(old) + v)
			if h.sumBits.CompareAndSwap(old, neu) {
				return
			}
		}
	}
}

// Count returns the number of observations.
func (h *LogHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all positive finite observations.
func (h *LogHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns Sum/Count (0 when empty).
func (h *LogHistogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (q ∈ [0, 1]) of the recorded
// distribution, interpolating linearly within the target bucket. It
// cumulates over the bucket array itself, so a concurrent Observe can
// shift the estimate by at most one in rank — there is no torn state.
// An empty histogram returns 0.
func (h *LogHistogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var counts [lhBuckets]uint64
	total := uint64(0)
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	cum := uint64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		lo, hi := lhBounds(i)
		if math.IsInf(hi, 1) {
			return lo
		}
		// Position of the target rank inside this bucket.
		pos := float64(rank-(cum-c)) / float64(c)
		return lo + pos*(hi-lo)
	}
	return 0 // unreachable: cum == total ≥ rank
}

// Merge adds every bucket of o into h (h += o). Shapes are fixed at
// compile time, so any two LogHistograms merge. Nil receivers and nil
// arguments no-op.
func (h *LogHistogram) Merge(o *LogHistogram) {
	if h == nil || o == nil {
		return
	}
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(o.count.Load())
	if s := o.Sum(); s != 0 {
		for {
			old := h.sumBits.Load()
			neu := math.Float64bits(math.Float64frombits(old) + s)
			if h.sumBits.CompareAndSwap(old, neu) {
				break
			}
		}
	}
}

// forEachBucket calls fn for every non-empty bucket in ascending value
// order with the bucket's upper bound and count.
func (h *LogHistogram) forEachBucket(fn func(upper float64, count uint64)) {
	if h == nil {
		return
	}
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			_, hi := lhBounds(i)
			fn(hi, c)
		}
	}
}

// LogHistogramVec is a labeled log-histogram family.
type LogHistogramVec struct{ f *family }

// With returns the child for the given label values; nil-safe.
func (v *LogHistogramVec) With(values ...string) *LogHistogram {
	if v == nil {
		return nil
	}
	return v.f.child(values).(*LogHistogram)
}

// MergeInto adds every child of the family into dst — the family's
// distribution across all label values. The child list is copied under
// the family lock and merged outside it, as the exporter does, so a
// reader never holds up a With on the hot path. Nil-safe both ways.
func (v *LogHistogramVec) MergeInto(dst *LogHistogram) {
	if v == nil || dst == nil {
		return
	}
	v.f.mu.Lock()
	kids := make([]*LogHistogram, 0, len(v.f.order))
	for _, key := range v.f.order {
		kids = append(kids, v.f.children[key].(*LogHistogram))
	}
	v.f.mu.Unlock()
	for _, h := range kids {
		dst.Merge(h)
	}
}

// LogHistogram registers (or fetches) an unlabeled log-bucketed
// histogram.
func (r *Registry) LogHistogram(name, help string) *LogHistogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindLogHistogram, nil).plain.(*LogHistogram)
}

// LogHistogramVec registers (or fetches) a labeled log-bucketed
// histogram family.
func (r *Registry) LogHistogramVec(name, help string, labelNames ...string) *LogHistogramVec {
	if r == nil {
		return nil
	}
	return &LogHistogramVec{f: r.lookup(name, help, kindLogHistogram, labelNames)}
}

// At returns the registered metric for name — the unlabeled metric when
// called without label values, otherwise the child with exactly those
// values — or nil when the family or child does not exist. The result
// is one of *Counter, *Gauge or *LogHistogram. It lets a
// caller read metrics registered by a layer it did not instrument
// (e.g. a test pulling the simulator's latency quantiles).
func (r *Registry) At(name string, labelValues ...string) any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	f, ok := r.byName[name]
	r.mu.Unlock()
	if !ok {
		return nil
	}
	if len(f.labels) == 0 {
		if len(labelValues) != 0 {
			return nil
		}
		return f.plain
	}
	if len(labelValues) != len(f.labels) {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.children[joinLabelValues(labelValues)]
}
