package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// oracleQuantile is the sorted-sample definition the estimator is
// checked against: the ceil(q·n)-th smallest sample.
func oracleQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestLogHistogramQuantileAccuracy pins the estimator to a sorted-sample
// oracle across distributions with very different shapes. The bucket
// scheme guarantees ≤ 1/lhSub relative width per bucket, so 15% is a
// conservative relative-error ceiling.
func TestLogHistogramQuantileAccuracy(t *testing.T) {
	rng := xrand.New(7)
	uniform := func() float64 { return 1e-4 + 0.1*rng.Float64() }
	exponential := func() float64 { return -1e-3 * math.Log(1-rng.Float64()) }
	lognormal := func() float64 {
		// Box-Muller from two uniform draws.
		u1, u2 := rng.Float64(), rng.Float64()
		z := math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
		return math.Exp(-7 + 2*z) // median ≈ 0.9 ms, heavy tail
	}
	dists := map[string]func() float64{
		"uniform": uniform, "exponential": exponential, "lognormal": lognormal,
	}
	for name, draw := range dists {
		h := &LogHistogram{}
		samples := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := draw()
			samples = append(samples, v)
			h.Observe(v)
		}
		sort.Float64s(samples)
		for _, q := range []float64{0.10, 0.50, 0.90, 0.95, 0.99, 0.999} {
			want := oracleQuantile(samples, q)
			got := h.Quantile(q)
			if want <= 0 {
				t.Fatalf("%s: oracle q%.3f = %g, want > 0", name, q, want)
			}
			if rel := math.Abs(got-want) / want; rel > 0.15 {
				t.Errorf("%s: q%.3f = %g, oracle %g (rel err %.1f%%)", name, q, got, want, 100*rel)
			}
		}
		if h.Count() != 20000 {
			t.Errorf("%s: count = %d, want 20000", name, h.Count())
		}
	}
}

func TestLogHistogramBounds(t *testing.T) {
	h := &LogHistogram{}
	for _, v := range []float64{0, -1, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3 (underflow values still count)", h.Count())
	}
	if h.Sum() != 0 {
		t.Fatalf("sum = %g, want 0 (non-positive values don't contribute)", h.Sum())
	}
	if q := h.Quantile(0.99); q > math.Ldexp(1, lhMinExp) {
		t.Fatalf("all-underflow q99 = %g, want ≤ 2^%d", q, lhMinExp)
	}
	h.Observe(math.Inf(1))
	if got := h.Quantile(1); got < math.Ldexp(1, lhMaxExp) {
		t.Fatalf("overflow quantile = %g, want ≥ 2^%d", got, lhMaxExp)
	}
	// Every bucket's bounds must tile the positive axis: hi(i) == lo(i+1).
	for i := 0; i < lhBuckets-1; i++ {
		_, hi := lhBounds(i)
		lo, _ := lhBounds(i + 1)
		if hi != lo {
			t.Fatalf("bucket %d hi %g != bucket %d lo %g", i, hi, i+1, lo)
		}
	}
	// And the index function must agree with the bounds.
	rng := xrand.New(3)
	for i := 0; i < 10000; i++ {
		v := math.Ldexp(rng.Float64()+0.5, int(rng.Uint64()%60)-30)
		idx := lhIndex(v)
		lo, hi := lhBounds(idx)
		if v < lo || v >= hi {
			t.Fatalf("value %g indexed to bucket %d [%g, %g)", v, idx, lo, hi)
		}
	}
}

func TestLogHistogramMerge(t *testing.T) {
	a, b, both := &LogHistogram{}, &LogHistogram{}, &LogHistogram{}
	rng := xrand.New(11)
	for i := 0; i < 5000; i++ {
		v := rng.Float64() * 0.01
		a.Observe(v)
		both.Observe(v)
		w := 1 + rng.Float64()
		b.Observe(w)
		both.Observe(w)
	}
	a.Merge(b)
	if a.Count() != both.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), both.Count())
	}
	if math.Abs(a.Sum()-both.Sum()) > 1e-9*both.Sum() {
		t.Fatalf("merged sum = %g, want %g", a.Sum(), both.Sum())
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.99} {
		if got, want := a.Quantile(q), both.Quantile(q); got != want {
			t.Errorf("merged q%.2f = %g, want %g", q, got, want)
		}
	}
}

// MergeInto folds every child of a labeled family into one histogram,
// the same distribution as observing each value into a single one.
func TestLogHistogramVecMergeInto(t *testing.T) {
	vec := NewRegistry().LogHistogramVec("x_seconds", "", "class")
	var one, merged LogHistogram
	rng := xrand.New(5)
	for i := 0; i < 3000; i++ {
		v := rng.Float64() * float64(1+i%3)
		vec.With([]string{"a", "b", "c"}[i%3]).Observe(v)
		one.Observe(v)
	}
	vec.MergeInto(&merged)
	if merged.Count() != one.Count() {
		t.Fatalf("merged count = %d, want %d", merged.Count(), one.Count())
	}
	if math.Abs(merged.Sum()-one.Sum()) > 1e-9*one.Sum() {
		t.Fatalf("merged sum = %g, want %g", merged.Sum(), one.Sum())
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.99} {
		if got, want := merged.Quantile(q), one.Quantile(q); got != want {
			t.Errorf("merged q%.2f = %g, want %g", q, got, want)
		}
	}
}

func TestLogHistogramNilSafe(t *testing.T) {
	var h *LogHistogram
	h.Observe(1)
	h.Merge(&LogHistogram{})
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("nil LogHistogram must read as zero")
	}
	var v *LogHistogramVec
	v.With("x").Observe(1) // must not panic
	var dst LogHistogram
	v.MergeInto(&dst)
	NewRegistry().LogHistogramVec("z", "", "l").MergeInto(nil)
	if dst.Count() != 0 {
		t.Fatal("a nil family must merge nothing")
	}
	var r *Registry
	if r.LogHistogram("x", "") != nil || r.LogHistogramVec("y", "", "l") != nil || r.At("x") != nil {
		t.Fatal("nil registry constructors must return nil")
	}
}

func TestLogHistogramRegistryExport(t *testing.T) {
	reg := NewRegistry()
	h := reg.LogHistogram("lat_seconds", "End-to-end latency.")
	vec := reg.LogHistogramVec("span_seconds", "Span latency.", "class", "tenant")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 1e-3)
		vec.With("sha1", "t0").Observe(float64(i) * 1e-4)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		"# TYPE span_seconds histogram",
		"lat_seconds_count 100",
		`lat_seconds_bucket{le="+Inf"} 100`,
		`span_seconds_bucket{class="sha1",tenant="t0",le="+Inf"} 100`,
		`span_seconds_count{class="sha1",tenant="t0"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus export missing %q\n%s", want, out)
		}
	}
	// Cumulative-bucket monotonicity over the emitted lines.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			continue
		}
		var n int64
		if _, err := fmtSscan(line, &n); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("non-cumulative bucket series: %q after %d", line, last)
		}
		last = n
	}

	// JSON snapshot carries quantiles.
	snap := reg.Snapshot()
	hv, ok := snap["lat_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot lat_seconds = %T, want map", snap["lat_seconds"])
	}
	p50 := hv["p50"].(float64)
	if p50 < 0.040 || p50 > 0.060 {
		t.Errorf("snapshot p50 = %g, want ≈ 0.05", p50)
	}
	// At() reaches both the plain metric and the labeled child.
	if reg.At("lat_seconds") != h {
		t.Error("At(lat_seconds) did not return the registered histogram")
	}
	if reg.At("span_seconds", "sha1", "t0") == nil {
		t.Error("At(span_seconds, sha1, t0) = nil")
	}
	if reg.At("span_seconds", "nope") != nil || reg.At("absent") != nil {
		t.Error("At() must return nil for unknown families/children")
	}
}

// fmtSscan pulls the trailing integer off a "name{labels} N" line.
func fmtSscan(line string, n *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	var err error
	*n, err = parseInt(line[i+1:])
	return 1, err
}

func parseInt(s string) (int64, error) {
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errNotInt
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

var errNotInt = errInt("not an integer")

type errInt string

func (e errInt) Error() string { return string(e) }

// TestLogHistogramConcurrent hammers one histogram from many writers
// while a reader keeps estimating quantiles; run under -race this pins
// the lock-free claim, and the final count must be exact.
func TestLogHistogramConcurrent(t *testing.T) {
	h := &LogHistogram{}
	const writers, per = 8, 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Quantile(0.99)
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			rng := xrand.New(uint64(w + 1))
			for i := 0; i < per; i++ {
				h.Observe(rng.Float64())
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if h.Count() != writers*per {
		t.Fatalf("count = %d, want %d", h.Count(), writers*per)
	}
}
