// Package obs is the repository's unified observability layer: a
// low-overhead metrics registry (atomic counters, gauges, fixed-bucket
// histograms and labeled families), a structured event sink, a
// Prometheus text-exposition writer and an opt-in net/http endpoint.
//
// Both execution layers — the discrete-event simulator (internal/sched)
// and the live goroutine runtime (internal/rt) — publish into the same
// registry shape, so a sweep, a single simulation and a live run can be
// scraped, diffed and plotted with the same tooling.
//
// Design constraints, in order:
//
//  1. Disabled must be free. Every metric type is nil-safe: methods on
//     a nil *Counter/*Gauge/*Histogram (and Emit on a nil *Registry)
//     are no-ops that neither allocate nor touch shared memory, so an
//     uninstrumented run pays only a nil check per call site.
//  2. Hot-path updates are lock-free. Counters and gauges are single
//     atomic words; histograms are an atomic word per bucket. Locks
//     appear only at registration and export time.
//  3. Export is deterministic: families in registration order, children
//     in first-use order, so text output is diffable across runs.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64. The zero value is
// ready to use; a nil *Counter is a valid no-op.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter by v (v < 0 is ignored — counters are
// monotone).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		neu := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, neu) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an instantaneous float64 value. A nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the value by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		neu := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, neu) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with cumulative Prometheus
// semantics. Buckets are upper bounds in ascending order; an implicit
// +Inf bucket is always present. A nil *Histogram no-ops.
type Histogram struct {
	upper   []float64
	counts  []atomic.Uint64 // len(upper)+1; last is +Inf
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		neu := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, neu) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// ExpBuckets returns n upper bounds starting at start, each factor×
// the previous — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n upper bounds start, start+width, … .
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// metricKind discriminates family types in the registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindLogHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		// Log-bucketed histograms expose the same cumulative-bucket
		// series as fixed-bucket ones, so both advertise "histogram".
		return "histogram"
	}
}

// family is one named metric family: either a single unlabeled metric
// or a set of labeled children.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string  // empty ⇒ unlabeled
	buckets []float64 // histograms only

	mu       sync.Mutex
	plain    any            // *Counter / *Gauge / *Histogram
	order    []string       // child keys in first-use order
	children map[string]any // label-values key → metric
	values   map[string][]string
}

const labelSep = "\x1f"

// joinLabelValues builds the child map key for a label-value list.
func joinLabelValues(values []string) string { return strings.Join(values, labelSep) }

func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := joinLabelValues(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindLogHistogram:
		m = &LogHistogram{}
	default:
		m = newHistogram(f.buckets)
	}
	f.children[key] = m
	f.values[key] = append([]string(nil), values...)
	f.order = append(f.order, key)
	return m
}

func newHistogram(buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the child for the given label values, creating it on
// first use. A nil *CounterVec returns nil (which no-ops).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the child gauge for the label values; nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values).(*Gauge)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the child histogram for the label values; nil-safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values).(*Histogram)
}

// Registry holds metric families. A nil *Registry is valid: every
// constructor returns nil, which is how instrumented code runs
// un-observed for free.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// lookup returns the family, creating it on first registration. Kind or
// label mismatches on re-registration panic: they are programming
// errors that would silently corrupt the export otherwise.
func (r *Registry) lookup(name, help string, kind metricKind, buckets []float64, labelNames []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || len(f.labels) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s with %d labels (was %s/%d)",
				name, kind, len(labelNames), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labelNames...),
		buckets:  append([]float64(nil), buckets...),
		children: map[string]any{},
		values:   map[string][]string{},
	}
	switch {
	case len(labelNames) > 0:
		// children created on demand
	case kind == kindHistogram:
		f.plain = newHistogram(buckets)
	case kind == kindLogHistogram:
		f.plain = &LogHistogram{}
	case kind == kindGauge:
		f.plain = &Gauge{}
	default:
		f.plain = &Counter{}
	}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, nil).plain.(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, nil).plain.(*Gauge)
}

// Histogram registers (or fetches) an unlabeled fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, buckets, nil).plain.(*Histogram)
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, kindCounter, nil, labelNames)}
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.lookup(name, help, kindGauge, nil, labelNames)}
}

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, buckets, labelNames)}
}
