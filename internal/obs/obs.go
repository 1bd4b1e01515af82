// Package obs is the repository's unified observability layer: a
// low-overhead metrics registry (atomic counters, gauges, log-bucketed
// histograms and labeled families), a Prometheus text-exposition writer
// and an opt-in net/http endpoint.
//
// Both execution layers — the discrete-event simulator (internal/sched)
// and the live goroutine runtime (internal/rt) — publish into the same
// registry shape, so a sweep, a single simulation and a live run can be
// scraped, diffed and plotted with the same tooling.
//
// Design constraints, in order:
//
//  1. Disabled must be free. Every metric type is nil-safe: methods on
//     a nil *Counter/*Gauge/*LogHistogram are no-ops that neither
//     allocate nor touch shared memory, so an uninstrumented run pays
//     only a nil check per call site.
//  2. Hot-path updates are lock-free. Counters and gauges are single
//     atomic words; histograms are an atomic word per bucket. Locks
//     appear only at registration and export time.
//  3. Export is deterministic: families in registration order, children
//     in first-use order, so text output is diffable across runs.
package obs

import (
	"fmt"
	"math"
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

// metricKind discriminates family types in the registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindLogHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		// A log-bucketed histogram exposes cumulative _bucket/_sum/_count
		// series: a Prometheus histogram.
		return "histogram"
	}
}

// family is one named metric family: either a single unlabeled metric
// or a set of labeled children.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string // empty ⇒ unlabeled

	mu       sync.Mutex
	plain    any            // *Counter / *Gauge / *LogHistogram
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
	m := newMetric(f.kind)
	f.children[key] = m
	f.values[key] = append([]string(nil), values...)
	f.order = append(f.order, key)
	return m
}

// newMetric returns a zero metric of kind k.
func newMetric(k metricKind) any {
	switch k {
	case kindCounter:
		return &Counter{}
	case kindGauge:
		return &Gauge{}
	default:
		return &LogHistogram{}
	}
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
func (r *Registry) lookup(name, help string, kind metricKind, labelNames []string) *family {
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
		children: map[string]any{},
		values:   map[string][]string{},
	}
	if len(labelNames) == 0 { // labeled children are created on demand
		f.plain = newMetric(kind)
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
	return r.lookup(name, help, kindCounter, nil).plain.(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil).plain.(*Gauge)
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, kindCounter, labelNames)}
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.lookup(name, help, kindGauge, labelNames)}
}
