package obs

import (
	"runtime/metrics"
	"strings"
)

// goSample maps one runtime/metrics sample onto registry metrics. The
// runtime's own histograms (GC pauses, scheduling latency) are exposed
// as p50/p99/max gauges rather than raw bucket series: the runtime owns
// the distribution, we only need its shape at scrape time.
type goSample struct {
	name string
	g    *Gauge // scalar metrics
	p50  *Gauge // histogram metrics
	p99  *Gauge
	max  *Gauge
}

// GoRuntimeMetrics bridges runtime/metrics into a Registry under the
// eewa_go_* namespace: goroutine count, heap bytes, GC cycles, GC pause
// and goroutine scheduling-latency quantiles. Build one with
// NewGoRuntimeMetrics and call Sample before each export — Handler
// builds one on its first render and samples it before every render.
type GoRuntimeMetrics struct {
	samples []metrics.Sample
	binds   []goSample
}

// runtimeMetricNames lists the bridged metrics with the registry name
// each maps to. Names absent from the running toolchain are skipped at
// construction, so the bridge degrades gracefully across Go versions.
var runtimeMetricNames = []struct {
	src, dst, help string
}{
	{"/sched/goroutines:goroutines", "eewa_go_goroutines", "Live goroutines."},
	{"/memory/classes/heap/objects:bytes", "eewa_go_heap_objects_bytes", "Bytes of live heap objects."},
	{"/memory/classes/total:bytes", "eewa_go_memory_total_bytes", "Total bytes mapped by the Go runtime."},
	{"/gc/cycles/total:gc-cycles", "eewa_go_gc_cycles_total", "Completed GC cycles."},
	{"/gc/heap/allocs:bytes", "eewa_go_heap_allocs_bytes_total", "Cumulative bytes allocated on the heap."},
	{"/sched/pauses/total/gc:seconds", "eewa_go_gc_pause_seconds", "Stop-the-world GC pause latency."},
	{"/gc/pauses:seconds", "eewa_go_gc_pause_seconds", "Stop-the-world GC pause latency."}, // pre-1.22 fallback
	{"/sched/latencies:seconds", "eewa_go_sched_latency_seconds", "Goroutine scheduling latency (runnable to running)."},
}

// NewGoRuntimeMetrics registers the eewa_go_* families on reg and
// resolves which runtime/metrics names this toolchain supports. A nil
// registry returns a no-op bridge.
func NewGoRuntimeMetrics(reg *Registry) *GoRuntimeMetrics {
	b := &GoRuntimeMetrics{}
	if reg == nil {
		return b
	}
	seen := map[string]bool{}
	for _, m := range runtimeMetricNames {
		if seen[m.dst] {
			continue // first supported source name wins (GC pause fallback)
		}
		probe := []metrics.Sample{{Name: m.src}}
		metrics.Read(probe)
		var bind goSample
		bind.name = m.src
		switch probe[0].Value.Kind() {
		case metrics.KindUint64, metrics.KindFloat64:
			bind.g = reg.Gauge(m.dst, m.help)
		case metrics.KindFloat64Histogram:
			bind.p50 = reg.Gauge(m.dst+"_p50", m.help+" (p50, sampled at scrape).")
			bind.p99 = reg.Gauge(m.dst+"_p99", m.help+" (p99, sampled at scrape).")
			bind.max = reg.Gauge(m.dst+"_max", m.help+" (max bucket seen, sampled at scrape).")
		default:
			continue // KindBad: not supported by this toolchain
		}
		seen[m.dst] = true
		b.samples = append(b.samples, metrics.Sample{Name: m.src})
		b.binds = append(b.binds, bind)
	}
	return b
}

// Sample reads the bridged runtime metrics and updates the gauges. It
// is cheap (one metrics.Read) and safe to call concurrently with
// exports, but callers normally let the HTTP handler invoke it.
func (b *GoRuntimeMetrics) Sample() {
	if b == nil || len(b.samples) == 0 {
		return
	}
	metrics.Read(b.samples)
	for i, s := range b.samples {
		bind := b.binds[i]
		switch s.Value.Kind() {
		case metrics.KindUint64:
			bind.g.Set(float64(s.Value.Uint64()))
		case metrics.KindFloat64:
			bind.g.Set(s.Value.Float64())
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			bind.p50.Set(runtimeHistQuantile(h, 0.50))
			bind.p99.Set(runtimeHistQuantile(h, 0.99))
			bind.max.Set(runtimeHistMax(h))
		}
	}
}

// runtimeHistQuantile estimates a quantile of a runtime/metrics
// histogram: the upper bound of the bucket holding the q-th sample.
func runtimeHistQuantile(h *metrics.Float64Histogram, q float64) float64 {
	total := uint64(0)
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	cum := uint64(0)
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			// Buckets[i+1] is the bucket's upper bound; the last bucket
			// may be +Inf, in which case report its lower bound.
			ub := h.Buckets[i+1]
			if ub > h.Buckets[i] && !isInf(ub) {
				return ub
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// runtimeHistMax returns the upper bound of the highest occupied bucket.
func runtimeHistMax(h *metrics.Float64Histogram) float64 {
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] > 0 {
			ub := h.Buckets[i+1]
			if isInf(ub) {
				return h.Buckets[i]
			}
			return ub
		}
	}
	return 0
}

func isInf(v float64) bool { return v > 1e308 || v < -1e308 }

// Names returns the bridged runtime/metrics source names (for tests and
// diagnostics).
func (b *GoRuntimeMetrics) Names() []string {
	if b == nil {
		return nil
	}
	out := make([]string, len(b.samples))
	for i, s := range b.samples {
		out[i] = s.Name
	}
	return out
}

// String summarizes the bridge (diagnostics).
func (b *GoRuntimeMetrics) String() string {
	return "go-runtime-metrics{" + strings.Join(b.Names(), ",") + "}"
}
