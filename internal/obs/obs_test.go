package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Errorf("Value = %g, want 3.5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("Value = %g, want 6", got)
	}
}

// TestNilSafety is the contract the instrumentation sites rely on: a
// nil registry hands out nil handles, and every method on them no-ops.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c", "").Inc()
	r.Counter("c", "").Add(1)
	r.Gauge("g", "").Set(1)
	r.Gauge("g", "").Add(1)
	r.LogHistogram("h", "").Observe(1)
	r.CounterVec("cv", "", "l").With("x").Inc()
	r.GaugeVec("gv", "", "l").With("x").Set(1)
	r.LogHistogramVec("hv", "", "l").With("x").Observe(1)
	if r.Counter("c", "").Value() != 0 || r.LogHistogram("h", "").Count() != 0 {
		t.Error("nil metrics should read zero")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
}

func TestRegistryReRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "now a gauge")
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("steals_total", "", "victim")
	v.With("0").Add(2)
	v.With("1").Inc()
	if v.With("0") != v.With("0") {
		t.Error("same label values should return the same child")
	}
	if got := v.With("0").Value(); got != 2 {
		t.Errorf("child value = %g, want 2", got)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.LogHistogram("h", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %g, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{1, "1"},
		{2.5, "2.5"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{math.NaN(), "NaN"},
		{1e-9, "1e-09"},
		{1.1e-9, "1.1e-09"},
		{1.0000000001, "1.0000000001"}, // no cut at nine decimals
	} {
		if got := formatFloat(tc.in); got != tc.want {
			t.Errorf("formatFloat(%g) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
