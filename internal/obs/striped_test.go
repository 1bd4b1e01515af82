package obs

import (
	"strings"
	"sync"
	"testing"
)

// Striped counters/gauges must agree with their plain equivalents
// under concurrent hammering: every Add lands on exactly one cell, so
// the cell sum is exact, not approximate.
func TestStripedCounterConcurrentSum(t *testing.T) {
	c := NewStripedCounter(8)
	const workers, per = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), float64(workers*per); got != want {
		t.Fatalf("striped counter = %g, want %g", got, want)
	}
	c.Add(-5) // counters are monotone: negative adds ignored
	if got := c.Value(); got != float64(workers*per) {
		t.Fatalf("negative Add changed counter to %g", got)
	}
}

func TestStripedGaugeSignedDeltas(t *testing.T) {
	g := NewStripedGauge(4)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Add(3)
				g.Add(-2)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(workers*per); got != want {
		t.Fatalf("striped gauge = %g, want %g", got, want)
	}
}

func TestStripeCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {64, 64}, {100, 64},
	} {
		sc := NewStripedCounter(tc.in)
		if len(sc.cells) != tc.want {
			t.Errorf("stripes(%d) = %d cells, want %d", tc.in, len(sc.cells), tc.want)
		}
	}
	if def := NewStripedCounter(0); len(def.cells) == 0 {
		t.Error("default stripe count must be positive")
	}
}

// Nil receivers no-op like every other obs metric, and a nil registry
// returns nil handles.
func TestStripedNilSafety(t *testing.T) {
	var c *StripedCounter
	var g *StripedGauge
	c.Add(1)
	c.Inc()
	g.Add(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil striped metrics must read zero")
	}
	var r *Registry
	if r.StripedCounter("x", "") != nil || r.StripedGauge("y", "") != nil {
		t.Error("nil registry must hand out nil striped handles")
	}
}

// Registered striped metrics export through the plain Prometheus and
// JSON surfaces as counter/gauge TYPE lines.
func TestStripedRegistryExport(t *testing.T) {
	reg := NewRegistry()
	c := reg.StripedCounter("striped_total", "striped counter")
	g := reg.StripedGauge("striped_now", "striped gauge")
	c.Add(41)
	c.Inc()
	g.Add(7)
	g.Add(-2)

	// Re-registration returns the same handles; mismatched kinds panic
	// exactly like plain metrics (checked via the distinct kind).
	if reg.StripedCounter("striped_total", "") != c {
		t.Error("re-registration returned a different striped counter")
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE striped_total counter",
		"striped_total 42",
		"# TYPE striped_now gauge",
		"striped_now 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus export missing %q:\n%s", want, out)
		}
	}

	snap := reg.Snapshot()
	if v, ok := snap["striped_total"].(float64); !ok || v != 42 {
		t.Errorf("snapshot striped_total = %v, want 42", snap["striped_total"])
	}
	if v, ok := snap["striped_now"].(float64); !ok || v != 5 {
		t.Errorf("snapshot striped_now = %v, want 5", snap["striped_now"])
	}
}
