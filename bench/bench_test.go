package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/traffic"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {96000, 0.999},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMidMean(t *testing.T) {
	// The mean of the middle half: the fastest and the slowest quarter do
	// not count, and two modes are weighed by their share of the middle.
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{0, 1, 1, 1, 1, 1, 1, 1000}, 1},
		{[]float64{1, 1, 1, 1, 2, 2, 2, 2}, 1.5},
		{[]float64{1, 1, 1, 1, 1, 2, 2, 2}, 1.25},
	} {
		if got := midMean(c.xs); got != c.want {
			t.Errorf("midMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestQuantileSorted(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.95: 10, 0.9: 9, 0.1: 1, 0: 1, 1: 10} {
		if got := quantileSorted(xs, q); got != want {
			t.Errorf("quantileSorted(1..10, %v) = %v, want %v", q, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25].
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "batch", Start: 0, End: 100, Parent: -1},
		{Name: "task", Start: 10, End: 30, Parent: 0},
		{Name: "task", Start: 20, End: 50, Parent: 0},  // overlaps its sibling: two workers
		{Name: "task", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped
		{Name: "inner", Start: 12, End: 16, Parent: 1}, // a grandchild only reduces its own parent
		{Name: "other", Start: 200, End: 260, Parent: -1},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"batch": 100 - (40 + 10), // [10,50) and [90,100)
		"task":  (20 - 4) + 30 + 30,
		"inner": 4,
		"other": 60,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// scheduleFor builds the schedule a workload replays for a seed.
func scheduleFor(t *testing.T, ld *openLoad, seed uint64) *schedule {
	t.Helper()
	tr, err := traffic.Generate(ld.spec(seed, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := scheduleOf(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.dueNS) == 0 {
		t.Fatal("empty schedule")
	}
	return s
}

func TestScheduleDeterminism(t *testing.T) {
	for name, ld := range map[string]*openLoad{"serve-mixed": serveMixed} {
		a, b, other := scheduleFor(t, ld, 7), scheduleFor(t, ld, 7), scheduleFor(t, ld, 8)
		if !reflect.DeepEqual(a.dueNS, b.dueNS) || !reflect.DeepEqual(a.bodies, b.bodies) {
			t.Errorf("%s: one seed gave two schedules", name)
		}
		if reflect.DeepEqual(a.dueNS, other.dueNS) || reflect.DeepEqual(a.bodies, other.bodies) {
			t.Errorf("%s: two seeds gave one schedule", name)
		}
	}
	a, err := batchBodies(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := batchBodies(7)
	other, _ := batchBodies(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("serve-batch: one seed gave two sets of bodies")
	}
	if bytes.Equal(a[0], other[0]) {
		t.Error("serve-batch: two seeds gave the same bodies")
	}
}

// TestSmoke runs every workload for 0.3 s through the real public APIs,
// with the correctness checks on and the sample floors off.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			out, err := runOne(w, &runCtx{seed: 3, seconds: 0.3, smoke: true}, false)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted < 1 || out.failed > out.attempted {
				t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
			}
			var r result
			if err := json.Unmarshal([]byte(resultLine(out, false)), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || len(r.Metrics) != len(endToEnd) {
				t.Errorf("result line %+v", r)
			}
		})
	}
}

// TestSmokeTraced runs one serve, the rt and one sim workload traced:
// every per-layer metric is present and the span file is valid JSON.
func TestSmokeTraced(t *testing.T) {
	old := traceDir
	traceDir = t.TempDir()
	defer func() { traceDir = old }()
	for _, name := range []string{"serve-batch", "rt-iter", "sim-table2"} {
		w := findWorkload(name)
		t.Run(name, func(t *testing.T) {
			out, err := runOne(w, &runCtx{seed: 3, seconds: 0.3, smoke: true}, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(out.metrics), len(perLayer))
			}
			raw, err := os.ReadFile(traceDir + "/trace-" + name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Spans []struct {
					Name       string
					Start, End int64
					Parent     int32
				}
				SelfNS map[string]int64 `json:"self_ns"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Spans) == 0 || len(doc.SelfNS) == 0 {
				t.Errorf("span file holds %d spans, %d self times", len(doc.Spans), len(doc.SelfNS))
			}
		})
	}
}

// TestBenchmarkJSON keeps the contract file and the tables in spec.go in
// step: the driver reads the first, the program prints from the second.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds != defaultSeconds {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, spec.go has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: %+v, spec.go has %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s metric %s: bound %v, spec.go has %v (0 < bound <= 0.25)", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %s has a bound", kind, d.Name)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd, true)
	check("per-layer", doc.PerLayer, perLayer, false)
}
