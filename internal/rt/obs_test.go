package rt

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestObsIntegration runs the live runtime with a registry attached and
// cross-checks the metric families against RunStats.
func TestObsIntegration(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(4, PolicyEEWA)
	cfg.Obs = reg
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := func() []Task {
		tasks := make([]Task, 24)
		for i := range tasks {
			d := 300 * time.Microsecond
			if i < 4 {
				d = 2 * time.Millisecond
			}
			cls := "light"
			if i < 4 {
				cls = "heavy"
			}
			tasks[i] = Task{Class: cls, Run: spinFor(d)}
		}
		return tasks
	}
	for b := 0; b < 3; b++ {
		rt.RunBatch(batch())
	}
	st := rt.Stats()

	if got := reg.Counter("eewa_rt_batches_total", "").Value(); got != float64(st.Batches) {
		t.Errorf("batches = %g, stats = %d", got, st.Batches)
	}
	if got := reg.Counter("eewa_rt_tasks_total", "").Value(); got != float64(st.Tasks) {
		t.Errorf("tasks = %g, stats = %d", got, st.Tasks)
	}
	if got := reg.Counter("eewa_rt_steals_total", "").Value(); got != float64(st.Steals) {
		t.Errorf("steals = %g, stats = %d", got, st.Steals)
	}
	if got := reg.Counter("eewa_rt_energy_joules_total", "").Value(); got <= 0 || got > st.Energy+1e-9 {
		t.Errorf("energy = %g, stats = %g", got, st.Energy)
	}
	if got := reg.LogHistogram("eewa_rt_batch_seconds", "").Count(); got != uint64(st.Batches) {
		t.Errorf("batch histogram count = %d, want %d", got, st.Batches)
	}
	// Every task was placed on some worker, so pool-depth observations
	// must sum to the task count.
	if got := reg.LogHistogram("eewa_rt_pool_depth", "").Sum(); got != float64(st.Tasks) {
		t.Errorf("pool depth sum = %g, want %d", got, st.Tasks)
	}
	// Busy time is real work and must be positive.
	if reg.Counter("eewa_rt_worker_busy_seconds_total", "").Value() <= 0 {
		t.Error("no busy seconds recorded")
	}
	// EEWA planned before batches 2 and 3.
	if got := reg.Counter("eewa_rt_adjuster_invocations_total", "").Value(); got != 2 {
		t.Errorf("adjuster invocations = %g, want 2", got)
	}
	// Census gauges cover every worker.
	censusVec := reg.GaugeVec("eewa_rt_census_workers", "", "level")
	total := 0.0
	for _, lbl := range []string{"0", "1", "2", "3"} {
		total += censusVec.With(lbl).Value()
	}
	if total != 4 {
		t.Errorf("census gauges sum to %g, want 4 workers", total)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "eewa_rt_dvfs_transitions_total") {
		t.Error("export missing DVFS family")
	}
}

// TestObsDisabled checks the runtime works identically with no
// registry (the nil path every benchmark takes).
func TestObsDisabled(t *testing.T) {
	rt, err := New(testConfig(2, PolicyCilk))
	if err != nil {
		t.Fatal(err)
	}
	bs := rt.RunBatch([]Task{{Class: "x", Run: func() {}}, {Class: "x", Run: func() {}}})
	if bs.Tasks != 2 {
		t.Errorf("tasks = %d, want 2", bs.Tasks)
	}
}

// TestClassAttribution checks BatchStats.Classes: task counts must sum
// to executed tasks, busy seconds to the workers' busy total, and the
// per-class energy must stay within the batch energy; the class
// histograms and attribution counters must reach the Prometheus export.
func TestClassAttribution(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(4, PolicyEEWA)
	cfg.Obs = reg
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]Task, 30)
	for i := range tasks {
		cls, d := "light", 200*time.Microsecond
		if i%3 == 0 {
			cls, d = "heavy", time.Millisecond
		}
		tasks[i] = Task{Class: cls, Run: spinFor(d)}
	}
	cancels := 0
	tasks[7].Cancelled = func() bool { return true }
	cancels++

	var bs BatchStats
	for b := 0; b < 2; b++ {
		bs = rt.RunBatch(tasks)
	}

	if len(bs.Classes) != 2 {
		t.Fatalf("Classes = %v, want light+heavy", bs.Classes)
	}
	gotTasks, gotBusy, gotEnergy := 0, 0.0, 0.0
	for name, cs := range bs.Classes {
		if cs.Tasks <= 0 || cs.BusySecs <= 0 || cs.EnergyJ <= 0 {
			t.Errorf("class %s: non-positive stats %+v", name, cs)
		}
		gotTasks += cs.Tasks
		gotBusy += cs.BusySecs
		gotEnergy += cs.EnergyJ
	}
	if want := bs.Tasks - bs.Cancelled; gotTasks != want {
		t.Errorf("class tasks sum = %d, want %d (tasks−cancelled)", gotTasks, want)
	}
	if bs.Cancelled != cancels {
		t.Errorf("cancelled = %d, want %d", bs.Cancelled, cancels)
	}
	busyTot := 0.0
	for _, ws := range bs.Workers {
		busyTot += ws.Busy
	}
	if diff := gotBusy - busyTot; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("class busy sum = %g, worker busy sum = %g", gotBusy, busyTot)
	}
	if gotEnergy <= 0 || gotEnergy > bs.Energy {
		t.Errorf("class energy sum = %g, batch energy = %g", gotEnergy, bs.Energy)
	}

	// The per-class latency histogram saw exactly the executed tasks.
	var histCount uint64
	for _, cls := range []string{"light", "heavy"} {
		h, ok := reg.At("eewa_rt_task_exec_seconds", cls).(*obs.LogHistogram)
		if !ok {
			t.Fatalf("no exec histogram child for %s", cls)
		}
		histCount += h.Count()
		if h.Quantile(0.99) <= 0 {
			t.Errorf("class %s: p99 = %g, want > 0", cls, h.Quantile(0.99))
		}
	}
	if want := uint64(2*len(tasks) - 2*cancels); histCount != want {
		t.Errorf("exec histogram count = %d, want %d", histCount, want)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE eewa_rt_task_exec_seconds histogram",
		`eewa_rt_task_exec_seconds_count{class="heavy"}`,
		`eewa_rt_energy_class_joules_total{class="light"}`,
		"eewa_rt_energy_overhead_joules_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q", want)
		}
	}
	// Attributed + overhead must not exceed total modeled energy.
	attr := reg.CounterVec("eewa_rt_energy_class_joules_total", "", "class")
	over := reg.Counter("eewa_rt_energy_overhead_joules_total", "").Value()
	sum := attr.With("light").Value() + attr.With("heavy").Value() + over
	total := reg.Counter("eewa_rt_energy_joules_total", "").Value()
	if sum > total+1e-9 {
		t.Errorf("attributed+overhead = %g exceeds total energy %g", sum, total)
	}
}
