package sched

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/workloads"
)

// TestObsIntegration runs a real EEWA simulation with a registry
// attached and checks the engine's metric families against the result
// struct, so the two reporting paths cannot drift apart silently.
func TestObsIntegration(t *testing.T) {
	cfg := machine.Opteron16()
	b, err := workloads.ByName("sha1")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	params := Params{}
	params.Obs = reg
	res, err := Run(cfg, b.Workload(1), policy.NewEEWA(), params)
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("eewa_sim_tasks_total", "").Value(); got != float64(totalTasks(b)) {
		t.Errorf("tasks_total = %g, want %d", got, totalTasks(b))
	}
	if got := reg.Counter("eewa_sim_energy_joules_total", "").Value(); !close(got, res.Energy, 1e-6) {
		t.Errorf("energy counter = %g, result = %g", got, res.Energy)
	}
	if got := reg.Gauge("eewa_sim_makespan_seconds", "").Value(); !close(got, res.Makespan, 1e-9) {
		t.Errorf("makespan gauge = %g, result = %g", got, res.Makespan)
	}
	if got := reg.Counter("eewa_sim_migrations_total", "").Value(); got != float64(res.Migrated) {
		t.Errorf("migrations = %g, result = %d", got, res.Migrated)
	}
	if got := reg.Counter("eewa_sim_dvfs_transitions_total", "").Value(); got != float64(res.DVFSTransitions) {
		t.Errorf("dvfs = %g, result = %d", got, res.DVFSTransitions)
	}
	if got := reg.LogHistogram("eewa_sim_batch_seconds", "").Count(); got != uint64(len(res.BatchTimes)) {
		t.Errorf("batch histogram count = %d, result has %d batches", got, len(res.BatchTimes))
	}

	// Per-victim steal counters must sum to the result's steal count,
	// and steals cannot exceed attempts group by group.
	stealVec := reg.CounterVec("eewa_sim_steals_total", "", "victim_group")
	attemptVec := reg.CounterVec("eewa_sim_steal_attempts_total", "", "victim_group")
	sum := 0.0
	for g := 0; g < len(cfg.Freqs); g++ {
		lbl := []string{"0", "1", "2", "3"}[g]
		s, a := stealVec.With(lbl).Value(), attemptVec.With(lbl).Value()
		if s > a {
			t.Errorf("group %s: steals %g > attempts %g", lbl, s, a)
		}
		sum += s
	}
	if sum != float64(res.Steals) {
		t.Errorf("steal counters sum to %g, result = %d", sum, res.Steals)
	}

	// Census residency covers the task-execution window of every batch
	// (the adjuster-charge and DVFS-latency windows are excluded), so it
	// must sum to Σ batch times × cores.
	censusVec := reg.CounterVec("eewa_sim_census_core_seconds_total", "", "level")
	resid := 0.0
	for _, lbl := range []string{"0", "1", "2", "3"} {
		resid += censusVec.With(lbl).Value()
	}
	batchSum := 0.0
	for _, bt := range res.BatchTimes {
		batchSum += bt
	}
	if want := batchSum * float64(cfg.Cores); !close(resid, want, 1e-6) {
		t.Errorf("census residency = %g, want Σbatch×cores = %g", resid, want)
	}

	// The adjuster runs for every batch after the first.
	if got := reg.Counter("eewa_sim_adjuster_invocations_total", "").Value(); got != float64(len(res.BatchTimes)-1) {
		t.Errorf("adjuster invocations = %g, want %d", got, len(res.BatchTimes)-1)
	}
	if reg.LogHistogram("eewa_sim_adjuster_search_steps", "").Sum() <= 0 {
		t.Error("search-steps histogram saw no backtracking work")
	}
	// Online, every adjusted plan targets batch 0's duration.
	ideal := reg.LogHistogram("eewa_sim_plan_ideal_seconds", "")
	if n := len(res.BatchTimes) - 1; ideal.Count() != uint64(n) || !close(ideal.Sum(), float64(n)*res.BatchTimes[0], 1e-9) {
		t.Errorf("plan ideal time: %d observations summing to %g, want %d of T = %g", ideal.Count(), ideal.Sum(), n, res.BatchTimes[0])
	}

	// Per-class wait/latency histograms: together the class children see
	// every executed task, latency dominates wait per class, and the
	// quantiles are positive and ordered.
	waitCount, latCount := uint64(0), uint64(0)
	for _, s := range b.Specs {
		wh, ok := reg.At("eewa_sim_task_wait_seconds", s.Name).(*obs.LogHistogram)
		if !ok {
			t.Fatalf("no wait histogram child for class %s", s.Name)
		}
		lh, ok := reg.At("eewa_sim_task_latency_seconds", s.Name).(*obs.LogHistogram)
		if !ok {
			t.Fatalf("no latency histogram child for class %s", s.Name)
		}
		waitCount += wh.Count()
		latCount += lh.Count()
		p50, p99 := lh.Quantile(0.50), lh.Quantile(0.99)
		if !(p50 > 0 && p50 <= p99) {
			t.Errorf("class %s: latency p50 = %g, p99 = %g", s.Name, p50, p99)
		}
		// A task's latency includes its wait, so per-class means order.
		if wh.Mean() > lh.Mean() {
			t.Errorf("class %s: mean wait %g > mean latency %g", s.Name, wh.Mean(), lh.Mean())
		}
	}
	if want := uint64(totalTasks(b)); waitCount != want || latCount != want {
		t.Errorf("class histogram counts = %d/%d, want %d", waitCount, latCount, want)
	}

	// And the whole registry must export cleanly.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "eewa_sim_probe_misses_total") {
		t.Error("export missing probe-miss family")
	}
}

func totalTasks(b workloads.Benchmark) int {
	n := 0
	for _, s := range b.Specs {
		n += s.Count
	}
	return n * b.Batches
}

func close(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// TestStealCountersGolden pins the per-victim-group probe and steal
// counters and the probe-miss counter on one Table II cell (sha1,
// workload seed 1) per policy, captured before dry steal walks stopped
// probing: a dry walk's probes reach no makespan or joule, only these.
func TestStealCountersGolden(t *testing.T) {
	type counters struct {
		attempts, steals [4]float64
		misses           float64
	}
	golden := map[string]counters{
		policy.IDCilk:  {[4]float64{3081}, [4]float64{157}, 3241},
		policy.IDCilkD: {[4]float64{3081}, [4]float64{157}, 3241},
		policy.IDWATS:  {[4]float64{6850, 3285}, [4]float64{5, 352}, 10295},
		policy.IDEEWA:  {[4]float64{2560, 2547}, [4]float64{16, 148}, 5267},
	}
	cfg := machine.Opteron16()
	b, err := workloads.ByName("sha1")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range policy.IDs() {
		p, err := policy.New(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		if _, err := Run(cfg, b.Workload(1), p, Params{Seed: 1, Obs: reg}); err != nil {
			t.Fatal(err)
		}
		var got counters
		for g, lbl := range []string{"0", "1", "2", "3"} {
			got.attempts[g] = reg.CounterVec("eewa_sim_steal_attempts_total", "", "victim_group").With(lbl).Value()
			got.steals[g] = reg.CounterVec("eewa_sim_steals_total", "", "victim_group").With(lbl).Value()
		}
		got.misses = reg.Counter("eewa_sim_probe_misses_total", "").Value()
		if got != golden[id] {
			t.Errorf("%s: attempts %v steals %v misses %v; golden %+v", id, got.attempts, got.steals, got.misses, golden[id])
		}
	}
}
