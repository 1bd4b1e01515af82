package sched

// Adaptivity tests: the paper's EEWA rests on the assumption that
// "task workloads of different iterations have similar patterns"
// (§II-A). These tests probe what happens when that assumption bends —
// drifting workloads, phase changes, and vanishing classes — and pin
// the property that matters: the adjuster re-decides every batch, so
// EEWA follows the workload instead of diverging.

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/task"
)

// buildWorkload assembles a workload from explicit per-batch specs.
func buildWorkload(name string, perBatch [][]task.ClassSpec, seed uint64) *task.Workload {
	w := &task.Workload{Name: name}
	for bi, specs := range perBatch {
		one := task.MustGenerate(name, 1, specs, seed+uint64(bi)*7919)
		w.Batches = append(w.Batches, one.Batches[0])
	}
	return w
}

func TestEEWAFollowsGradualDrift(t *testing.T) {
	// The light class's work grows 15% per batch: configurations must
	// track it (EEWA re-profiles every batch) and the makespan must
	// stay close to a Cilk run of the same drifting workload.
	cfg := machine.Opteron16()
	var perBatch [][]task.ClassSpec
	lightWork := 0.004
	for b := 0; b < 8; b++ {
		perBatch = append(perBatch, []task.ClassSpec{
			{Name: "heavy", Count: 6, MeanWork: 0.15, JitterFrac: 0.05},
			{Name: "light", Count: 122, MeanWork: lightWork, JitterFrac: 0.05},
		})
		lightWork *= 1.15
	}
	w := buildWorkload("drift", perBatch, 3)
	cilk := mustRun(t, cfg, w, policy.NewCilk())
	ee := mustRun(t, cfg, w, policy.NewEEWA())
	if ee.Makespan > 1.10*cilk.Makespan {
		t.Errorf("EEWA under drift: %.4f vs cilk %.4f (>10%%)", ee.Makespan, cilk.Makespan)
	}
	if ee.Energy >= cilk.Energy {
		t.Errorf("EEWA under drift should still save energy: %.1f vs %.1f", ee.Energy, cilk.Energy)
	}
}

func TestEEWAPhaseChangeSwitchesConfig(t *testing.T) {
	// Batches 0-4: sha1-like skew (deep downscaling); batches 5-9: a
	// dense balanced mix (little headroom). The census must visibly
	// change across the phase boundary.
	cfg := machine.Opteron16()
	skew := []task.ClassSpec{
		{Name: "p1/heavy", Count: 5, MeanWork: 0.170, JitterFrac: 0.03},
		{Name: "p1/light", Count: 123, MeanWork: 0.0046, JitterFrac: 0.05},
	}
	dense := []task.ClassSpec{
		{Name: "p2/a", Count: 64, MeanWork: 0.018, JitterFrac: 0.05},
		{Name: "p2/b", Count: 64, MeanWork: 0.009, JitterFrac: 0.05},
	}
	var perBatch [][]task.ClassSpec
	for b := 0; b < 5; b++ {
		perBatch = append(perBatch, skew)
	}
	for b := 5; b < 10; b++ {
		perBatch = append(perBatch, dense)
	}
	w := buildWorkload("phase", perBatch, 5)
	res := mustRun(t, cfg, w, policy.NewEEWA())

	// Steady skew phase: deep downscaling (many cores below F0).
	skewSlow := 0
	for lvl := 1; lvl < 4; lvl++ {
		skewSlow += res.BatchCensus[3][lvl]
	}
	if skewSlow < 8 {
		t.Errorf("skew phase census %v: want ≥8 cores below F0", res.BatchCensus[3])
	}
	// After the phase change (batch 6 reflects batch 5's profile of the
	// new mix): the config must differ from the skew phase's.
	same := true
	for lvl := 0; lvl < 4; lvl++ {
		if res.BatchCensus[3][lvl] != res.BatchCensus[7][lvl] {
			same = false
		}
	}
	if same {
		t.Errorf("census did not adapt across the phase change: %v vs %v",
			res.BatchCensus[3], res.BatchCensus[7])
	}
	// All tasks must still complete without pathological overrun.
	cilk := mustRun(t, cfg, w, policy.NewCilk())
	if res.Makespan > 1.25*cilk.Makespan {
		t.Errorf("phase change blew the makespan: %.4f vs %.4f", res.Makespan, cilk.Makespan)
	}
}

func TestEEWANewClassGoesToFastGroup(t *testing.T) {
	// A class that first appears mid-run has no profile; the paper
	// routes unknown classes to the fastest c-group. The run must
	// complete and the makespan must stay bounded.
	cfg := machine.Opteron16()
	base := []task.ClassSpec{
		{Name: "old/heavy", Count: 6, MeanWork: 0.12, JitterFrac: 0.05},
		{Name: "old/light", Count: 110, MeanWork: 0.006, JitterFrac: 0.05},
	}
	withNew := append(append([]task.ClassSpec(nil), base...),
		task.ClassSpec{Name: "surprise", Count: 12, MeanWork: 0.03, JitterFrac: 0.05})
	perBatch := [][]task.ClassSpec{base, base, base, withNew, withNew, withNew}
	w := buildWorkload("newclass", perBatch, 9)
	res := mustRun(t, cfg, w, policy.NewEEWA())
	cilk := mustRun(t, cfg, w, policy.NewCilk())
	if res.Makespan > 1.2*cilk.Makespan {
		t.Errorf("surprise class degraded EEWA %.4f vs cilk %.4f", res.Makespan, cilk.Makespan)
	}
}

func TestEEWAVanishingClass(t *testing.T) {
	// A class present early disappears; the adjuster must not keep
	// reserving cores for it (its per-batch profile resets), and the
	// run completes.
	cfg := machine.Opteron16()
	both := []task.ClassSpec{
		{Name: "stay", Count: 100, MeanWork: 0.008, JitterFrac: 0.05},
		{Name: "gone", Count: 8, MeanWork: 0.10, JitterFrac: 0.05},
	}
	only := []task.ClassSpec{
		{Name: "stay", Count: 100, MeanWork: 0.008, JitterFrac: 0.05},
	}
	perBatch := [][]task.ClassSpec{both, both, only, only, only, only}
	w := buildWorkload("vanish", perBatch, 13)
	res := mustRun(t, cfg, w, policy.NewEEWA())
	if len(res.BatchTimes) != 6 {
		t.Fatalf("expected 6 batches, got %d", len(res.BatchTimes))
	}
	// Once the heavy class is gone, the whole machine can go slow: most
	// cores should sit below F0 in the late batches.
	lateSlow := 0
	for lvl := 1; lvl < 4; lvl++ {
		lateSlow += res.BatchCensus[5][lvl]
	}
	if lateSlow < 12 {
		t.Errorf("late census %v: expected ≥12 cores below F0 once the heavy class vanished", res.BatchCensus[5])
	}
}
