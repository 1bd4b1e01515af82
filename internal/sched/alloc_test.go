package sched

import (
	"runtime/debug"
	"testing"

	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/task"
)

// TestRunAllocsIndependentOfSize: a simulated run allocates a fixed
// handful of times. Run sizes its slabs once from the machine and the
// workload's largest batch, so the count is the same on 4, 16 and 64
// cores (with 8 tasks per core in every batch) and for 1 or 10 batches.
// EEWA is counted from after its first plan, batch 1: that plan builds
// the adjuster's table, cache and assignment, which later plans reuse,
// so its runs hold 2 and 11 batches. The counts stay under budget
// (outside the race detector, which adds allocations of its own).
func TestRunAllocsIndependentOfSize(t *testing.T) {
	// A collection mid-measurement can count the runtime's own
	// allocations; without one the count is exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		id      string
		batches []int
		budget  float64
	}{
		{policy.IDCilk, []int{1, 10}, 55},
		{policy.IDEEWA, []int{2, 11}, 80},
	} {
		want := -1.0
		for _, cfg := range []machine.Config{machine.Generic(4), machine.Opteron16(), machine.Generic(64)} {
			for _, nb := range c.batches {
				// One heavy task per four cores and 8 light ones per core:
				// EEWA keeps the heavy class fast and slows the light one.
				w := task.MustGenerate("sized", nb, []task.ClassSpec{
					{Name: "heavy", Count: cfg.Cores / 4, MeanWork: 20e-3, JitterFrac: 0.1},
					{Name: "light", Count: 8 * cfg.Cores, MeanWork: 5e-4, JitterFrac: 0.1},
				}, 7)
				var res *Result
				got := testing.AllocsPerRun(5, func() {
					p, err := policy.New(c.id, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res, err = Run(cfg, w, p, Params{Seed: 1}); err != nil {
						t.Fatal(err)
					}
				})
				if c.id == policy.IDEEWA && res.BatchCensus[1][0] == cfg.Cores {
					t.Fatalf("%d cores: EEWA kept every core at F0 in batch 1, want a downscaled plan", cfg.Cores)
				}
				if want < 0 {
					want = got
				}
				if got != want {
					t.Errorf("%s on %d cores, %d batches: %v allocations, want %v as on the first machine and batch count", c.id, cfg.Cores, nb, got, want)
				}
			}
		}
		if want > c.budget && !raceEnabled {
			t.Errorf("%s: a run allocates %v times, budget %v", c.id, want, c.budget)
		}
		t.Logf("%s: %v allocations per run", c.id, want)
	}
}
