package rt

import (
	"slices"
	"testing"
	"time"

	"repro/internal/policy"
)

// The throttle tail of a batch too small to absorb it: two workers at
// the ladder's lowest level, one ≈100 µs task each, so each worker ends
// with a debt just over the quantum (≈210 µs) and sleeps it once, with
// no later task to credit the overshoot against. What the batch's wall
// carries beyond the slower worker's modelled busy time is then the
// spawned worker's start lag plus that one sleep's overshoot. With
// time.Sleep the overshoot is the netpoller's millisecond (a 210 µs
// sleep returns after ≈1.1 ms on an idle runtime, so the tail reads
// ≈1 ms); with nanosleep it is the thread's wake-up, ≈100 µs. The median
// over 50 batches, and a bound with room for the host's slow phases.
func TestThrottleTailUnderAMillisecond(t *testing.T) {
	const bound = 500 * time.Microsecond
	mc := testConfig(2, PolicyCilk).Machine
	lowest := mc.Freqs.Slowest()
	cfg := testConfig(2, PolicyCilk)
	cfg.Impl = &fixedPlan{plan: policy.Plan{
		Assignment: fixedLevels(t, []int{lowest, lowest}), RandomSteal: true, ScatterAll: true}}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if debt := 100 * (r.ladder.Ratio(lowest) - 1); debt*1e3 < float64(throttleQuantum) {
		t.Fatalf("a 100 µs task at the lowest level owes %.0f µs, under the quantum: the test would sleep nothing", debt)
	}
	tasks := []Task{
		{Class: "t", Run: spinFor(100 * time.Microsecond)},
		{Class: "t", Run: spinFor(100 * time.Microsecond)},
	}
	tails := make([]time.Duration, 50)
	for i := range tails {
		bs := r.RunBatch(tasks)
		busiest := 0.0
		for _, ws := range bs.Workers {
			busiest = max(busiest, ws.Busy)
		}
		tails[i] = bs.Wall - time.Duration(busiest*float64(time.Second))
	}
	slices.Sort(tails)
	median := tails[len(tails)/2]
	t.Logf("batch tail beyond the modelled busy time: median %v, p10 %v, p90 %v", median, tails[5], tails[45])
	if median > bound {
		t.Errorf("median batch tail %v, want under %v", median, bound)
	}
}
