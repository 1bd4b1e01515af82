package eewa_test

import (
	"sync/atomic"
	"testing"

	eewa "repro"
	"repro/internal/policy"
	"repro/internal/task"
)

// TestCanonicalPolicyNamesAcceptedEverywhere pins the contract: one
// canonical name set (owned by internal/policy) is accepted by the
// facade's Simulate (simulator path) and, as a LivePolicy, by
// NewRuntime (live path), and the facade constants are names of that
// set.
func TestCanonicalPolicyNamesAcceptedEverywhere(t *testing.T) {
	cfg := eewa.Opteron16()
	w := task.MustGenerate("names", 1, []task.ClassSpec{{Name: "a", Count: 4, MeanWork: 0.01}}, 1)
	names := eewa.PolicyNames()
	if len(names) != 4 {
		t.Fatalf("PolicyNames() = %v, want 4 policies", names)
	}
	for _, name := range names {
		if _, err := eewa.Simulate(cfg, w, name); err != nil {
			t.Errorf("Simulate(%q): %v", name, err)
		}
		if _, err := eewa.NewRuntime(eewa.LiveConfig{Workers: 1, Machine: cfg, Policy: eewa.LivePolicy(name)}); err != nil {
			t.Errorf("NewRuntime(%q): %v", name, err)
		}
	}

	wantConsts := map[string]string{
		eewa.PolicyCilk:  policy.IDCilk,
		eewa.PolicyCilkD: policy.IDCilkD,
		eewa.PolicyEEWA:  policy.IDEEWA,
	}
	for got, want := range wantConsts {
		if got != want {
			t.Errorf("facade constant %q != canonical %q", got, want)
		}
	}

	if _, err := eewa.Simulate(cfg, w, "bogus"); err == nil {
		t.Error("Simulate should reject unknown names")
	}
	if _, err := eewa.NewRuntime(eewa.LiveConfig{Workers: 1, Machine: cfg, Policy: "bogus"}); err == nil {
		t.Error("NewRuntime should reject unknown policy names")
	}
}

// TestLiveRuntimeRunsEveryPolicy exercises the facade's live path for
// all four policies — before the shared policy core only cilk and eewa
// could run live.
func TestLiveRuntimeRunsEveryPolicy(t *testing.T) {
	for _, name := range eewa.PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			r, err := eewa.NewRuntime(eewa.LiveConfig{
				Workers: 2, Machine: eewa.Opteron16(), Policy: eewa.LivePolicy(name), Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var done atomic.Int64
			var tasks []eewa.LiveTask
			for i := 0; i < 6; i++ {
				tasks = append(tasks, eewa.LiveTask{Class: "t", Run: func() { done.Add(1) }})
			}
			bs := r.RunBatch(tasks)
			if bs.Tasks != 6 || done.Load() != 6 {
				t.Fatalf("ran %d tasks (%d executed), want 6", bs.Tasks, done.Load())
			}
		})
	}
}
