package eewa_test

import (
	"sync/atomic"
	"testing"

	eewa "repro"
	"repro/internal/policy"
)

// TestCanonicalPolicyNamesAcceptedEverywhere pins the contract: one
// canonical name set (owned by internal/policy) is accepted by the
// facade's NewPolicy (simulator path) and, as a LivePolicy, by
// NewRuntime (live path), and the facade constants are exactly that
// set.
func TestCanonicalPolicyNamesAcceptedEverywhere(t *testing.T) {
	cfg := eewa.Opteron16()
	names := eewa.PolicyNames()
	if len(names) != 4 {
		t.Fatalf("PolicyNames() = %v, want 4 policies", names)
	}
	for _, name := range names {
		if _, err := eewa.NewPolicy(name, cfg); err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
		}
		if _, err := eewa.NewRuntime(eewa.LiveConfig{Workers: 1, Machine: cfg, Policy: eewa.LivePolicy(name)}); err != nil {
			t.Errorf("NewRuntime(%q): %v", name, err)
		}
	}

	wantConsts := map[string]string{
		eewa.PolicyCilk:  policy.IDCilk,
		eewa.PolicyCilkD: policy.IDCilkD,
		eewa.PolicyWATS:  policy.IDWATS,
		eewa.PolicyEEWA:  policy.IDEEWA,
	}
	for got, want := range wantConsts {
		if got != want {
			t.Errorf("facade constant %q != canonical %q", got, want)
		}
	}

	wantLive := map[eewa.LivePolicy]string{
		eewa.LivePolicyCilk:  policy.IDCilk,
		eewa.LivePolicyCilkD: policy.IDCilkD,
		eewa.LivePolicyWATS:  policy.IDWATS,
		eewa.LivePolicyEEWA:  policy.IDEEWA,
	}
	for sel, want := range wantLive {
		if string(sel) != want {
			t.Errorf("live policy %q, want %q", sel, want)
		}
	}

	if _, err := eewa.NewPolicy("bogus", cfg); err == nil {
		t.Error("NewPolicy should reject unknown names")
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
