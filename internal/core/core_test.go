package core

import (
	"testing"
	"testing/quick"

	"repro/internal/cctable"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/xrand"
)

var ladder = machine.FreqLadder{2.5, 1.8, 1.3, 0.8}

func mustAdjuster(t *testing.T, cores int) *Adjuster {
	t.Helper()
	a, err := NewAdjuster(ladder, cores)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAdjusterValidates(t *testing.T) {
	if _, err := NewAdjuster(machine.FreqLadder{}, 16); err == nil {
		t.Error("empty ladder should error")
	}
	if _, err := NewAdjuster(ladder, 0); err == nil {
		t.Error("zero cores should error")
	}
}

func TestAdjustEmptyClassesFallsBack(t *testing.T) {
	a := mustAdjuster(t, 16)
	asn, ok := a.Adjust(nil, 1.0)
	if ok || asn != nil {
		t.Errorf("empty classes: Adjust = %v, %v; want nil, false (the caller plans all-fast)", asn, ok)
	}
}

func TestAdjustBadTimeFallsBack(t *testing.T) {
	a := mustAdjuster(t, 16)
	classes := []profile.Class{{Name: "c", Count: 10, AvgWork: 0.1}}
	if _, ok := a.Adjust(classes, 0); ok {
		t.Error("zero T must fall back")
	}
	if _, ok := a.Adjust(classes, -1); ok {
		t.Error("negative T must fall back")
	}
}

// An Adjust that returns before searching reports no search steps, not
// the previous search's count.
func TestAdjustEarlyReturnsResetSteps(t *testing.T) {
	a := mustAdjuster(t, 16)
	classes := []profile.Class{
		{Name: "heavy", Count: 5, AvgWork: 0.17, MaxWork: 0.17},
		{Name: "light", Count: 123, AvgWork: 0.0046, MaxWork: 0.0046},
	}
	unsorted := []profile.Class{classes[1], classes[0]}
	for _, c := range []struct {
		name    string
		classes []profile.Class
		T       float64
	}{
		{"no classes", nil, 0.2},
		{"zero T", classes, 0},
		{"table rejected", unsorted, 0.2},
	} {
		a.Cache = nil // every search runs, so every search counts steps
		if _, ok := a.Adjust(classes, 0.2); !ok || a.LastSteps == 0 {
			t.Fatalf("%s: the search before reports ok %v after %d steps, want a fit after some", c.name, ok, a.LastSteps)
		}
		if _, ok := a.Adjust(c.classes, c.T); ok {
			t.Fatalf("%s: Adjust fit", c.name)
		}
		if a.LastSteps != 0 {
			t.Errorf("%s: LastSteps %d, want 0: nothing was searched", c.name, a.LastSteps)
		}
	}
}

func TestAdjustDownscalesUnderutilizedWorkload(t *testing.T) {
	a := mustAdjuster(t, 16)
	// 5 chunky tasks (stay at F0) + many fine tasks (downscale): the
	// SHA-1 shape, which must produce a multi-group assignment.
	classes := []profile.Class{
		{Name: "heavy", Count: 5, AvgWork: 0.17},
		{Name: "light", Count: 123, AvgWork: 0.0046},
	}
	asn, ok := a.Adjust(classes, 0.2)
	if !ok {
		t.Fatal("expected a feasible adjustment")
	}
	if err := asn.Validate(16, 4); err != nil {
		t.Fatal(err)
	}
	if asn.U() < 2 {
		t.Fatalf("expected ≥ 2 c-groups, got %d (tuple %v)", asn.U(), a.LastTuple)
	}
	// Heavy class on the fastest selected group, light on a slower one.
	hg, lg := asn.GroupOfClass("heavy"), asn.GroupOfClass("light")
	if !(asn.Groups[hg].Level < asn.Groups[lg].Level) {
		t.Errorf("heavy at level %d, light at level %d — heavier class must be faster",
			asn.Groups[hg].Level, asn.Groups[lg].Level)
	}
}

func TestAdjustInfeasibleCountsAndFallsBack(t *testing.T) {
	a := mustAdjuster(t, 4)
	classes := []profile.Class{
		{Name: "a", Count: 24, AvgWork: 0.02},
		{Name: "b", Count: 24, AvgWork: 0.018},
		{Name: "c", Count: 24, AvgWork: 0.016},
	}
	// T chosen so each class needs ~2 cores at F0: sum 6 > 4.
	asn, ok := a.Adjust(classes, 0.3)
	if ok || asn != nil {
		t.Errorf("infeasible instance: Adjust = %v, %v; want nil, false", asn, ok)
	}
	if a.Infeasible != 1 {
		t.Errorf("Infeasible = %d, want 1", a.Infeasible)
	}
}

func TestAdjustRecordsHostTime(t *testing.T) {
	a := mustAdjuster(t, 16)
	classes := []profile.Class{{Name: "c", Count: 100, AvgWork: 0.01}}
	a.Adjust(classes, 0.5)
	if a.HostTime <= 0 {
		t.Error("HostTime not accumulated")
	}
	if a.LastTable == nil || a.LastTuple == nil {
		t.Error("LastTable/LastTuple not recorded")
	}
}

func TestAdjustDivisibleCCKnob(t *testing.T) {
	// A chunky class that the granular formula must keep at F0 but the
	// divisible formula happily downscales.
	classes := []profile.Class{
		{Name: "chunky", Count: 8, AvgWork: 0.15},
	}
	T := 0.3

	gran := mustAdjuster(t, 16)
	ga, gok := gran.Adjust(classes, T)
	if !gok {
		t.Fatal("granular adjustment should succeed")
	}

	div := mustAdjuster(t, 16)
	div.DivisibleCC = true
	da, dok := div.Adjust(classes, T)
	if !dok {
		t.Fatal("divisible adjustment should succeed")
	}
	// The divisible formula claims fewer cores are needed at slow
	// levels, so its chosen level is at least as slow as granular's.
	if da.Groups[da.GroupOfClass("chunky")].Level < ga.Groups[ga.GroupOfClass("chunky")].Level {
		t.Error("divisible CC should never pick a faster level than granular CC")
	}
}

func TestAdjustCustomSearch(t *testing.T) {
	a := mustAdjuster(t, 16)
	called := false
	a.Search = func(tab *cctable.Table, m int) ([]int, bool) {
		called = true
		return tab.SearchTuple(m)
	}
	a.Adjust([]profile.Class{{Name: "c", Count: 10, AvgWork: 0.05}}, 0.5)
	if !called {
		t.Error("custom search not invoked")
	}
}

// Property: Adjust returns a valid assignment on success and none on a
// fallback.
func TestAdjustAlwaysValidProperty(t *testing.T) {
	f := func(seed uint64, coresRaw, kRaw uint8) bool {
		rng := xrand.New(seed)
		cores := int(coresRaw%32) + 1
		k := int(kRaw%4) + 1
		a, err := NewAdjuster(ladder, cores)
		if err != nil {
			return false
		}
		classes := make([]profile.Class, k)
		w := rng.Range(0.05, 0.5)
		for i := range classes {
			classes[i] = profile.Class{
				Name:    string(rune('a' + i)),
				Count:   rng.Intn(60) + 1,
				AvgWork: w,
			}
			w *= rng.Range(0.3, 1.0)
		}
		asn, ok := a.Adjust(classes, rng.Range(0.05, 2.0))
		if !ok {
			return asn == nil
		}
		return asn.Validate(cores, len(ladder)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
