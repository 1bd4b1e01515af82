package core

import (
	"reflect"
	"testing"

	"repro/internal/cgroup"
	"repro/internal/profile"
)

// Class sets of different k for the in-place tests: A (k=2) and B (k=3)
// are feasible on 16 cores and pick different tuples; tooBig needs more
// cores than the machine has even at F0.
var (
	setA = []profile.Class{
		{Name: "heavy", Count: 5, AvgWork: 0.9, MaxWork: 0.9},
		{Name: "fine", Count: 100, AvgWork: 0.01, MaxWork: 0.012},
	}
	setB = []profile.Class{
		{Name: "big", Count: 3, AvgWork: 0.5, MaxWork: 0.6},
		{Name: "heavy", Count: 12, AvgWork: 0.2, MaxWork: 0.2},
		{Name: "tiny", Count: 40, AvgWork: 0.004, MaxWork: 0.004},
	}
	tooBig = []profile.Class{{Name: "flood", Count: 400, AvgWork: 0.9, MaxWork: 0.9}}
)

// decision is everything one Adjust hands out, copied so that it can be
// held across the next.
type decision struct {
	ok        bool
	asn       cgroup.Assignment
	placement map[string][]int
	tuple     []int
	cc        [][]int
	steps     int
}

func capture(a *Adjuster, classes []profile.Class, T float64) decision {
	asn, ok := a.Adjust(classes, T)
	d := decision{ok: ok, steps: a.LastSteps, placement: map[string][]int{}}
	if asn != nil { // a fallback hands out no assignment
		d.asn.Groups = make([]cgroup.Group, len(asn.Groups))
		for i, g := range asn.Groups {
			d.asn.Groups[i] = cgroup.Group{Level: g.Level, Cores: append([]int(nil), g.Cores...)}
		}
		d.asn.CoreGroup = append([]int(nil), asn.CoreGroup...)
		d.asn.Tuple = append([]int{}, asn.Tuple...)
		d.asn.ClassGroup = map[string]int{}
		for name, g := range asn.ClassGroup {
			d.asn.ClassGroup[name] = g
		}
		for _, c := range classes {
			d.placement[c.Name] = append([]int(nil), asn.PlacementCores(c.Name)...)
		}
	}
	d.tuple = append([]int{}, a.LastTuple...)
	for _, row := range a.LastTable.CC {
		d.cc = append(d.cc, append([]int(nil), row...))
	}
	return d
}

// TestAdjustInPlaceEqualsFresh: an adjuster that rebuilds its table,
// tuple and assignment in place decides exactly what a fresh adjuster
// does, whatever it decided before — a smaller k after a larger one, a
// feasible set after an infeasible one — with the plan cache on and off.
func TestAdjustInPlaceEqualsFresh(t *testing.T) {
	const T = 1.0
	seq := []struct {
		name    string
		classes []profile.Class
	}{{"A", setA}, {"B", setB}, {"A", setA}, {"tooBig", tooBig}, {"B", setB}, {"A", setA}}
	for _, cached := range []bool{true, false} {
		reused := mustAdjuster(t, 16)
		if !cached {
			reused.Cache = nil
		}
		for i, s := range seq {
			fresh := mustAdjuster(t, 16)
			fresh.Cache = nil
			want := capture(fresh, s.classes, T)
			got := capture(reused, s.classes, T)
			if cached && got.steps == 0 {
				got.steps = want.steps // a cache hit searches nothing
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("cache=%v step %d (%s): reused adjuster decided\n%+v\nfresh adjuster\n%+v", cached, i, s.name, got, want)
			}
			if want.ok != (s.name != "tooBig") {
				t.Fatalf("step %d (%s): feasibility %v — the fixture no longer exercises the fallback", i, s.name, want.ok)
			}
		}
	}
}

// TestAdjustWarmAllocatesNothing: the second Adjust of a class set on a
// warm adjuster allocates nothing — cache on (a hit) and off (a search)
// — and neither does alternating between sets of different k.
func TestAdjustWarmAllocatesNothing(t *testing.T) {
	for _, cached := range []bool{true, false} {
		a := mustAdjuster(t, 16)
		if !cached {
			a.Cache = nil
		}
		for _, set := range [][]profile.Class{setA, setB, tooBig} {
			a.Adjust(set, 1.0)
		}
		if got := testing.AllocsPerRun(50, func() { a.Adjust(setA, 1.0) }); got != 0 {
			t.Errorf("cache=%v: %.1f allocations per warm Adjust, want 0", cached, got)
		}
		if got := testing.AllocsPerRun(50, func() {
			a.Adjust(setB, 1.0)
			a.Adjust(setA, 1.0)
			a.Adjust(tooBig, 1.0)
		}); got != 0 {
			t.Errorf("cache=%v: %.1f allocations per three alternating warm Adjusts, want 0", cached, got)
		}
	}
}

// TestAdjustCacheMissesStopAllocating: a plan cache fed a new profile
// every batch — the served regime, where measured weights never repeat —
// fills, resets wholesale, and from then on memoizes into the memory it
// already has.
func TestAdjustCacheMissesStopAllocating(t *testing.T) {
	a := mustAdjuster(t, 16)
	set := append([]profile.Class(nil), setA...)
	next := func() {
		set[1].AvgWork *= 1.0000001 // a profile never seen before
		a.Adjust(set, 1.0)
	}
	for i := 0; i < 3*256; i++ { // fill and reset the cache
		next()
	}
	if got := testing.AllocsPerRun(600, next); got != 0 {
		t.Errorf("%.2f allocations per cache-missing Adjust on a cache that has filled, want 0", got)
	}
	if a.Cache.Hits != 0 {
		t.Fatalf("%d cache hits: the profiles repeat and the test measures nothing", a.Cache.Hits)
	}
}
