package cgroup

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cctable"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/xrand"
)

var ladder4 = machine.FreqLadder{2.5, 1.8, 1.3, 0.8}

func fig3Table(t *testing.T) *cctable.Table {
	t.Helper()
	tab, err := cctable.FromCounts([][]int{
		{2, 3, 1, 1},
		{4, 6, 2, 2},
		{6, 9, 3, 3},
		{8, 12, 4, 4},
	}, ladder4)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestFromTupleFig3(t *testing.T) {
	tab := fig3Table(t)
	tuple, ok := tab.SearchTuple(16)
	if !ok {
		t.Fatal("search failed")
	}
	asn, err := FromTuple(tuple, tab, 16)
	if err != nil {
		t.Fatalf("FromTuple: %v", err)
	}
	if err := asn.Validate(16, 4); err != nil {
		t.Fatalf("assignment invalid: %v", err)
	}
	// Paper: 10 cores at F1 and 6 at F2.
	if asn.U() != 2 {
		t.Fatalf("u = %d, want 2", asn.U())
	}
	if asn.Groups[0].Level != 1 || len(asn.Groups[0].Cores) != 10 {
		t.Errorf("group 0 = level %d × %d cores, want level 1 × 10", asn.Groups[0].Level, len(asn.Groups[0].Cores))
	}
	if asn.Groups[1].Level != 2 || len(asn.Groups[1].Cores) != 6 {
		t.Errorf("group 1 = level %d × %d cores, want level 2 × 6", asn.Groups[1].Level, len(asn.Groups[1].Cores))
	}
	// TC0, TC1 → fast group; TC2, TC3 → slow group.
	for i, want := range []int{0, 0, 1, 1} {
		name := tab.Classes[i].Name
		if got := asn.GroupOfClass(name); got != want {
			t.Errorf("class %s → group %d, want %d", name, got, want)
		}
	}
}

func TestLeftoverCoresJoinSlowestGroup(t *testing.T) {
	classes := []profile.Class{{Name: "a", Count: 4, AvgWork: 1}}
	tab := new(cctable.Table)
	if err := tab.Rebuild(classes, ladder4, 2.0); err != nil { // CC[0][0]=2 … CC[3][0]=ceil(6.25)=7
		t.Fatal(err)
	}
	tuple, ok := tab.SearchTuple(16)
	if !ok {
		t.Fatal("search failed")
	}
	asn, err := FromTuple(tuple, tab, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := asn.Validate(16, 4); err != nil {
		t.Fatalf("assignment invalid: %v", err)
	}
	// All 16 cores must be placed even though the class needs only 7.
	total := 0
	for _, g := range asn.Groups {
		total += len(g.Cores)
	}
	if total != 16 {
		t.Errorf("assigned %d cores, want 16", total)
	}
	// Single class → single group at the slowest feasible level.
	if asn.U() != 1 || asn.Groups[0].Level != 3 {
		t.Errorf("groups = %+v, want one group at level 3", asn.Groups)
	}
}

func TestUnknownClassGoesToFastestGroup(t *testing.T) {
	tab := fig3Table(t)
	tuple, _ := tab.SearchTuple(16)
	asn, err := FromTuple(tuple, tab, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := asn.GroupOfClass("never-seen-before"); got != 0 {
		t.Errorf("unknown class → group %d, want 0 (fastest, paper §III-B)", got)
	}
}

func TestFreqOf(t *testing.T) {
	tab := fig3Table(t)
	tuple, _ := tab.SearchTuple(16)
	asn, _ := FromTuple(tuple, tab, 16)
	// Cores 0..9 at level 1, cores 10..15 at level 2.
	if asn.FreqOf(0) != 1 || asn.FreqOf(9) != 1 {
		t.Error("fast-group cores should be at level 1")
	}
	if asn.FreqOf(10) != 2 || asn.FreqOf(15) != 2 {
		t.Error("slow-group cores should be at level 2")
	}
}

func TestFromTupleRejectsBadTuples(t *testing.T) {
	tab := fig3Table(t)
	if _, err := FromTuple([]int{0}, tab, 16); err == nil {
		t.Error("short tuple should error")
	}
	if _, err := FromTuple([]int{3, 3, 3, 3}, tab, 16); err == nil {
		t.Error("over-budget tuple should error")
	}
	if _, err := FromTuple([]int{2, 1, 1, 1}, tab, 16); err == nil {
		t.Error("non-monotone tuple should error")
	}
}

func TestAllFast(t *testing.T) {
	asn := AllFast(8, []string{"x", "y"})
	if err := asn.Validate(8, 4); err != nil {
		t.Fatalf("AllFast invalid: %v", err)
	}
	if asn.U() != 1 || asn.Groups[0].Level != 0 {
		t.Errorf("AllFast should be one group at level 0, got %+v", asn.Groups)
	}
	if asn.GroupOfClass("x") != 0 || asn.GroupOfClass("zz") != 0 {
		t.Error("every class maps to group 0 under AllFast")
	}
	for c := 0; c < 8; c++ {
		if asn.FreqOf(c) != 0 {
			t.Errorf("core %d at level %d, want 0", c, asn.FreqOf(c))
		}
	}
}

func TestPreferenceListFig5(t *testing.T) {
	// Paper Fig. 5: core in G_i → {G_i, G_{i+1}, …, G_{u-1}, G_{i-1}, …, G_0}.
	cases := []struct {
		gi, u int
		want  []int
	}{
		{0, 1, []int{0}},
		{0, 4, []int{0, 1, 2, 3}},
		{1, 4, []int{1, 2, 3, 0}},
		{2, 4, []int{2, 3, 1, 0}},
		{3, 4, []int{3, 2, 1, 0}},
	}
	for _, tc := range cases {
		got := PreferenceList(tc.gi, tc.u)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("PreferenceList(%d, %d) = %v, want %v", tc.gi, tc.u, got, tc.want)
		}
	}
}

func TestPreferenceListPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range group should panic")
		}
	}()
	PreferenceList(4, 4)
}

func TestPreferenceLists(t *testing.T) {
	lists := PreferenceLists(3)
	if len(lists) != 3 {
		t.Fatalf("got %d lists, want 3", len(lists))
	}
	if !reflect.DeepEqual(lists[1], []int{1, 2, 0}) {
		t.Errorf("lists[1] = %v, want [1 2 0]", lists[1])
	}
}

// Property: every preference list is a permutation of [0, u) that
// starts with the core's own group.
func TestPreferenceListPermutationProperty(t *testing.T) {
	f := func(giRaw, uRaw uint8) bool {
		u := int(uRaw%8) + 1
		gi := int(giRaw) % u
		l := PreferenceList(gi, u)
		if len(l) != u || l[0] != gi {
			return false
		}
		seen := make([]bool, u)
		for _, g := range l {
			if g < 0 || g >= u || seen[g] {
				return false
			}
			seen[g] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FromTuple on any valid searched tuple yields a valid
// assignment that uses every core exactly once.
func TestFromTupleAlwaysValidProperty(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		rng := xrand.New(seed)
		m := int(mRaw%32) + 2
		k := rng.Intn(4) + 1
		classes := make([]profile.Class, k)
		w := 4.0
		for i := range classes {
			classes[i] = profile.Class{Name: string(rune('a' + i)), Count: rng.Intn(20) + 1, AvgWork: w}
			w *= rng.Range(0.4, 1.0)
		}
		tab := new(cctable.Table)
		if err := tab.Rebuild(classes, ladder4, rng.Range(10, 200)); err != nil {
			return false
		}
		tuple, ok := tab.SearchTuple(m)
		if !ok {
			return true // nothing to assign
		}
		asn, err := FromTuple(tuple, tab, m)
		if err != nil {
			return false
		}
		return asn.Validate(m, len(ladder4)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFromLevels(t *testing.T) {
	levels := []int{0, 0, 3, 3, 3, 1}
	asn, err := FromLevels(levels, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := asn.Validate(6, 4); err != nil {
		t.Fatal(err)
	}
	if asn.U() != 3 {
		t.Fatalf("u = %d, want 3", asn.U())
	}
	// Groups in descending frequency: levels 0, 1, 3.
	if asn.Groups[0].Level != 0 || asn.Groups[1].Level != 1 || asn.Groups[2].Level != 3 {
		t.Errorf("group levels = %d,%d,%d", asn.Groups[0].Level, asn.Groups[1].Level, asn.Groups[2].Level)
	}
	if asn.FreqOf(5) != 1 {
		t.Errorf("core 5 at level %d, want 1", asn.FreqOf(5))
	}
}

func TestFromLevelsErrors(t *testing.T) {
	if _, err := FromLevels(nil, 4); err == nil {
		t.Error("no cores should error")
	}
	if _, err := FromLevels([]int{0, 7}, 4); err == nil {
		t.Error("out-of-range level should error")
	}
	if _, err := FromLevels([]int{0, -1}, 4); err == nil {
		t.Error("negative level should error")
	}
}

func TestPlacementCoresPartitionsSharedGroup(t *testing.T) {
	// Two classes forced onto one c-group: their placement slots must
	// be disjoint slices of the group.
	tab := new(cctable.Table)
	err := tab.Rebuild([]profile.Class{
		{Name: "a", Count: 32, AvgWork: 0.02},
		{Name: "b", Count: 32, AvgWork: 0.01},
	}, ladder4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	tuple, ok := tab.SearchTuple(16)
	if !ok {
		t.Fatal("search failed")
	}
	asn, err := FromTuple(tuple, tab, 16)
	if err != nil {
		t.Fatal(err)
	}
	sa := asn.PlacementCores("a")
	sb := asn.PlacementCores("b")
	if len(sa) == 0 || len(sb) == 0 {
		t.Fatal("empty placement slots")
	}
	seen := map[int]string{}
	for _, c := range sa {
		seen[c] = "a"
	}
	for _, c := range sb {
		if seen[c] == "a" {
			t.Fatalf("core %d in both classes' slots", c)
		}
	}
	// Slots live inside the class's own c-group.
	for _, c := range sa {
		if asn.CoreGroup[c] != asn.GroupOfClass("a") {
			t.Errorf("slot core %d outside class a's group", c)
		}
	}
}

func TestPlacementCoresFallsBackToGroup(t *testing.T) {
	asn := AllFast(8, []string{"x"})
	cores := asn.PlacementCores("x")
	if len(cores) != 8 {
		t.Errorf("AllFast placement should be the whole group, got %v", cores)
	}
	// Unknown class: fastest group.
	if got := asn.PlacementCores("ghost"); len(got) != 8 {
		t.Errorf("unknown class placement = %v", got)
	}
}
