package cgroup

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cctable"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/xrand"
)

// refFromTuple is FromTuple as it stood before Rebuild — per-level maps,
// one Cores slice per group, everything allocated per call — kept as the
// reference Rebuild's single pass over the tuple is compared against.
func refFromTuple(tuple []int, tab *cctable.Table, m int) (*Assignment, error) {
	if len(tuple) != tab.K() {
		return nil, fmt.Errorf("cgroup: tuple has %d entries for %d classes", len(tuple), tab.K())
	}
	if !tab.ValidTuple(tuple, m) {
		return nil, fmt.Errorf("cgroup: tuple %v invalid for m=%d", tuple, m)
	}
	coresPerLevel := make(map[int]int)
	var levels []int
	for i, a := range tuple {
		if coresPerLevel[a] == 0 {
			levels = append(levels, a)
		}
		coresPerLevel[a] += tab.CC[a][i]
	}
	total := 0
	for _, n := range coresPerLevel {
		total += n
	}
	coresPerLevel[levels[len(levels)-1]] += m - total

	asn := &Assignment{
		ClassGroup: make(map[string]int, tab.K()),
		CoreGroup:  make([]int, m),
		Tuple:      append([]int(nil), tuple...),
	}
	next := 0
	levelGroup := make(map[int]int, len(levels))
	for gi, lvl := range levels {
		n := coresPerLevel[lvl]
		g := Group{Level: lvl, Cores: make([]int, 0, n)}
		for c := 0; c < n; c++ {
			g.Cores = append(g.Cores, next)
			asn.CoreGroup[next] = gi
			next++
		}
		asn.Groups = append(asn.Groups, g)
		levelGroup[lvl] = gi
	}
	for i, a := range tuple {
		asn.ClassGroup[tab.Classes[i].Name] = levelGroup[a]
	}
	asn.classSlots = make(map[string][]int, tab.K())
	used := make([]int, len(asn.Groups))
	for i, a := range tuple {
		gi := levelGroup[a]
		cores := asn.Groups[gi].Cores
		n := tab.CC[a][i]
		lo := used[gi]
		hi := lo + n
		if hi > len(cores) {
			hi = len(cores)
		}
		asn.classSlots[tab.Classes[i].Name] = cores[lo:hi]
		used[gi] = hi
	}
	return asn, nil
}

// sameDecision compares what an engine reads of an assignment: groups,
// core→group, class→group, tuple and every class's placement cores.
func sameDecision(t *testing.T, got, want *Assignment, tab *cctable.Table) {
	t.Helper()
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Errorf("groups %+v, reference %+v", got.Groups, want.Groups)
	}
	if !reflect.DeepEqual(got.CoreGroup, want.CoreGroup) {
		t.Errorf("core→group %v, reference %v", got.CoreGroup, want.CoreGroup)
	}
	if !reflect.DeepEqual(got.ClassGroup, want.ClassGroup) {
		t.Errorf("class→group %v, reference %v", got.ClassGroup, want.ClassGroup)
	}
	if !reflect.DeepEqual(got.Tuple, want.Tuple) {
		t.Errorf("tuple %v, reference %v", got.Tuple, want.Tuple)
	}
	for _, c := range tab.Classes {
		if g, w := got.PlacementCores(c.Name), want.PlacementCores(c.Name); !reflect.DeepEqual(g, w) {
			t.Errorf("class %s placed on %v, reference %v", c.Name, g, w)
		}
	}
}

// TestRebuildMatchesReference drives one Assignment through random
// tables of varying k and core budget — every shape after every other —
// and requires, each time, the decision the per-call reference builds.
func TestRebuildMatchesReference(t *testing.T) {
	ladder := machine.FreqLadder{2.5, 1.8, 1.3, 0.8}
	rng := xrand.New(42)
	var reused Assignment
	feasible := 0
	for iter := 0; iter < 2000; iter++ {
		k := 1 + rng.Intn(6)
		m := 2 + rng.Intn(31)
		classes := make([]profile.Class, k)
		w := 0.05 + rng.Float64()
		for i := range classes {
			classes[i] = profile.Class{Name: fmt.Sprintf("c%d", rng.Intn(9)), Count: 1 + rng.Intn(40), AvgWork: w, MaxWork: w}
			w *= 0.2 + 0.8*rng.Float64()
		}
		tab := new(cctable.Table)
		if err := tab.RebuildGranular(classes, ladder, 0.5+2*rng.Float64(), m); err != nil {
			t.Fatal(err)
		}
		tuple, ok := tab.SearchTuple(m)
		want, wantErr := refFromTuple(tuple, tab, m)
		gotErr := reused.Rebuild(tuple, tab, m)
		if (gotErr == nil) != (wantErr == nil) || (gotErr == nil) != ok {
			t.Fatalf("iter %d: Rebuild err %v, reference err %v, search ok %v", iter, gotErr, wantErr, ok)
		}
		if !ok {
			continue // refused: reused keeps the previous decision
		}
		feasible++
		sameDecision(t, &reused, want, tab)
		if err := reused.Validate(m, len(ladder)); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		fresh, err := FromTuple(tuple, tab, m)
		if err != nil || !reflect.DeepEqual(&reused, fresh) {
			t.Fatalf("iter %d: reused assignment %+v differs from a fresh one %+v (err %v)", iter, reused, fresh, err)
		}
		if t.Failed() {
			t.Fatalf("iter %d: k=%d m=%d tuple %v", iter, k, m, tuple)
		}
	}
	if feasible < 500 {
		t.Fatalf("only %d feasible instances: the generator no longer exercises Rebuild", feasible)
	}
}

func TestRebuildWarmAllocatesNothing(t *testing.T) {
	tab := fig3Table(t)
	tuple, ok := tab.SearchTuple(16)
	if !ok {
		t.Fatal("fig. 3 table should be feasible on 16 cores")
	}
	var a Assignment
	if err := a.Rebuild(tuple, tab, 16); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _ = a.Rebuild(tuple, tab, 16) }); got != 0 {
		t.Errorf("%.1f allocations per warm Rebuild, want 0", got)
	}
}
