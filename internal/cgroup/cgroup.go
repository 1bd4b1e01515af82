// Package cgroup turns a k-tuple chosen by the frequency adjuster into
// the runtime structures of the paper's §III-B: *c-groups* (sets of
// cores sharing an operating frequency), the class→c-group allocation,
// and each core's *preference list* ordered by the rob-the-weaker-first
// principle (Fig. 5):
//
//	core in G_i prefers {G_i, G_{i+1}, …, G_{u-1}, G_{i-1}, …, G_0}
//
// i.e. first its own group, then strictly slower groups fastest-first,
// then faster groups slowest-first.
//
// Cores left over after satisfying the tuple's per-class core counts
// (Σ CC[a_i][i] may be < m) join the slowest selected c-group: they are
// capacity slack, and parking slack at the lowest chosen frequency is
// the energy-minimal placement (DESIGN.md §5).
package cgroup

import (
	"fmt"

	"repro/internal/cctable"
)

// Group is one c-group: a frequency level and the cores operating at it.
type Group struct {
	// Level is the frequency-ladder index the group's cores run at.
	Level int
	// Cores are the member core IDs.
	Cores []int
}

// Assignment is the complete outcome of one adjuster decision: which
// core runs at which frequency, which c-group each core belongs to, and
// which c-group each task class is allocated to.
type Assignment struct {
	// Groups are the u c-groups in descending frequency order
	// (Groups[0] is the fastest).
	Groups []Group
	// ClassGroup maps a task-class name to its c-group index.
	ClassGroup map[string]int
	// CoreGroup maps a core ID to its c-group index.
	CoreGroup []int
	// Tuple is the k-tuple that produced this assignment (empty for
	// AllFast), kept for tracing.
	Tuple []int
	// classSlots maps a class to the cores inside its c-group reserved
	// for its initial task placement — CC[a_i][i] cores each, in class
	// (tuple) order. When two classes share a c-group this keeps their
	// chunky tasks from colliding on the same pools; work stealing
	// still rebalances afterwards. Nil for AllFast/FromLevels
	// assignments.
	classSlots map[string][]int
	// cores is 0..m-1 ascending. Rebuild hands cores out in that order,
	// so every group's Cores and every class's slots are sub-slices of it.
	cores []int
}

// PlacementCores returns the cores a class's tasks should initially be
// distributed over: its reserved slice of its c-group when the
// assignment carries per-class core counts, otherwise the whole
// c-group.
func (a *Assignment) PlacementCores(name string) []int {
	if slots, ok := a.classSlots[name]; ok && len(slots) > 0 {
		return slots
	}
	return a.Groups[a.GroupOfClass(name)].Cores
}

// U returns the number of c-groups in use.
func (a *Assignment) U() int { return len(a.Groups) }

// GroupOfClass returns the c-group index for a class name; unknown
// classes go to the fastest group (index 0), the paper's rule for
// tasks "with no existing task class".
func (a *Assignment) GroupOfClass(name string) int {
	if g, ok := a.ClassGroup[name]; ok {
		return g
	}
	return 0
}

// FreqOf returns the frequency level of core id under this assignment.
func (a *Assignment) FreqOf(id int) int {
	return a.Groups[a.CoreGroup[id]].Level
}

// Validate checks internal consistency for m cores and r frequency
// levels.
func (a *Assignment) Validate(m, r int) error {
	if len(a.Groups) == 0 {
		return fmt.Errorf("cgroup: no groups")
	}
	if len(a.CoreGroup) != m {
		return fmt.Errorf("cgroup: CoreGroup has %d entries, want %d", len(a.CoreGroup), m)
	}
	seen := make([]bool, m)
	prevLevel := -1
	for gi, g := range a.Groups {
		if g.Level < 0 || g.Level >= r {
			return fmt.Errorf("cgroup: group %d level %d out of range", gi, g.Level)
		}
		if g.Level <= prevLevel {
			return fmt.Errorf("cgroup: groups not in descending frequency order at %d", gi)
		}
		prevLevel = g.Level
		if len(g.Cores) == 0 {
			return fmt.Errorf("cgroup: group %d is empty", gi)
		}
		for _, c := range g.Cores {
			if c < 0 || c >= m {
				return fmt.Errorf("cgroup: group %d contains invalid core %d", gi, c)
			}
			if seen[c] {
				return fmt.Errorf("cgroup: core %d in two groups", c)
			}
			seen[c] = true
			if a.CoreGroup[c] != gi {
				return fmt.Errorf("cgroup: CoreGroup[%d] = %d, want %d", c, a.CoreGroup[c], gi)
			}
		}
	}
	for c := 0; c < m; c++ {
		if !seen[c] {
			return fmt.Errorf("cgroup: core %d unassigned", c)
		}
	}
	for name, g := range a.ClassGroup {
		if g < 0 || g >= len(a.Groups) {
			return fmt.Errorf("cgroup: class %q maps to invalid group %d", name, g)
		}
	}
	return nil
}

// FromTuple builds the assignment for a k-tuple over table tab on an
// m-core machine. Core IDs are handed out in ascending order, fastest
// group first, so assignments are deterministic.
func FromTuple(tuple []int, tab *cctable.Table, m int) (*Assignment, error) {
	a := new(Assignment)
	if err := a.Rebuild(tuple, tab, m); err != nil {
		return nil, err
	}
	return a, nil
}

// Rebuild is FromTuple into a's own storage: once a has held an
// assignment for m cores and these class names it allocates nothing. It
// copies tuple; on error a is left as it was.
func (a *Assignment) Rebuild(tuple []int, tab *cctable.Table, m int) error {
	if len(tuple) != tab.K() {
		return fmt.Errorf("cgroup: tuple has %d entries for %d classes", len(tuple), tab.K())
	}
	if !tab.ValidTuple(tuple, m) {
		return fmt.Errorf("cgroup: tuple %v invalid for m=%d", tuple, m)
	}
	if len(a.cores) != m {
		a.cores = make([]int, m)
		for c := range a.cores {
			a.cores[c] = c
		}
		a.CoreGroup = make([]int, m)
	}
	if a.ClassGroup == nil {
		a.ClassGroup = make(map[string]int, tab.K())
		a.classSlots = make(map[string][]int, tab.K())
	}
	clear(a.ClassGroup)
	clear(a.classSlots)
	a.Tuple = append(a.Tuple[:0], tuple...)
	a.Groups = a.Groups[:0]

	// tuple is monotone non-decreasing, so each run of equal levels is
	// one c-group, fastest first, and class i takes the next CC[a_i][i]
	// cores: reserved for its initial placement, so same-group classes
	// spread over disjoint pools.
	start, next := 0, 0 // the open group's first core; the first core not handed out
	for i, lvl := range tuple {
		if i == 0 || lvl != tuple[i-1] {
			a.Groups = append(a.Groups, Group{Level: lvl})
			start = next
		}
		gi := len(a.Groups) - 1
		lo := next
		next += tab.CC[lvl][i]
		name := tab.Classes[i].Name
		a.ClassGroup[name] = gi
		a.classSlots[name] = a.cores[lo:next:next]
		a.Groups[gi].Cores = a.cores[start:next:next]
	}
	// Leftover cores join the slowest selected group.
	a.Groups[len(a.Groups)-1].Cores = a.cores[start:]
	for gi, g := range a.Groups {
		for _, c := range g.Cores {
			a.CoreGroup[c] = gi
		}
	}
	return nil
}

// AllFast returns the degenerate assignment used for the first batch
// and for infeasible instances: a single c-group containing every core
// at F0, with every known class allocated to it.
func AllFast(m int, classNames []string) *Assignment {
	g := Group{Level: 0, Cores: make([]int, m)}
	asn := &Assignment{
		Groups:     []Group{g},
		ClassGroup: make(map[string]int, len(classNames)),
		CoreGroup:  make([]int, m),
	}
	for c := 0; c < m; c++ {
		g.Cores[c] = c
	}
	asn.Groups[0] = g
	for _, n := range classNames {
		asn.ClassGroup[n] = 0
	}
	return asn
}

// FromLevels builds an assignment from an explicit per-core frequency
// level vector — the shape of the paper's Fig. 7 experiment, where the
// machine's frequencies are *frozen* to a configuration EEWA chose and
// other schedulers run on the resulting asymmetric machine. No classes
// are pre-allocated; callers fill ClassGroup (WATS) or leave it empty
// so every class maps to the fastest group.
func FromLevels(levels []int, r int) (*Assignment, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("cgroup: no cores")
	}
	present := make([]bool, r)
	for c, l := range levels {
		if l < 0 || l >= r {
			return nil, fmt.Errorf("cgroup: core %d level %d out of range [0,%d)", c, l, r)
		}
		present[l] = true
	}
	asn := &Assignment{
		ClassGroup: make(map[string]int),
		CoreGroup:  make([]int, len(levels)),
	}
	levelGroup := make(map[int]int)
	for l := 0; l < r; l++ {
		if present[l] {
			levelGroup[l] = len(asn.Groups)
			asn.Groups = append(asn.Groups, Group{Level: l})
		}
	}
	for c, l := range levels {
		gi := levelGroup[l]
		asn.Groups[gi].Cores = append(asn.Groups[gi].Cores, c)
		asn.CoreGroup[c] = gi
	}
	return asn, nil
}

// PreferenceList returns the steal order for a core in c-group gi of u
// groups, per the paper's Fig. 5: own group, then slower groups in
// increasing slowness, then faster groups from nearest to fastest.
func PreferenceList(gi, u int) []int {
	if gi < 0 || gi >= u {
		panic(fmt.Sprintf("cgroup: group %d out of %d", gi, u))
	}
	out := make([]int, 0, u)
	for g := gi; g < u; g++ {
		out = append(out, g)
	}
	for g := gi - 1; g >= 0; g-- {
		out = append(out, g)
	}
	return out
}

// PreferenceLists returns the lists for all u groups, indexed by group.
func PreferenceLists(u int) [][]int {
	out := make([][]int, u)
	for gi := 0; gi < u; gi++ {
		out[gi] = PreferenceList(gi, u)
	}
	return out
}
