// Package cctable implements the paper's Core-Count (CC) table
// (Table I) and the backtracking k-tuple search (Algorithm 1) at the
// heart of EEWA's workload-aware frequency adjuster.
//
// Given k task classes TC_i(f_i, n_i, w_i) sorted by descending average
// workload, an r-level frequency ladder and the ideal iteration time T,
// the CC table entry CC[j][i] is the number of cores at frequency F_j
// needed to finish all of class i's work within T:
//
//	CC[j][i] = ceil( (F0/Fj) · n_i·w_i / T )
//
// (The paper writes the entries analytically without the ceiling; core
// counts are integral, so we round up — DESIGN.md §5 records the
// decision and the Fig. 3 test pins the observable behaviour.) Every
// column is built with one formula: F0/Fj generalizes to the class's
// time scale s_j = 1 + (1 − MemFrac)·(F0/Fj − 1), which is F0/Fj bit for
// bit for the paper's CPU-bound classes (MemFrac 0) and shrinks toward 1
// as a class's measured memory-bound share grows (§IV-D extension).
//
// A solution is a k-tuple (a_0 … a_{k-1}) meaning "run class i's tasks
// on cores at frequency F_{a_i}", subject to the paper's three
// constraints:
//
//  1. Σ CC[a_i][i] ≤ m (the machine's core count);
//  2. the search prefers low frequencies (energy);
//  3. a_i ≤ a_j for i < j (heavier classes on faster-or-equal cores).
//
// Besides the paper's backtracking algorithm the package provides an
// exhaustive minimum-energy reference and a greedy heuristic, used by
// the ablation benchmarks to quantify how close Algorithm 1 lands to
// optimal and at what cost.
package cctable

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/machine"
	"repro/internal/profile"
)

// Typed construction errors. Callers that degrade gracefully on a bad
// profile (e.g. core.Adjuster falling back to all-F0) can distinguish
// "the workload snapshot was degenerate" (ErrNoClasses, ErrClassWeight)
// from "the caller passed garbage" (ErrIdealTime, ErrUnsorted,
// ErrMaxCores) with errors.Is.
var (
	// ErrNoClasses is returned when the class list is empty.
	ErrNoClasses = errors.New("cctable: no task classes")
	// ErrIdealTime is returned when the ideal iteration time T is not a
	// positive finite number — the table's denominator would be
	// meaningless.
	ErrIdealTime = errors.New("cctable: ideal time must be positive and finite")
	// ErrClassWeight is returned when a class carries no schedulable
	// weight (Count ≤ 0, or AvgWork not a positive finite number) or a
	// MemFrac outside [0, 1]: its CC entries would be 0/0, NaN, infinite
	// or scaled by a factor no frequency produces.
	ErrClassWeight = errors.New("cctable: class has no schedulable weight")
	// ErrUnsorted is returned when classes are not in descending-AvgWork
	// order, which Algorithm 1's monotonicity constraint assumes.
	ErrUnsorted = errors.New("cctable: classes not sorted by descending workload")
	// ErrMaxCores is returned by RebuildGranular for a non-positive
	// core budget.
	ErrMaxCores = errors.New("cctable: maxCores must be positive")
)

// Table is a built CC table plus the inputs it was derived from.
type Table struct {
	// CC[j][i]: cores at frequency level j needed for class i (ceiled).
	CC [][]int
	// Classes are the k task classes, sorted by descending AvgWork.
	Classes []profile.Class
	// Ladder is the machine's frequency ladder.
	Ladder machine.FreqLadder
	// T is the ideal iteration time used as the denominator.
	T float64
	// LastSearchSteps is the number of Select attempts the most recent
	// SearchTuple call performed — the backtracking effort reported to
	// the observability layer. A memoized lookup through a Cache sets
	// it to 0 (no Select attempts ran); the cumulative count across
	// real searches lives on Cache.StepsTotal.
	LastSearchSteps int

	// Rebuild's flat r×k backing for CC, and the tuple SearchTuple
	// writes — both reused from one build to the next.
	cc    []int
	tuple []int
}

// Rebuild builds the CC table for the given classes (which must
// already be in descending-AvgWork order, as profile.Classes returns
// them), ladder and ideal time T into t's own storage: once t has held
// a table of this shape it allocates nothing. It copies classes, and
// validates every input before it touches t.
func (t *Table) Rebuild(classes []profile.Class, ladder machine.FreqLadder, T float64) error {
	if err := ladder.Validate(); err != nil {
		return err
	}
	if len(classes) == 0 {
		return ErrNoClasses
	}
	if T <= 0 || math.IsNaN(T) || math.IsInf(T, 0) {
		return fmt.Errorf("%w: got %g", ErrIdealTime, T)
	}
	for i, c := range classes {
		if c.Count <= 0 || !(c.AvgWork > 0) || math.IsInf(c.AvgWork, 0) || !(c.MemFrac >= 0 && c.MemFrac <= 1) {
			return fmt.Errorf("%w: class %d (%q) count=%d avg=%g memfrac=%g",
				ErrClassWeight, i, c.Name, c.Count, c.AvgWork, c.MemFrac)
		}
	}
	for i := 1; i < len(classes); i++ {
		if classes[i].AvgWork > classes[i-1].AvgWork+1e-12 {
			return fmt.Errorf("%w: at index %d", ErrUnsorted, i)
		}
	}
	r, k := len(ladder), len(classes)
	t.Classes = append(t.Classes[:0], classes...)
	t.Ladder, t.T = ladder, T
	t.cc = slices.Grow(t.cc[:0], r*k)[:r*k]
	t.CC = slices.Grow(t.CC[:0], r)[:r]
	for j := 0; j < r; j++ {
		t.CC[j] = t.cc[j*k : (j+1)*k : (j+1)*k]
		ratio := ladder.Ratio(j) // F0/Fj
		for i := 0; i < k; i++ {
			frac := scale(&classes[i], ratio) * classes[i].TotalWork() / T
			cc := int(math.Ceil(frac - 1e-9)) // tolerance for exact-integer fracs
			if cc < 1 {
				cc = 1 // a class with any work needs at least one core
			}
			t.CC[j][i] = cc
		}
	}
	return nil
}

// scale is how much longer a task of class c takes at a level with
// ladder ratio F0/Fj than at F0: its frequency-sensitive share
// stretches by the ratio, its MemFrac share does not. At MemFrac 0 it
// is ratio exactly, since ratio−1 and 1+(ratio−1) are exact in float64
// for ratio ≥ 1.
func scale(c *profile.Class, ratio float64) float64 {
	return 1 + (1-c.MemFrac)*(ratio-1)
}

// RebuildGranular is Rebuild with a task-indivisibility refinement.
// The paper's entry ceil((F0/Fj)·n·w/T) is the divisible-load
// approximation: it assumes a class's aggregate work can be sliced
// arbitrarily across cores. Real tasks are indivisible, so a core can
// complete at most floor(T / (w·F0/Fj)) tasks of average size w within
// T, and class i therefore needs
//
//	CC[j][i] = ceil( n_i / floor(T / (w_i·F0/Fj)) )
//
// cores at level j. When even a single task does not fit within T at
// level j (floor = 0), the level is unusable for the class and the
// entry is set to m·r+1 sentinel-large so no search selects it. The two
// formulas agree when n_i ≫ CC (fine-grained classes) and diverge for
// chunky classes — exactly the regime where the divisible formula
// produces schedules that overrun T (Fig. 1(c) territory). EEWA uses
// this variant by default; the ablation bench quantifies the gap.
//
// maxCores caps the sentinel (pass the machine's core count m).
func (t *Table) RebuildGranular(classes []profile.Class, ladder machine.FreqLadder, T float64, maxCores int) error {
	if err := t.Rebuild(classes, ladder, T); err != nil {
		return err
	}
	if maxCores <= 0 {
		return fmt.Errorf("%w: got %d", ErrMaxCores, maxCores)
	}
	sentinel := maxCores*len(ladder) + 1
	for j := 0; j < t.R(); j++ {
		ratio := ladder.Ratio(j)
		for i := 0; i < t.K(); i++ {
			c := &t.Classes[i]
			s := scale(c, ratio)
			// Capacity per core within T, from the average task size.
			perTask := c.AvgWork * s
			rounds := int(math.Floor(T/perTask + 1e-9))
			// A level is unusable when even the class's largest observed
			// task would overrun T there (MaxWork 0 = unknown, fall back
			// to the average).
			biggest := c.MaxWork
			if biggest <= 0 {
				biggest = c.AvgWork
			}
			if rounds <= 0 || biggest*s > T*(1+1e-9) {
				t.CC[j][i] = sentinel
				continue
			}
			granular := (c.Count + rounds - 1) / rounds // ceil(n/rounds)
			if granular > t.CC[j][i] {
				t.CC[j][i] = granular
			}
		}
	}
	return nil
}

// FromCounts builds a Table directly from integer core counts: the
// paper's Fig. 3 example, where the CC matrix is given rather than
// derived.
func FromCounts(cc [][]int, ladder machine.FreqLadder) (*Table, error) {
	if err := ladder.Validate(); err != nil {
		return nil, err
	}
	if len(cc) != len(ladder) {
		return nil, fmt.Errorf("cctable: %d rows for %d frequency levels", len(cc), len(ladder))
	}
	k := len(cc[0])
	if k == 0 {
		return nil, fmt.Errorf("cctable: empty rows")
	}
	t := &Table{CC: make([][]int, len(cc)), Ladder: ladder, T: 1}
	for j := range cc {
		if len(cc[j]) != k {
			return nil, fmt.Errorf("cctable: ragged row %d", j)
		}
		t.CC[j] = append([]int(nil), cc[j]...)
		for i, v := range cc[j] {
			if v < 1 {
				return nil, fmt.Errorf("cctable: entry [%d][%d] = %d < 1", j, i, v)
			}
		}
	}
	t.Classes = make([]profile.Class, k)
	for i := range t.Classes {
		t.Classes[i] = profile.Class{Name: fmt.Sprintf("TC%d", i), Count: 1, AvgWork: float64(k - i)}
	}
	return t, nil
}

// K returns the number of task classes (columns).
func (t *Table) K() int { return len(t.Classes) }

// R returns the number of frequency levels (rows).
func (t *Table) R() int { return len(t.Ladder) }

// CoresNeeded returns Σ CC[a_i][i] for a tuple.
func (t *Table) CoresNeeded(tuple []int) int {
	sum := 0
	for i, a := range tuple {
		sum += t.CC[a][i]
	}
	return sum
}

// ValidTuple reports whether tuple satisfies all three constraints for
// a machine with m cores.
func (t *Table) ValidTuple(tuple []int, m int) bool {
	if len(tuple) != t.K() {
		return false
	}
	prev := 0
	for _, a := range tuple {
		if a < 0 || a >= t.R() || a < prev {
			return false
		}
		prev = a
	}
	return t.CoresNeeded(tuple) <= m
}

// SearchTuple is the paper's Algorithm 1: a depth-first backtracking
// search that, for each class from heaviest to lightest, tries the
// lowest frequencies first (j from r-1 down to a[i-1]) and accepts the
// first complete assignment that fits within m cores. It returns the
// tuple and true on success; on failure (even running every class at F0
// cannot fit m cores within T) it returns the all-F0 tuple and false —
// the adjuster's documented fallback.
//
// The tuple is the table's own (valid until the table's next
// SearchTuple or Rebuild) and the recursion is a method, so a search
// allocates nothing once the table has searched a k this large.
func (t *Table) SearchTuple(m int) ([]int, bool) {
	k := t.K()
	t.tuple = slices.Grow(t.tuple[:0], k)[:k]
	t.LastSearchSteps = 0
	if t.search(0, 0, m) {
		return t.tuple, true
	}
	clear(t.tuple)
	return t.tuple, false
}

// search extends the partial tuple t.tuple[:i], which needs cn cores
// (the paper's c_n), to a complete one within m cores.
func (t *Table) search(i, cn, m int) bool {
	if i >= t.K() {
		return true
	}
	lo := 0
	if i > 0 {
		lo = t.tuple[i-1] // constraint 3: a_i ≥ a_{i-1} in row index
	}
	for j := t.R() - 1; j >= lo; j-- {
		t.LastSearchSteps++
		if t.CC[j][i]+cn <= m { // Select(i, j)
			t.tuple[i] = j
			if t.search(i+1, cn+t.CC[j][i], m) {
				return true
			}
		}
	}
	return false
}

// EnergyScore estimates the relative energy of running one iteration
// under a tuple: each class's c-group of CC[a_i][i] cores runs busy for
// ~T at frequency a_i, so the score is Σ CC[a_i][i] · P_active(a_i).
// Lower is better. The score is the objective ExhaustiveSearch
// minimizes and the yardstick the ablation bench uses for Algorithm 1.
func (t *Table) EnergyScore(tuple []int, pm machine.PowerModel) float64 {
	s := 0.0
	for i, a := range tuple {
		// Best-case (package-aligned) active power at level a.
		s += float64(t.CC[a][i]) * pm.CorePower(machine.Busy, a, a, t.Ladder)
	}
	return s
}

// ExhaustiveSearch enumerates every monotone tuple that fits within m
// cores and returns the one with the minimum EnergyScore. It is
// exponential in k (r^k tuples before pruning) and exists purely as the
// optimality reference for small instances; the adjuster never calls
// it. Returns false (and the all-F0 tuple) when no tuple fits.
func (t *Table) ExhaustiveSearch(m int, pm machine.PowerModel) ([]int, bool) {
	k, r := t.K(), t.R()
	cur := make([]int, k)
	best := make([]int, k)
	bestScore := math.Inf(1)
	found := false
	cn := 0

	var walk func(i int)
	walk = func(i int) {
		if i >= k {
			if score := t.EnergyScore(cur, pm); score < bestScore {
				bestScore = score
				copy(best, cur)
				found = true
			}
			return
		}
		lo := 0
		if i > 0 {
			lo = cur[i-1]
		}
		for j := lo; j < r; j++ {
			need := t.CC[j][i]
			if cn+need > m {
				continue
			}
			cur[i] = j
			cn += need
			walk(i + 1)
			cn -= need
		}
	}
	walk(0)
	if !found {
		return make([]int, k), false
	}
	return best, true
}

// GreedySearch assigns each class, heaviest first, the slowest
// frequency whose core cost still leaves enough budget (a single
// non-backtracking pass). It can fail where Algorithm 1 succeeds; the
// ablation bench quantifies how often. Returns the all-F0 tuple and
// false on failure.
func (t *Table) GreedySearch(m int) ([]int, bool) {
	k, r := t.K(), t.R()
	a := make([]int, k)
	cn := 0
	lo := 0
	for i := 0; i < k; i++ {
		placed := false
		for j := r - 1; j >= lo; j-- {
			// Reserve at least one F0-equivalent core per remaining class
			// so the pass doesn't strand the tail.
			reserve := 0
			for rest := i + 1; rest < k; rest++ {
				reserve += t.CC[0][rest]
			}
			if cn+t.CC[j][i]+reserve <= m {
				a[i] = j
				cn += t.CC[j][i]
				lo = j
				placed = true
				break
			}
		}
		if !placed {
			return make([]int, k), false
		}
	}
	return a, true
}

// String renders the table in the layout of the paper's Table I, as
// the Fig. 3 experiment prints it.
func (t *Table) String() string {
	out := "      "
	for i := range t.Classes {
		out += fmt.Sprintf("%8s", t.Classes[i].Name)
	}
	out += "\n"
	for j := 0; j < t.R(); j++ {
		out += fmt.Sprintf("F%d=%.1f", j, t.Ladder[j])
		for i := 0; i < t.K(); i++ {
			out += fmt.Sprintf("%8d", t.CC[j][i])
		}
		out += "\n"
	}
	return out
}
