package cctable

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/xrand"
)

var ladder4 = machine.FreqLadder{2.5, 1.8, 1.3, 0.8}

// fig3Table is the exact CC matrix from the paper's Fig. 3: 4 task
// classes, 4 frequencies, 16 cores.
func fig3Table(t *testing.T) *Table {
	t.Helper()
	tab, err := FromCounts([][]int{
		{2, 3, 1, 1},
		{4, 6, 2, 2},
		{6, 9, 3, 3},
		{8, 12, 4, 4},
	}, ladder4)
	if err != nil {
		t.Fatalf("FromCounts: %v", err)
	}
	return tab
}

// TestFig3KTuple reproduces the paper's worked example: Algorithm 1 on
// the Fig. 3 table with 16 cores must select the k-tuple (1, 1, 2, 2) —
// 10 cores at F1 and 6 cores at F2.
func TestFig3KTuple(t *testing.T) {
	tab := fig3Table(t)
	tuple, ok := tab.SearchTuple(16)
	if !ok {
		t.Fatal("SearchTuple failed on the Fig. 3 instance")
	}
	want := []int{1, 1, 2, 2}
	for i := range want {
		if tuple[i] != want[i] {
			t.Fatalf("tuple = %v, want %v (paper Fig. 3)", tuple, want)
		}
	}
	if got := tab.CoresNeeded(tuple); got != 16 {
		t.Errorf("cores needed = %d, want 16 (4+6+3+3)", got)
	}
}

func TestFig3TupleIsValid(t *testing.T) {
	tab := fig3Table(t)
	tuple, _ := tab.SearchTuple(16)
	if !tab.ValidTuple(tuple, 16) {
		t.Error("Fig. 3 tuple fails ValidTuple")
	}
}

// TestValidTuple pins both of Algorithm 1's constraints as ValidTuple
// enforces them for cgroup.Assignment.Rebuild: the search's own tuple
// passes, and a tuple that breaks monotonicity, the class count, the
// ladder or the core budget is rejected.
func TestValidTuple(t *testing.T) {
	tab, err := Build([]profile.Class{
		{Name: "a", Count: 8, AvgWork: 0.5},
		{Name: "b", Count: 8, AvgWork: 0.25},
	}, machine.FreqLadder{3.0, 2.0, 1.0}, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	found, ok := tab.SearchTuple(8)
	if !ok {
		t.Fatal("no tuple for a feasible instance")
	}
	for _, tc := range []struct {
		name  string
		tuple []int
		m     int
		want  bool
	}{
		{"algorithm-1", found, 8, true},
		{"non-monotone", []int{2, 0}, 8, false},
		{"short", []int{0}, 8, false},
		{"out-of-ladder", []int{0, 5}, 8, false},
		{"over-budget", found, 1, false},
	} {
		if got := tab.ValidTuple(tc.tuple, tc.m); got != tc.want {
			t.Errorf("%s: ValidTuple(%v, %d) = %v, want %v", tc.name, tc.tuple, tc.m, got, tc.want)
		}
	}
}

func TestSearchTupleAllFastWhenTight(t *testing.T) {
	// Classes so heavy that only F0 fits.
	tab, err := FromCounts([][]int{
		{8, 8},
		{20, 20},
	}, machine.FreqLadder{2.0, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	tuple, ok := tab.SearchTuple(16)
	if !ok {
		t.Fatal("a feasible all-F0 assignment exists; search must find it")
	}
	if tuple[0] != 0 || tuple[1] != 0 {
		t.Errorf("tuple = %v, want [0 0]", tuple)
	}
}

func TestSearchTupleInfeasibleFallsBackToF0(t *testing.T) {
	tab, err := FromCounts([][]int{
		{10, 10},
		{30, 30},
	}, machine.FreqLadder{2.0, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	tuple, ok := tab.SearchTuple(16) // 10+10 = 20 > 16: nothing fits
	if ok {
		t.Error("infeasible instance reported success")
	}
	for i, a := range tuple {
		if a != 0 {
			t.Errorf("fallback tuple[%d] = %d, want 0 (all-F0)", i, a)
		}
	}
}

func TestSearchPrefersSlowWhenAbundant(t *testing.T) {
	// One tiny class on a big machine: slowest frequency should win.
	tab, err := FromCounts([][]int{
		{1},
		{2},
		{3},
		{4},
	}, ladder4)
	if err != nil {
		t.Fatal(err)
	}
	tuple, ok := tab.SearchTuple(16)
	if !ok || tuple[0] != 3 {
		t.Errorf("tuple = %v ok=%v, want [3] true — slowest level when cores abound", tuple, ok)
	}
}

func TestBuildFromProfileClasses(t *testing.T) {
	classes := []profile.Class{
		{Name: "heavy", Count: 16, AvgWork: 0.5},      // 8 s total
		{Name: "light", Count: 112, AvgWork: 0.03125}, // 3.5 s total
	}
	tab, err := Build(classes, ladder4, 1.0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if tab.K() != 2 || tab.R() != 4 {
		t.Fatalf("table is %d×%d, want 4×2", tab.R(), tab.K())
	}
	// CC[0][0] = ceil(8/1) = 8; CC[0][1] = ceil(3.5) = 4.
	if tab.CC[0][0] != 8 {
		t.Errorf("CC[0][0] = %d, want 8", tab.CC[0][0])
	}
	if tab.CC[0][1] != 4 {
		t.Errorf("CC[0][1] = %d, want 4", tab.CC[0][1])
	}
	// CC[3][0] = ceil(2.5/0.8 · 8) = ceil(25) = 25.
	if tab.CC[3][0] != 25 {
		t.Errorf("CC[3][0] = %d, want 25", tab.CC[3][0])
	}
}

func TestBuildCeilMinimumOne(t *testing.T) {
	classes := []profile.Class{{Name: "tiny", Count: 1, AvgWork: 1e-6}}
	tab, err := Build(classes, ladder4, 100)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < tab.R(); j++ {
		if tab.CC[j][0] != 1 {
			t.Errorf("CC[%d][0] = %d, want 1 (any class needs a core)", j, tab.CC[j][0])
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	good := []profile.Class{{Name: "a", Count: 1, AvgWork: 1}}
	cases := []struct {
		name    string
		classes []profile.Class
		ladder  machine.FreqLadder
		T       float64
		want    error
	}{
		{"no classes", nil, ladder4, 1, ErrNoClasses},
		{"zero T", good, ladder4, 0, ErrIdealTime},
		{"negative T", good, ladder4, -3, ErrIdealTime},
		{"NaN T", good, ladder4, math.NaN(), ErrIdealTime},
		{"Inf T", good, ladder4, math.Inf(1), ErrIdealTime},
		{"zero count", []profile.Class{{Name: "a", Count: 0, AvgWork: 1}}, ladder4, 1, ErrClassWeight},
		{"zero weight", []profile.Class{{Name: "a", Count: 4, AvgWork: 0}}, ladder4, 1, ErrClassWeight},
		{"NaN weight", []profile.Class{{Name: "a", Count: 4, AvgWork: math.NaN()}}, ladder4, 1, ErrClassWeight},
		{"Inf weight", []profile.Class{{Name: "a", Count: 4, AvgWork: math.Inf(1)}}, ladder4, 1, ErrClassWeight},
		{"NaN mem frac", []profile.Class{{Name: "a", Count: 4, AvgWork: 1, MemFrac: math.NaN()}}, ladder4, 1, ErrClassWeight},
		{"negative mem frac", []profile.Class{{Name: "a", Count: 4, AvgWork: 1, MemFrac: -0.1}}, ladder4, 1, ErrClassWeight},
		{"mem frac above one", []profile.Class{{Name: "a", Count: 4, AvgWork: 1, MemFrac: 1.5}}, ladder4, 1, ErrClassWeight},
		{"unsorted", []profile.Class{
			{Name: "a", Count: 1, AvgWork: 1},
			{Name: "b", Count: 1, AvgWork: 2},
		}, ladder4, 1, ErrUnsorted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Build(tc.classes, tc.ladder, tc.T)
			if !errors.Is(err, tc.want) {
				t.Errorf("Build error = %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
	if _, err := Build(good, machine.FreqLadder{}, 1); err == nil {
		t.Error("bad ladder should error")
	}
	// A degenerate class must fail BuildGranular identically (it
	// delegates validation to Build, so perTask is always positive and
	// the T/perTask division below can never produce NaN or Inf).
	zero := []profile.Class{{Name: "a", Count: 3, AvgWork: 0}}
	if _, err := BuildGranular(zero, ladder4, 1, 16); !errors.Is(err, ErrClassWeight) {
		t.Errorf("BuildGranular(zero-weight) error = %v, want ErrClassWeight", err)
	}
	if _, err := BuildGranular(good, ladder4, 1, 0); !errors.Is(err, ErrMaxCores) {
		t.Errorf("BuildGranular(maxCores=0) error = %v, want ErrMaxCores", err)
	}
}

func TestFromCountsRejectsBadInput(t *testing.T) {
	if _, err := FromCounts([][]int{{1}}, ladder4); err == nil {
		t.Error("row count mismatch should error")
	}
	if _, err := FromCounts([][]int{{1, 2}, {1}}, machine.FreqLadder{2, 1}); err == nil {
		t.Error("ragged rows should error")
	}
	if _, err := FromCounts([][]int{{0}, {1}}, machine.FreqLadder{2, 1}); err == nil {
		t.Error("zero entry should error")
	}
	if _, err := FromCounts([][]int{{}, {}}, machine.FreqLadder{2, 1}); err == nil {
		t.Error("empty rows should error")
	}
}

func TestExhaustiveMatchesFig3Budget(t *testing.T) {
	tab := fig3Table(t)
	pm := machine.Opteron16().Power
	tuple, ok := tab.ExhaustiveSearch(16, pm)
	if !ok {
		t.Fatal("exhaustive search failed on feasible instance")
	}
	if !tab.ValidTuple(tuple, 16) {
		t.Errorf("exhaustive tuple %v invalid", tuple)
	}
	// The optimum can differ from Algorithm 1's pick but never costs more.
	bt, _ := tab.SearchTuple(16)
	if tab.EnergyScore(tuple, pm) > tab.EnergyScore(bt, pm)+1e-9 {
		t.Errorf("exhaustive score %g exceeds backtracking score %g",
			tab.EnergyScore(tuple, pm), tab.EnergyScore(bt, pm))
	}
}

func TestGreedyOnFig3(t *testing.T) {
	tab := fig3Table(t)
	tuple, ok := tab.GreedySearch(16)
	if ok && !tab.ValidTuple(tuple, 16) {
		t.Errorf("greedy returned invalid tuple %v", tuple)
	}
}

func TestStringRendering(t *testing.T) {
	tab := fig3Table(t)
	s := tab.String()
	if s == "" {
		t.Fatal("empty rendering")
	}
	// Must mention every frequency row.
	for _, want := range []string{"F0=2.5", "F3=0.8"} {
		if !contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || index(s, sub) >= 0)
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// randomTable builds a random feasible-or-not CC table for property
// tests.
func randomTable(rng *xrand.RNG) *Table {
	k := rng.Intn(5) + 1
	classes := make([]profile.Class, k)
	work := 10.0
	for i := 0; i < k; i++ {
		classes[i] = profile.Class{
			Name:    string(rune('a' + i)),
			Count:   rng.Intn(50) + 1,
			AvgWork: work,
		}
		work *= rng.Range(0.3, 1.0) // keep descending
	}
	tab, err := Build(classes, ladder4, rng.Range(5, 500))
	if err != nil {
		panic(err)
	}
	return tab
}

// Property: whenever SearchTuple succeeds, the tuple satisfies all
// three constraints; whenever it fails, ExhaustiveSearch also finds
// nothing (Algorithm 1 is a complete search).
func TestSearchTupleSoundAndCompleteProperty(t *testing.T) {
	pm := machine.Opteron16().Power
	f := func(seed uint64, mRaw uint8) bool {
		rng := xrand.New(seed)
		tab := randomTable(rng)
		m := int(mRaw%64) + 1
		tuple, ok := tab.SearchTuple(m)
		exTuple, exOK := tab.ExhaustiveSearch(m, pm)
		if ok != exOK {
			return false // completeness violated
		}
		if ok {
			if !tab.ValidTuple(tuple, m) {
				return false // soundness violated
			}
			// Exhaustive is the optimum.
			if tab.EnergyScore(exTuple, pm) > tab.EnergyScore(tuple, pm)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: greedy success implies a valid tuple, and greedy success
// implies backtracking success (greedy is strictly weaker).
func TestGreedyWeakerProperty(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		rng := xrand.New(seed)
		tab := randomTable(rng)
		m := int(mRaw%64) + 1
		g, gok := tab.GreedySearch(m)
		bt, btok := tab.SearchTuple(m)
		_ = bt
		if gok && !tab.ValidTuple(g, m) {
			return false
		}
		if gok && !btok {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: CC entries grow monotonically down the ladder (slower
// frequency needs at least as many cores).
func TestCCMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		tab := randomTable(xrand.New(seed))
		for i := 0; i < tab.K(); i++ {
			for j := 1; j < tab.R(); j++ {
				if tab.CC[j][i] < tab.CC[j-1][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: at MemFrac 0 the one builder is the paper's formula — both
// CC variants equal the entries the code before MemFrac computed from
// ratio·n·w/T.
func TestMemFracZeroIsPaperFormula(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		rng := xrand.New(seed)
		k, m := rng.Intn(5)+1, int(mRaw%64)+1
		lad := machine.FreqLadder{rng.Range(2, 4)}
		for len(lad) < 2+rng.Intn(5) {
			lad = append(lad, lad[len(lad)-1]*rng.Range(0.4, 0.95))
		}
		classes := make([]profile.Class, k)
		work := rng.Range(1e-4, 1)
		for i := range classes {
			avg := work
			classes[i] = profile.Class{Name: string(rune('a' + i)), Count: rng.Intn(200) + 1, AvgWork: avg, MaxWork: avg * rng.Range(1, 3)}
			work *= rng.Range(0.3, 1.0)
		}
		T := rng.Range(1e-3, 5)
		var div, gran Table
		if div.Rebuild(classes, lad, T) != nil || gran.RebuildGranular(classes, lad, T, m) != nil {
			return false
		}
		for j := range lad {
			ratio := lad.Ratio(j)
			for i, c := range classes {
				frac := ratio * c.TotalWork() / T
				cc := max(int(math.Ceil(frac-1e-9)), 1)
				if div.CC[j][i] != cc {
					return false
				}
				rounds := int(math.Floor(T/(c.AvgWork*ratio) + 1e-9))
				switch {
				case rounds <= 0 || c.MaxWork*ratio > T*(1+1e-9):
					cc = m*len(lad) + 1
				default:
					cc = max(cc, (c.Count+rounds-1)/rounds)
				}
				if gran.CC[j][i] != cc {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// BenchmarkSearchScaling probes the paper's O(k·r²) worst-case claim
// for Algorithm 1 across class counts and ladder depths.
func BenchmarkSearchScaling(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		for _, r := range []int{2, 4, 8} {
			name := fmt.Sprintf("k=%d,r=%d", k, r)
			b.Run(name, func(b *testing.B) {
				freqs := make(machine.FreqLadder, r)
				for j := range freqs {
					freqs[j] = 3.0 - float64(j)*(2.0/float64(r))
				}
				classes := make([]profile.Class, k)
				w := 1.0
				for i := range classes {
					classes[i] = profile.Class{Name: fmt.Sprintf("c%d", i), Count: 20, AvgWork: w}
					w *= 0.7
				}
				tab, err := Build(classes, freqs, 8.0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tab.SearchTuple(64)
				}
			})
		}
	}
}
