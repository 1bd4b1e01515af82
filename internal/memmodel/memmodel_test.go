package memmodel

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cctable"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/xrand"
)

var ladder = machine.FreqLadder{2.5, 1.8, 1.3, 0.8}

// recordAt feeds the profiler n tasks of class name whose true
// frequency response is t(ratio) = a + b·ratio, observed at level.
func recordAt(p *profile.Profiler, name string, n int, a, b float64, level int) {
	ratio := ladder.Ratio(level)
	for i := 0; i < n; i++ {
		p.Ref(name).Record(a+b*ratio, level, 0.5)
	}
}

// fitted returns the profiler's classes as FitAll fits them, failing
// the test when a class lacks a second level.
func fitted(t *testing.T, p *profile.Profiler) []profile.Class {
	t.Helper()
	classes, ok := FitAll(p, p.Classes(), ladder)
	if !ok {
		t.Fatal("FitAll failed")
	}
	return classes
}

func TestFitExactTwoPoints(t *testing.T) {
	p := profile.New(ladder)
	a, b := 0.006, 0.004
	recordAt(p, "c", 10, a, b, 0)
	recordAt(p, "c", 10, a, b, 2)
	m, ok := Fit(p, "c", ladder)
	if !ok {
		t.Fatal("fit failed with two levels")
	}
	if math.Abs(m.A-a) > 1e-12 || math.Abs(m.B-b) > 1e-12 {
		t.Errorf("fit = (%g, %g), want (%g, %g)", m.A, m.B, a, b)
	}
	// Extrapolation to an unseen level must be exact for linear truth.
	want := a + b*ladder.Ratio(3)
	if got := m.A + m.B*ladder.Ratio(3); math.Abs(got-want) > 1e-12 {
		t.Errorf("t(F3) = %g, want %g", got, want)
	}
}

func TestFitNeedsTwoLevels(t *testing.T) {
	p := profile.New(ladder)
	recordAt(p, "c", 10, 0.01, 0.01, 0)
	if _, ok := Fit(p, "c", ladder); ok {
		t.Error("fit must fail with a single frequency level")
	}
	if _, ok := Fit(p, "ghost", ladder); ok {
		t.Error("fit must fail for unseen classes")
	}
}

func TestFitClampsNegativeComponents(t *testing.T) {
	p := profile.New(ladder)
	// Pure CPU-bound class (a = 0): jitter-free samples.
	recordAt(p, "cpu", 5, 0, 0.01, 0)
	recordAt(p, "cpu", 5, 0, 0.01, 3)
	// Pure memory-bound class (b = 0).
	recordAt(p, "mem", 5, 0.02, 0, 0)
	recordAt(p, "mem", 5, 0.02, 0, 3)
	for _, name := range []string{"cpu", "mem"} {
		m, ok := Fit(p, name, ladder)
		if !ok {
			t.Fatalf("%s: fit failed", name)
		}
		if m.A < 0 || m.B < 0 {
			t.Errorf("%s: components must be non-negative: (%g, %g)", name, m.A, m.B)
		}
	}
	for _, c := range fitted(t, p) {
		want := map[string]float64{"cpu": 0, "mem": 1}[c.Name]
		if math.Abs(c.MemFrac-want) > 1e-9 {
			t.Errorf("%s: MemFrac = %g, want %g", c.Name, c.MemFrac, want)
		}
	}
}

func TestFitAll(t *testing.T) {
	p := profile.New(ladder)
	recordAt(p, "x", 8, 0.01, 0.02, 0)
	recordAt(p, "x", 8, 0.01, 0.02, 2)
	recordAt(p, "y", 16, 0.002, 0.001, 0)
	recordAt(p, "y", 16, 0.002, 0.001, 2)
	classes := fitted(t, p)
	if len(classes) != 2 {
		t.Fatalf("got %d classes, want 2", len(classes))
	}
	for _, c := range classes {
		if c.Count == 0 {
			t.Errorf("class %s has zero count", c.Name)
		}
		if c.MaxWork < c.AvgWork {
			t.Errorf("class %s MaxWork %g < AvgWork %g", c.Name, c.MaxWork, c.AvgWork)
		}
	}
	// x: a+b = 0.03, a share of 1/3.
	if x := classes[0]; x.Name != "x" || math.Abs(x.AvgWork-0.03) > 1e-12 || math.Abs(x.MemFrac-1.0/3) > 1e-9 {
		t.Errorf("fitted x = %+v, want AvgWork 0.03, MemFrac 1/3", x)
	}
	// One class short of samples fails the whole fit.
	recordAt(p, "z", 4, 0.01, 0.01, 0)
	if _, ok := FitAll(p, p.Classes(), ladder); ok {
		t.Error("FitAll must fail when any class lacks a second level")
	}
}

func TestBuildTableMemoryAware(t *testing.T) {
	// A memory-bound class: a = 0.7·t0. At F3 (ratio 3.125), the
	// CPU-bound model predicts t·3.125 but the true time is only
	// t·(0.7 + 0.3·3.125) = 1.64·t — the fitted class's table must
	// demand correspondingly fewer cores.
	t0 := 0.01
	p := profile.New(ladder)
	recordAt(p, "m", 50, 0.7*t0, 0.3*t0, 0)
	recordAt(p, "m", 50, 0.7*t0, 0.3*t0, 2)
	T := 0.1
	tab := new(cctable.Table)
	if err := tab.RebuildGranular(fitted(t, p), ladder, T, 16); err != nil {
		t.Fatal(err)
	}
	// CC at F0: ceil(100·0.01/0.1) = 10.
	if tab.CC[0][0] != 10 {
		t.Errorf("CC[0][0] = %d, want 10", tab.CC[0][0])
	}
	// CC at F3 with the true response: ceil(100·0.016375/0.1) = 17,
	// versus 32 under the naive CPU-bound scaling.
	wantT := 0.7*t0 + 0.3*t0*ladder.Ratio(3)
	wantCC := int(math.Ceil(100 * wantT / T))
	if tab.CC[3][0] != wantCC {
		t.Errorf("CC[3][0] = %d, want %d (model-corrected)", tab.CC[3][0], wantCC)
	}
	naive := int(math.Ceil(100 * t0 * ladder.Ratio(3) / T))
	if tab.CC[3][0] >= naive {
		t.Errorf("model-corrected count %d should undercut naive %d", tab.CC[3][0], naive)
	}
}

func TestBuildTableGranularityBar(t *testing.T) {
	// Single chunky CPU-bound task per batch whose F3 time exceeds T:
	// level 3 must be barred (sentinel > maxCores).
	p := profile.New(ladder)
	recordAt(p, "m", 1, 0, 0.05, 0)
	recordAt(p, "m", 1, 0, 0.05, 3)
	p.Reset()
	recordAt(p, "m", 1, 0, 0.05, 0) // this batch: one task
	tab := new(cctable.Table)
	if err := tab.RebuildGranular(fitted(t, p), ladder, 0.06, 16); err != nil {
		t.Fatal(err)
	}
	if tab.CC[0][0] != 1 {
		t.Errorf("CC[0][0] = %d, want 1", tab.CC[0][0])
	}
	if tab.CC[3][0] <= 16 {
		t.Errorf("CC[3][0] = %d, want sentinel (task cannot fit at F3)", tab.CC[3][0])
	}
}

func TestBuildTableErrors(t *testing.T) {
	p := profile.New(ladder)
	// Eq. 1 normalizes a memory-bound class's slow-level samples as if
	// they scaled with F0/Fj, so the profiler ranks "big" (sampled only
	// at F3 this batch) below "small" (sampled only at F0); the fitted
	// F0 times rank them the other way. FitAll must re-sort, or the
	// builder would reject the columns as unsorted.
	recordAt(p, "big", 4, 0.009, 0.001, 0)
	recordAt(p, "small", 4, 0.0045, 0.0005, 3)
	p.Reset()
	recordAt(p, "big", 4, 0.009, 0.001, 3)
	recordAt(p, "small", 4, 0.0045, 0.0005, 0)
	if got := p.Classes(); got[0].Name != "small" {
		t.Fatalf("profiler order %v, want the normalized view to rank small first", got)
	}
	classes := fitted(t, p)
	if classes[0].Name != "big" {
		t.Errorf("FitAll order %v, want big first", classes)
	}
	if err := new(cctable.Table).RebuildGranular(classes, ladder, 1, 16); err != nil {
		t.Errorf("fitted classes rejected: %v", err)
	}
	if err := new(cctable.Table).RebuildGranular(classes, ladder, 0, 16); !errors.Is(err, cctable.ErrIdealTime) {
		t.Errorf("zero T: error %v, want ErrIdealTime", err)
	}
	if err := new(cctable.Table).RebuildGranular(classes, ladder, 1, 0); !errors.Is(err, cctable.ErrMaxCores) {
		t.Errorf("zero cores: error %v, want ErrMaxCores", err)
	}
	if _, ok := FitAll(profile.New(ladder), []profile.Class{{Name: "ghost", Count: 1, AvgWork: 1}}, ladder); ok {
		t.Error("an unsampled class must fail the fit")
	}
}

// Property: for any (a, b) ≥ 0 and any pair of distinct levels, Fit
// recovers the coefficients and table entries are monotone down the
// ladder.
func TestFitRecoveryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		a := rng.Range(0, 0.02)
		b := rng.Range(0.001, 0.02)
		l1 := rng.Intn(len(ladder))
		l2 := rng.Intn(len(ladder))
		if l1 == l2 {
			l2 = (l1 + 1) % len(ladder)
		}
		p := profile.New(ladder)
		recordAt(p, "c", 25, a, b, l1)
		recordAt(p, "c", 25, a, b, l2)
		m, ok := Fit(p, "c", ladder)
		if !ok {
			return false
		}
		if math.Abs(m.A-a) > 1e-9 || math.Abs(m.B-b) > 1e-9 {
			return false
		}
		classes, ok := FitAll(p, p.Classes(), ladder)
		if !ok {
			return false
		}
		tab := new(cctable.Table)
		if err := tab.RebuildGranular(classes, ladder, 1.0, 64); err != nil {
			return false
		}
		for j := 1; j < len(ladder); j++ {
			if tab.CC[j][0] < tab.CC[j-1][0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- the builder against the code it replaced -----------------------------

// refModel is the per-class model the memory-aware planner carried
// before fitted classes became profile.Classes with a MemFrac.
type refModel struct {
	Name     string
	A, B     float64
	Count    int
	MaxRatio float64
}

func (m refModel) TimeAt(ratio float64) float64 { return m.A + m.B*ratio }

// refFitAll is the replaced FitAll followed by the replaced planner's
// sort: per-class models with per-batch counts and max/avg inflation,
// descending F0 time.
func refFitAll(p *profile.Profiler, classes []profile.Class, ladder machine.FreqLadder) ([]refModel, bool) {
	out := make([]refModel, 0, len(classes))
	for _, c := range classes {
		fm, ok := Fit(p, c.Name, ladder)
		if !ok {
			return nil, false
		}
		m := refModel{Name: fm.Name, A: fm.A, B: fm.B, Count: c.Count, MaxRatio: 1}
		if c.AvgWork > 0 && c.MaxWork > c.AvgWork {
			m.MaxRatio = c.MaxWork / c.AvgWork
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TimeAt(1) > out[j].TimeAt(1) })
	return out, true
}

// refBuildTable is the replaced memmodel.BuildTable, verbatim but for
// the model type's name.
func refBuildTable(models []refModel, ladder machine.FreqLadder, T float64, maxCores int) (*cctable.Table, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("memmodel: no models")
	}
	if T <= 0 || math.IsNaN(T) || math.IsInf(T, 0) {
		return nil, fmt.Errorf("memmodel: invalid ideal time %g", T)
	}
	if maxCores <= 0 {
		return nil, fmt.Errorf("memmodel: invalid core count %d", maxCores)
	}
	// Express the models as pseudo-classes so the table carries the
	// usual metadata (sorted by descending F0 workload).
	classes := make([]profile.Class, len(models))
	for i, m := range models {
		classes[i] = profile.Class{
			Name:    m.Name,
			Count:   m.Count,
			AvgWork: m.TimeAt(1),
			MaxWork: m.TimeAt(1) * m.MaxRatio,
		}
	}
	for i := 1; i < len(classes); i++ {
		if classes[i].AvgWork > classes[i-1].AvgWork {
			return nil, fmt.Errorf("memmodel: models not sorted by descending F0 time at %d", i)
		}
	}
	r, k := len(ladder), len(models)
	t := &cctable.Table{
		CC:      make([][]int, r),
		Frac:    make([][]float64, r),
		Classes: classes,
		Ladder:  ladder,
		T:       T,
	}
	sentinel := maxCores*r + 1
	for j := 0; j < r; j++ {
		t.CC[j] = make([]int, k)
		t.Frac[j] = make([]float64, k)
		ratio := ladder.Ratio(j)
		for i, m := range models {
			perTask := m.TimeAt(ratio)
			frac := float64(m.Count) * perTask / T
			t.Frac[j][i] = frac
			rounds := int(math.Floor(T/perTask + 1e-9))
			biggest := perTask * m.MaxRatio
			if rounds <= 0 || biggest > T*(1+1e-9) {
				t.CC[j][i] = sentinel
				continue
			}
			cc := int(math.Ceil(frac - 1e-9))
			granular := (m.Count + rounds - 1) / rounds
			if granular > cc {
				cc = granular
			}
			if cc < 1 {
				cc = 1
			}
			t.CC[j][i] = cc
		}
	}
	return t, nil
}

// The unified path (FitAll → cctable.Table.RebuildGranular) reproduces the
// replaced one (fit → models → BuildTable) on random profiles: 1–3
// classes of random memory share (a, b), per-batch count, max/avg
// inflation and sampled level pair, random T and core budget. CC must
// match entry for entry; Frac differs only by float reassociation.
func TestBuilderMatchesReplacedBuildTable(t *testing.T) {
	rng := xrand.New(0x25)
	sentinels := 0
	for iter := 0; iter < 2000; iter++ {
		p := profile.New(ladder)
		k := 1 + rng.Intn(3)
		for c := 0; c < k; c++ {
			name := fmt.Sprintf("c%d", c)
			a, b := rng.Range(0, 0.02), rng.Range(1e-4, 0.02)
			count, maxRatio := 1+rng.Intn(300), rng.Range(1, 3)
			l := 1 + rng.Intn(len(ladder)-1)
			recordAt(p, name, count, a, b, 0)
			recordAt(p, name, count, a, b, l)
			p.Reset()
			recordAt(p, name, count, a, b, 0)
			p.Ref(name).Record((a+b)*maxRatio, 0, 0.5)
		}
		T, m := rng.Range(0.005, 2), 1+rng.Intn(64)
		models, ok := refFitAll(p, p.Classes(), ladder)
		if !ok {
			t.Fatalf("iter %d: reference fit failed", iter)
		}
		want, err := refBuildTable(models, ladder, T, m)
		if err != nil {
			t.Fatalf("iter %d: reference: %v", iter, err)
		}
		classes, ok := FitAll(p, p.Classes(), ladder)
		if !ok {
			t.Fatalf("iter %d: FitAll failed", iter)
		}
		got := new(cctable.Table)
		if err := got.RebuildGranular(classes, ladder, T, m); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for j := range want.CC {
			for i := range want.CC[j] {
				if got.CC[j][i] != want.CC[j][i] {
					t.Fatalf("iter %d: CC[%d][%d] = %d, replaced builder %d\n%+v\n%+v", iter, j, i, got.CC[j][i], want.CC[j][i], models, classes)
				}
				if w := want.Frac[j][i]; math.Abs(got.Frac[j][i]-w) > 1e-12*w {
					t.Fatalf("iter %d: Frac[%d][%d] = %v, replaced builder %v", iter, j, i, got.Frac[j][i], w)
				}
				if want.CC[j][i] == m*len(ladder)+1 {
					sentinels++
				}
			}
		}
	}
	if sentinels == 0 {
		t.Error("no case reached the granularity bar; widen the ranges")
	}
}
