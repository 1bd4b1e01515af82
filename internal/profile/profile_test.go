package profile

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/xrand"
)

var ladder = machine.FreqLadder{2.5, 1.8, 1.3, 0.8}

func TestNormalizeEq1(t *testing.T) {
	p := New(ladder)
	// A task that ran 10 s at F0 has workload 10.
	if got := p.Normalize(10, 0); got != 10 {
		t.Errorf("Normalize at F0 = %g, want 10", got)
	}
	// Eq. 1: w = t · Fi/F0. 10 s at 0.8 GHz ≡ 3.2 s at 2.5 GHz.
	if got, want := p.Normalize(10, 3), 10*0.8/2.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Normalize at F3 = %g, want %g", got, want)
	}
}

func TestNormalizePanicsOnBadLevel(t *testing.T) {
	p := New(ladder)
	defer func() {
		if recover() == nil {
			t.Error("invalid level should panic")
		}
	}()
	p.Normalize(1, 4)
}

func TestRecordRunningAverage(t *testing.T) {
	p := New(ladder)
	p.Ref("md5").Record(2, 0, 0)
	p.Ref("md5").Record(4, 0, 0)
	p.Ref("md5").Record(6, 0, 0)
	c, ok := p.Lookup("md5")
	if !ok {
		t.Fatal("class md5 missing")
	}
	if c.Count != 3 {
		t.Errorf("Count = %d, want 3", c.Count)
	}
	if math.Abs(c.AvgWork-4) > 1e-12 {
		t.Errorf("AvgWork = %g, want 4", c.AvgWork)
	}
	if math.Abs(c.TotalWork()-12) > 1e-12 {
		t.Errorf("TotalWork = %g, want 12", c.TotalWork())
	}
}

func TestRecordNormalizesAcrossFrequencies(t *testing.T) {
	p := New(ladder)
	// Same task observed on a slow core: longer wall time, same workload.
	p.Ref("f").Record(2.5, 0, 0)         // w = 2.5
	p.Ref("f").Record(2.5*2.5/0.8, 3, 0) // wall time stretched by F0/F3 → w = 2.5
	c, _ := p.Lookup("f")
	if math.Abs(c.AvgWork-2.5) > 1e-9 {
		t.Errorf("AvgWork = %g, want 2.5 (Eq. 1 should cancel core speed)", c.AvgWork)
	}
}

func TestClassesSortedByDescendingWork(t *testing.T) {
	p := New(ladder)
	p.Ref("light").Record(1, 0, 0)
	p.Ref("heavy").Record(9, 0, 0)
	p.Ref("mid").Record(5, 0, 0)
	cs := p.Classes()
	if len(cs) != 3 {
		t.Fatalf("classes = %d, want 3", len(cs))
	}
	if cs[0].Name != "heavy" || cs[1].Name != "mid" || cs[2].Name != "light" {
		t.Errorf("order = %s,%s,%s want heavy,mid,light", cs[0].Name, cs[1].Name, cs[2].Name)
	}
}

func TestClassesTieBreakDeterministic(t *testing.T) {
	p := New(ladder)
	p.Ref("b").Record(3, 0, 0)
	p.Ref("a").Record(3, 0, 0)
	cs := p.Classes()
	// Equal workloads: first-seen ("b") wins, every time.
	if cs[0].Name != "b" {
		t.Errorf("tie-break order changed: got %s first", cs[0].Name)
	}
}

func TestLookupMissing(t *testing.T) {
	p := New(ladder)
	if _, ok := p.Lookup("ghost"); ok {
		t.Error("Lookup of unseen class should report false")
	}
}

func TestMemoryBoundMajorityRule(t *testing.T) {
	p := New(ladder)
	// 2 of 4 memory-bound: not a strict majority.
	p.Ref("a").Record(1, 0, 0.5)
	p.Ref("a").Record(1, 0, 0.5)
	p.Ref("a").Record(1, 0, 0.001)
	p.Ref("a").Record(1, 0, 0.001)
	if p.MemoryBound() {
		t.Error("exactly half memory-bound must not classify the app as memory-bound")
	}
	p.Ref("a").Record(1, 0, 0.5)
	if !p.MemoryBound() {
		t.Error("3 of 5 memory-bound should classify the app as memory-bound")
	}
	// A task exactly at the threshold is not memory-bound: 3 of 7.
	p.Ref("a").Record(1, 0, DefaultMemBoundThreshold)
	p.Ref("a").Record(1, 0, DefaultMemBoundThreshold)
	if p.MemoryBound() {
		t.Error("3 of 7 memory-bound (two at the threshold) must not classify the app as memory-bound")
	}
}

func TestMemoryBoundEmptyProfiler(t *testing.T) {
	p := New(ladder)
	if p.MemoryBound() {
		t.Error("empty profiler must not be memory-bound")
	}
}

func TestResetClearsClassesKeepsMemCounters(t *testing.T) {
	p := New(ladder)
	p.Ref("a").Record(1, 0, 0.5)
	p.Reset()
	if p.NumClasses() != 0 {
		t.Error("Reset should clear classes")
	}
	if len(p.Classes()) != 0 {
		t.Error("Classes after Reset should be empty")
	}
	// Memory-bound classification persists (it is decided once).
	if !p.MemoryBound() {
		t.Error("memory-bound counters must survive Reset")
	}
	if p.TotalTasks() != 1 {
		t.Errorf("TotalTasks = %d, want 1 (persists)", p.TotalTasks())
	}
}

func TestRecordNegativeTimePanics(t *testing.T) {
	p := New(ladder)
	defer func() {
		if recover() == nil {
			t.Error("negative time should panic")
		}
	}()
	p.Ref("a").Record(-1, 0, 0)
}

func TestNewPanicsOnBadLadder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid ladder should panic")
		}
	}()
	New(machine.FreqLadder{})
}

// Property: the running average equals the true mean of the normalized
// samples, regardless of arrival order or core speeds.
func TestRunningAverageProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := xrand.New(seed)
		p := New(ladder)
		sum := 0.0
		for i := 0; i < n; i++ {
			level := rng.Intn(len(ladder))
			w := rng.Range(0.01, 10)
			wall := w * ladder[0] / ladder[level] // invert Eq. 1
			p.Ref("c").Record(wall, level, 0)
			sum += w
		}
		c, _ := p.Lookup("c")
		return c.Count == n && math.Abs(c.AvgWork-sum/float64(n)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RecordBulk over groups of tasks (one level per group, as one
// worker's share of a class is) equals recording the same tasks one by
// one, in the same order — count and the raw per-level sums exactly, the
// running average and the maximum to 1e-12 relative.
func TestRecordBulkMatchesSequential(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }
	f := func(seed uint64, groupsRaw uint8) bool {
		rng := xrand.New(seed)
		seq, bulk := New(ladder), New(ladder)
		names := []string{"a", "b", "c"}
		for g := int(groupsRaw%12) + 1; g > 0; g-- {
			name, level := names[rng.Intn(len(names))], rng.Intn(len(ladder))
			n := rng.Intn(40) // an empty group must be a no-op
			sum, longest := 0.0, 0.0
			for i := 0; i < n; i++ {
				d := rng.Range(1e-7, 1e-2)
				seq.Ref(name).Record(d, level, 0)
				sum += d
				longest = math.Max(longest, d)
			}
			bulk.RecordBulk(name, n, sum, longest, level)
		}
		if seq.TotalTasks() != bulk.TotalTasks() || seq.NumClasses() != bulk.NumClasses() {
			return false
		}
		for _, want := range seq.Classes() {
			got, ok := bulk.Lookup(want.Name)
			if !ok || got.Count != want.Count || !near(got.AvgWork, want.AvgWork) || !near(got.MaxWork, want.MaxWork) {
				return false
			}
			for level := range ladder {
				sv, sok := seq.RawAvg(want.Name, level)
				bv, bok := bulk.RawAvg(want.Name, level)
				if sok != bok || !near(sv, bv) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Classes() is always sorted by non-increasing AvgWork.
func TestClassesSortedProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		rng := xrand.New(seed)
		p := New(ladder)
		names := []string{"a", "b", "c", "d", "e"}
		for i := 0; i < n; i++ {
			p.Ref(names[rng.Intn(len(names))]).Record(rng.Range(0.1, 5), rng.Intn(len(ladder)), 0)
		}
		cs := p.Classes()
		for i := 1; i < len(cs); i++ {
			if cs[i].AvgWork > cs[i-1].AvgWork+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	p := New(ladder)
	p.Ref("heavy").Record(0.2, 0, 0)
	p.Ref("heavy").Record(0.22, 0, 0)
	p.Ref("light").Record(0.01, 0, 0)
	snap := p.Snapshot(0.25)
	if err := snap.Validate(ladder); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.T != snap.T || len(got.Classes) != 2 {
		t.Errorf("round-trip = %+v", got)
	}
	if got.Classes[0].Name != "heavy" || got.Classes[0].Count != 2 {
		t.Errorf("classes corrupted: %+v", got.Classes)
	}
	if math.Abs(got.Classes[0].AvgWork-0.21) > 1e-12 {
		t.Errorf("AvgWork = %g, want 0.21", got.Classes[0].AvgWork)
	}
}

func TestSnapshotValidateRejects(t *testing.T) {
	p := New(ladder)
	p.Ref("a").Record(0.1, 0, 0)
	snap := p.Snapshot(0.2)
	if err := snap.Validate(machine.FreqLadder{3.0, 1.0, 0.5, 0.2}); err == nil {
		t.Error("ladder mismatch should be rejected")
	}
	bad := *snap
	bad.T = 0
	if err := bad.Validate(nil); err == nil {
		t.Error("zero T should be rejected")
	}
	bad = *snap
	bad.Classes = nil
	if err := bad.Validate(nil); err == nil {
		t.Error("empty classes should be rejected")
	}
	unsorted := *snap
	unsorted.Classes = []Class{
		{Name: "x", Count: 1, AvgWork: 1, MaxWork: 1},
		{Name: "y", Count: 1, AvgWork: 2, MaxWork: 2},
	}
	if err := unsorted.Validate(nil); err == nil {
		t.Error("unsorted classes should be rejected")
	}
}

func TestDecodeSnapshotGarbage(t *testing.T) {
	if _, err := DecodeSnapshot(bytes.NewBufferString("{oops")); err == nil {
		t.Error("garbage JSON should error")
	}
}

func TestRawAvgAndLevels(t *testing.T) {
	p := New(ladder)
	p.Ref("c").Record(0.10, 0, 0)
	p.Ref("c").Record(0.20, 0, 0)
	p.Ref("c").Record(0.30, 3, 0)
	if avg, ok := p.RawAvg("c", 0); !ok || math.Abs(avg-0.15) > 1e-12 {
		t.Errorf("RawAvg level 0 = %g,%v want 0.15,true", avg, ok)
	}
	if avg, ok := p.RawAvg("c", 3); !ok || math.Abs(avg-0.30) > 1e-12 {
		t.Errorf("RawAvg level 3 = %g,%v", avg, ok)
	}
	if _, ok := p.RawAvg("c", 1); ok {
		t.Error("unsampled level should report false")
	}
	if _, ok := p.RawAvg("ghost", 0); ok {
		t.Error("unknown class should report false")
	}
	levels := p.RawLevels("c")
	if len(levels) != 2 || levels[0] != 0 || levels[1] != 3 {
		t.Errorf("RawLevels = %v, want [0 3]", levels)
	}
	// Raw data persists across Reset (the memmodel contract).
	p.Reset()
	if _, ok := p.RawAvg("c", 0); !ok {
		t.Error("raw observations must survive Reset")
	}
}
