package task

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeAtCPUBound(t *testing.T) {
	tk := Task{Work: 2.0, MemFrac: 0}
	if got := tk.TimeAt(1.0); got != 2.0 {
		t.Errorf("TimeAt(F0) = %g, want 2", got)
	}
	// At half frequency a CPU-bound task takes twice as long (paper §II).
	if got := tk.TimeAt(2.0); got != 4.0 {
		t.Errorf("TimeAt(0.5·F0) = %g, want 4", got)
	}
}

func TestTimeAtMemoryBound(t *testing.T) {
	tk := Task{Work: 2.0, MemFrac: 1.0}
	// A fully memory-bound task is frequency-insensitive.
	if got := tk.TimeAt(3.0); got != 2.0 {
		t.Errorf("memory-bound TimeAt = %g, want 2", got)
	}
	half := Task{Work: 2.0, MemFrac: 0.5}
	if got, want := half.TimeAt(2.0), 2.0*(0.5+0.5*2.0); math.Abs(got-want) > 1e-12 {
		t.Errorf("half-bound TimeAt = %g, want %g", got, want)
	}
}

func TestBatchTotalWorkAndClasses(t *testing.T) {
	b := Batch{Tasks: []Task{
		{Class: "md5", Work: 1},
		{Class: "sha1", Work: 2},
		{Class: "md5", Work: 3},
	}}
	if got := b.TotalWork(); got != 6 {
		t.Errorf("TotalWork = %g, want 6", got)
	}
}

func TestGenerateShape(t *testing.T) {
	speces := []ClassSpec{
		{Name: "heavy", Count: 8, MeanWork: 1.0, JitterFrac: 0.05},
		{Name: "light", Count: 120, MeanWork: 0.1, JitterFrac: 0.05},
	}
	w, err := Generate("test", 10, speces, 42)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("generated workload invalid: %v", err)
	}
	if len(w.Batches) != 10 {
		t.Fatalf("batches = %d, want 10", len(w.Batches))
	}
	if w.TotalTasks() != 10*128 {
		t.Errorf("TotalTasks = %d, want 1280", w.TotalTasks())
	}
	// Every task ID unique.
	seen := map[int]bool{}
	for _, b := range w.Batches {
		for _, tk := range b.Tasks {
			if seen[tk.ID] {
				t.Fatalf("duplicate task ID %d", tk.ID)
			}
			seen[tk.ID] = true
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	specs := []ClassSpec{{Name: "a", Count: 16, MeanWork: 0.5, JitterFrac: 0.1}}
	w1 := MustGenerate("d", 3, specs, 7)
	w2 := MustGenerate("d", 3, specs, 7)
	for bi := range w1.Batches {
		for ti := range w1.Batches[bi].Tasks {
			a, b := w1.Batches[bi].Tasks[ti], w2.Batches[bi].Tasks[ti]
			if a.Work != b.Work || a.Class != b.Class {
				t.Fatalf("same seed produced different workloads at batch %d task %d", bi, ti)
			}
		}
	}
	w3 := MustGenerate("d", 3, specs, 8)
	if w3.Batches[0].Tasks[0].Work == w1.Batches[0].Tasks[0].Work {
		t.Error("different seeds should produce different jitter")
	}
}

func TestGenerateJitterWithinBounds(t *testing.T) {
	specs := []ClassSpec{{Name: "a", Count: 200, MeanWork: 1.0, JitterFrac: 0.2}}
	w := MustGenerate("j", 5, specs, 1)
	for _, b := range w.Batches {
		for _, tk := range b.Tasks {
			if tk.Work < 0.8 || tk.Work >= 1.2 {
				t.Fatalf("work %g outside jitter bounds [0.8, 1.2)", tk.Work)
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	good := []ClassSpec{{Name: "a", Count: 1, MeanWork: 1}}
	cases := []struct {
		name    string
		batches int
		specs   []ClassSpec
	}{
		{"no batches", 0, good},
		{"no specs", 1, nil},
		{"zero count", 1, []ClassSpec{{Name: "a", Count: 0, MeanWork: 1}}},
		{"zero work", 1, []ClassSpec{{Name: "a", Count: 1, MeanWork: 0}}},
		{"bad jitter", 1, []ClassSpec{{Name: "a", Count: 1, MeanWork: 1, JitterFrac: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Generate("x", tc.batches, tc.specs, 1); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestMustGeneratePanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGenerate with bad spec should panic")
		}
	}()
	MustGenerate("x", 0, nil, 1)
}

func TestValidateCatchesCorruption(t *testing.T) {
	w := MustGenerate("v", 2, []ClassSpec{{Name: "a", Count: 4, MeanWork: 1}}, 3)
	if err := w.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	w.Batches[1].Tasks[0].Work = -1
	if err := w.Validate(); err == nil {
		t.Error("negative work should be rejected")
	}
	w.Batches[1].Tasks[0].Work = 1
	w.Batches[1].Tasks[0].MemFrac = 2
	if err := w.Validate(); err == nil {
		t.Error("MemFrac > 1 should be rejected")
	}
	w.Batches[1].Tasks[0].MemFrac = 0
	w.Batches[1].Tasks[0].Class = ""
	if err := w.Validate(); err == nil {
		t.Error("empty class should be rejected")
	}
	empty := &Workload{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("empty workload should be rejected")
	}
	oneEmptyBatch := &Workload{Name: "e", Batches: []Batch{{}}}
	if err := oneEmptyBatch.Validate(); err == nil {
		t.Error("empty batch should be rejected")
	}
}

// Property: TotalWork equals the sum over batches of per-batch totals,
// and every batch's total work is within count·mean·(1±jitter).
func TestGenerateWorkBoundsProperty(t *testing.T) {
	f := func(seed uint64, countRaw, batchRaw uint8) bool {
		count := int(countRaw%32) + 1
		batches := int(batchRaw%5) + 1
		specs := []ClassSpec{{Name: "c", Count: count, MeanWork: 2.0, JitterFrac: 0.1}}
		w, err := Generate("p", batches, specs, seed)
		if err != nil {
			return false
		}
		for _, b := range w.Batches {
			total := b.TotalWork()
			lo := float64(count) * 2.0 * 0.9
			hi := float64(count) * 2.0 * 1.1
			if total < lo-1e-9 || total > hi+1e-9 {
				return false
			}
		}
		return math.Abs(w.TotalWork()-sumBatches(w)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sumBatches(w *Workload) float64 {
	s := 0.0
	for i := range w.Batches {
		s += w.Batches[i].TotalWork()
	}
	return s
}
