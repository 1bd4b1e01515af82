package workloads

import (
	"reflect"
	"testing"

	"repro/internal/profile"
)

func TestAllSevenBenchmarks(t *testing.T) {
	bs := All()
	if len(bs) != 7 {
		t.Fatalf("got %d benchmarks, want 7 (Table II)", len(bs))
	}
	wantNames := map[string]bool{
		"bwc": true, "bzip2": true, "dmc": true, "je": true,
		"lzw": true, "md5": true, "sha1": true,
	}
	for _, b := range bs {
		if !wantNames[b.Name] {
			t.Errorf("unexpected benchmark %q", b.Name)
		}
		delete(wantNames, b.Name)
		if b.Batches != DefaultBatches {
			t.Errorf("%s: %d batches, want %d", b.Name, b.Batches, DefaultBatches)
		}
	}
	for name := range wantNames {
		t.Errorf("missing benchmark %q", name)
	}
}

func TestWorkloadsValidateAndBatchSize(t *testing.T) {
	for _, b := range All() {
		w := b.Workload(1)
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		// The paper launches ~128 tasks per batch.
		for bi := range w.Batches {
			n := len(w.Batches[bi].Tasks)
			if n < 120 || n > 136 {
				t.Errorf("%s batch %d: %d tasks, want ≈128", b.Name, bi, n)
			}
		}
	}
}

func TestWorkloadDeterministicPerSeed(t *testing.T) {
	b, err := ByName("md5")
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := b.Workload(9), b.Workload(9)
	if !reflect.DeepEqual(w1, w2) {
		t.Error("same seed must give identical workloads")
	}
	w3 := b.Workload(10)
	if reflect.DeepEqual(w1, w3) {
		t.Error("different seeds should differ")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestNamesOrder(t *testing.T) {
	names := Names()
	if len(names) != 7 || names[0] != "bwc" || names[6] != "sha1" {
		t.Errorf("Names() = %v", names)
	}
}

func TestMemoryBoundWorkload(t *testing.T) {
	b := MemoryBound()
	w := b.Workload(1)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every task must exceed the profiler's memory-bound threshold.
	for _, tk := range w.Batches[0].Tasks {
		if tk.CacheMissIntensity <= profile.DefaultMemBoundThreshold {
			t.Errorf("task %s intensity %g not above threshold", tk.Class, tk.CacheMissIntensity)
		}
		if tk.MemFrac <= 0 {
			t.Errorf("task %s should be partially frequency-insensitive", tk.Class)
		}
	}
}

func TestClassStructureHasHeavyAndLight(t *testing.T) {
	// Every benchmark needs workload heterogeneity for EEWA to exploit:
	// the heaviest class's mean work must be well above the lightest's.
	for _, b := range All() {
		var maxW, minW float64
		for i, s := range b.Specs {
			if i == 0 || s.MeanWork > maxW {
				maxW = s.MeanWork
			}
			if i == 0 || s.MeanWork < minW {
				minW = s.MeanWork
			}
		}
		if maxW < 5*minW {
			t.Errorf("%s: class spread %.1f×, want ≥ 5× (workload heterogeneity)", b.Name, maxW/minW)
		}
	}
}
