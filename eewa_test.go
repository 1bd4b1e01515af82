package eewa

import (
	"testing"

	"repro/internal/task"
)

func TestSimulatePolicies(t *testing.T) {
	cfg := Opteron16()
	w, err := task.Generate("facade", 3, []task.ClassSpec{
		{Name: "h", Count: 8, MeanWork: 0.05, JitterFrac: 0.05},
		{Name: "l", Count: 24, MeanWork: 0.01, JitterFrac: 0.05},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{PolicyCilk, PolicyCilkD, PolicyEEWA} {
		res, err := Simulate(cfg, w, policy)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if res.Makespan <= 0 || res.Energy <= 0 {
			t.Errorf("%s: degenerate result %v", policy, res)
		}
	}
}

func TestSimulateUnknownPolicy(t *testing.T) {
	w := task.MustGenerate("x", 1, []task.ClassSpec{{Name: "a", Count: 1, MeanWork: 1}}, 1)
	if _, err := Simulate(Opteron16(), w, "magic"); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestCompareShape(t *testing.T) {
	w := MustBenchmark("md5").Workload(1)
	cmp, err := Compare(Opteron16(), w)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.EnergySaving() <= 0 {
		t.Errorf("EEWA should save energy on md5, got %.1f%%", 100*cmp.EnergySaving())
	}
	if s := cmp.EEWA.Makespan/cmp.Cilk.Makespan - 1; s > 0.06 {
		t.Errorf("EEWA slowdown %.1f%% exceeds 6%%", 100*s)
	}
	if !(cmp.EEWA.Energy < cmp.CilkD.Energy && cmp.CilkD.Energy < cmp.Cilk.Energy) {
		t.Error("energy ordering EEWA < Cilk-D < Cilk violated")
	}
}

func TestBenchmarksFacade(t *testing.T) {
	if got := len(Benchmarks()); got != 7 {
		t.Errorf("Benchmarks() returned %d, want 7", got)
	}
	if b := MustBenchmark("sha1"); b.Name != "sha1" {
		t.Errorf("MustBenchmark(sha1) = %q", b.Name)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBenchmark should panic on unknown name")
		}
	}()
	MustBenchmark("nope")
}

func TestMachinePresets(t *testing.T) {
	if cfg := Opteron16(); cfg.Cores != 16 {
		t.Errorf("Opteron16 has %d cores", cfg.Cores)
	}
}

func TestLiveRuntimeFacade(t *testing.T) {
	r, err := NewRuntime(LiveConfig{
		Workers: 2,
		Machine: Opteron16(),
		Policy:  LivePolicy(PolicyEEWA),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two workers run the tasks concurrently: each writes its own slot.
	results := make([]int, 4)
	var tasks []LiveTask
	for i := 0; i < 4; i++ {
		i := i
		tasks = append(tasks, LiveTask{Class: "t", Run: func() { results[i] = 1 }})
	}
	bs := r.RunBatch(tasks)
	if bs.Tasks != 4 {
		t.Errorf("ran %d tasks, want 4", bs.Tasks)
	}
	for i, v := range results {
		if v != 1 {
			t.Errorf("task %d did not run", i)
		}
	}
}
