package rt

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/task"
)

// recordingPolicy wraps any policy.Policy and captures every plan it
// hands out — engine-agnostic, so the same wrapper observes both the
// discrete-event simulator and the live runtime.
type recordingPolicy struct {
	inner policy.Policy
	plans []policy.Plan
}

func (p *recordingPolicy) Name() string { return p.inner.Name() }

func (p *recordingPolicy) BeginBatch(bi int, prof *profile.Profiler, env *policy.Env) policy.Plan {
	plan := p.inner.BeginBatch(bi, prof, env)
	p.plans = append(p.plans, plan)
	return plan
}

func (p *recordingPolicy) OutOfWork(c int) policy.OutOfWorkAction { return p.inner.OutOfWork(c) }

// paritySnapshot pins the workload profile both engines plan from. The
// numbers are chosen so the adjuster has a clearly feasible multi-group
// configuration on 8 cores: the heavy class needs a couple of fast
// cores, the light class fits comfortably on slow ones.
func paritySnapshot(cfg machine.Config) *profile.Snapshot {
	return &profile.Snapshot{
		Freqs: append([]float64(nil), cfg.Freqs...),
		T:     4e-3,
		Classes: []profile.Class{
			{Name: "heavy", Count: 4, AvgWork: 2e-3, MaxWork: 2.2e-3},
			{Name: "light", Count: 24, AvgWork: 2e-4, MaxWork: 2.4e-4},
		},
	}
}

// parityBatchSim builds the simulator's view of the batch: one task
// per live payload, same classes, same order.
func parityBatchSim() *task.Workload {
	var tasks []task.Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, task.Task{Class: "heavy", Work: 2e-3})
	}
	for i := 0; i < 24; i++ {
		tasks = append(tasks, task.Task{Class: "light", Work: 2e-4})
	}
	for i := range tasks {
		tasks[i].ID = i
	}
	return &task.Workload{Name: "parity", Batches: []task.Batch{{Tasks: tasks}}}
}

// parityBatchLive is the live twin: identical classes and order, real
// (tiny) payloads.
func parityBatchLive() []Task {
	var tasks []Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, Task{Class: "heavy", Run: spinFor(400 * time.Microsecond)})
	}
	for i := 0; i < 24; i++ {
		tasks = append(tasks, Task{Class: "light", Run: spinFor(50 * time.Microsecond)})
	}
	return tasks
}

// TestSimLiveEEWAParity runs an identical batch-structured workload
// through the discrete-event simulator and the live goroutine runtime
// under EEWA and asserts the *decisions* match exactly: the chosen
// per-core frequency assignment, the k-tuple, the task-class→c-group
// allocation and each class's placement cores. Timing differs between
// the engines by construction (simulated seconds vs. measured wall
// time), so the profile both plans derive from is pinned with EEWA's
// offline-snapshot mode — what the test then proves is that the two
// engines execute the same policy core, which is the refactor's
// acceptance bar.
func TestSimLiveEEWAParity(t *testing.T) {
	const workers = 8
	cfg := machine.Opteron16()
	cfg.Cores = workers
	snap := paritySnapshot(cfg)
	if err := snap.Validate(cfg.Freqs); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}

	// Simulator run.
	simEEWA := policy.NewEEWA()
	simEEWA.Offline = snap
	simRec := &recordingPolicy{inner: simEEWA}
	if _, err := sched.Run(cfg, parityBatchSim(), simRec, sched.Params{}); err != nil {
		t.Fatalf("sim run: %v", err)
	}

	// Live run.
	liveEEWA := policy.NewEEWA()
	liveEEWA.Offline = snap
	liveRec := &recordingPolicy{inner: liveEEWA}
	r, err := New(Config{Workers: workers, Machine: cfg, Impl: liveRec, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bs := r.RunBatch(parityBatchLive())
	if bs.Tasks != 28 {
		t.Fatalf("live batch executed %d tasks, want 28", bs.Tasks)
	}

	if len(simRec.plans) != 1 || len(liveRec.plans) != 1 {
		t.Fatalf("plan counts sim=%d live=%d, want 1 each", len(simRec.plans), len(liveRec.plans))
	}
	simPlan, livePlan := simRec.plans[0], liveRec.plans[0]

	// Both engines must have invoked the adjuster (offline profile →
	// configured before the first task ran) and chosen a non-trivial
	// configuration.
	if !simPlan.Adjusted || !livePlan.Adjusted {
		t.Fatalf("adjusted: sim=%v live=%v, want both", simPlan.Adjusted, livePlan.Adjusted)
	}
	if simPlan.Assignment.U() < 2 {
		t.Fatalf("expected a multi-group configuration, got %d group(s) %v",
			simPlan.Assignment.U(), simPlan.Assignment.Tuple)
	}

	// Frequency assignment: identical level for every core.
	for c := 0; c < workers; c++ {
		if s, l := simPlan.Assignment.FreqOf(c), livePlan.Assignment.FreqOf(c); s != l {
			t.Errorf("core %d: sim level %d, live level %d", c, s, l)
		}
	}
	if !reflect.DeepEqual(simPlan.Assignment.Tuple, livePlan.Assignment.Tuple) {
		t.Errorf("tuples differ: sim %v live %v", simPlan.Assignment.Tuple, livePlan.Assignment.Tuple)
	}

	// Class→c-group allocation and per-class placement cores.
	for _, class := range []string{"heavy", "light", "unknown-class"} {
		sg := simPlan.Assignment.GroupOfClass(class)
		lg := livePlan.Assignment.GroupOfClass(class)
		if sg != lg {
			t.Errorf("class %q: sim group %d, live group %d", class, sg, lg)
			continue
		}
		if sl, ll := simPlan.Assignment.Groups[sg].Level, livePlan.Assignment.Groups[lg].Level; sl != ll {
			t.Errorf("class %q: sim group level %d, live group level %d", class, sl, ll)
		}
		if !reflect.DeepEqual(simPlan.Assignment.PlacementCores(class), livePlan.Assignment.PlacementCores(class)) {
			t.Errorf("class %q: placement cores differ: sim %v live %v",
				class, simPlan.Assignment.PlacementCores(class), livePlan.Assignment.PlacementCores(class))
		}
	}

	// The live runtime must have actually applied the assignment.
	for w := 0; w < workers; w++ {
		if bs.Levels[w] != livePlan.Assignment.FreqOf(w) {
			t.Errorf("worker %d ran at level %d, plan says %d", w, bs.Levels[w], livePlan.Assignment.FreqOf(w))
		}
	}

	// And the placement discipline the engines executed is the shared
	// IndexedPlacer: replay it and check it is in-bounds for the agreed
	// plan.
	names := []string{"heavy", "light"}
	var pl policy.IndexedPlacer
	pl.Reset(&simPlan, workers, names)
	for _, cid := range []int32{0, 0, 1, 1} {
		class := names[cid]
		c, g := pl.Place(cid)
		if g != simPlan.Assignment.GroupOfClass(class) {
			t.Errorf("placer sent %q to group %d, allocation says %d", class, g, simPlan.Assignment.GroupOfClass(class))
		}
		found := false
		for _, pc := range simPlan.Assignment.PlacementCores(class) {
			if pc == c {
				found = true
			}
		}
		if !found {
			t.Errorf("placer sent %q to core %d outside its placement cores %v",
				class, c, simPlan.Assignment.PlacementCores(class))
		}
	}
}

// TestSimLiveCilkParity checks the degenerate end: under Cilk both
// engines must plan the identical all-fast scatter batch every time.
func TestSimLiveCilkParity(t *testing.T) {
	const workers = 4
	cfg := machine.Opteron16()
	cfg.Cores = workers

	simRec := &recordingPolicy{inner: policy.NewCilk()}
	if _, err := sched.Run(cfg, parityBatchSim(), simRec, sched.Params{}); err != nil {
		t.Fatalf("sim run: %v", err)
	}
	liveRec := &recordingPolicy{inner: policy.NewCilk()}
	r, err := New(Config{Workers: workers, Machine: cfg, Impl: liveRec, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.RunBatch(parityBatchLive())

	simPlan, livePlan := simRec.plans[0], liveRec.plans[0]
	if !simPlan.ScatterAll || !livePlan.ScatterAll || !simPlan.RandomSteal || !livePlan.RandomSteal {
		t.Fatalf("Cilk plans not classic: sim %+v live %+v", simPlan, livePlan)
	}
	for c := 0; c < workers; c++ {
		if simPlan.Assignment.FreqOf(c) != 0 || livePlan.Assignment.FreqOf(c) != 0 {
			t.Fatalf("Cilk must keep every core at F0")
		}
	}
}
