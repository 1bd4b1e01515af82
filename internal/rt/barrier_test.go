package rt

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cgroup"
	"repro/internal/check"
	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/profile"
)

// fixedPlan is a policy that hands out one plan forever: the tests use
// it to pin a worker's level, to aim every task at one pool, and to
// take the planner's own allocations out of an allocation count.
type fixedPlan struct{ plan policy.Plan }

func (*fixedPlan) Name() string { return "fixed" }

func (p *fixedPlan) BeginBatch(int, *profile.Profiler, *policy.Env) policy.Plan { return p.plan }

func (*fixedPlan) OutOfWork(int) policy.OutOfWorkAction {
	return policy.OutOfWorkAction{State: machine.Spinning, FreqLevel: -1}
}

func fixedLevels(t *testing.T, levels []int) *cgroup.Assignment {
	t.Helper()
	asn, err := cgroup.FromLevels(levels, len(machine.Opteron16().Freqs))
	if err != nil {
		t.Fatal(err)
	}
	return asn
}

// Regression: a throttled worker used to sleep dur×(ratio−1) after every
// task, and whatever the timer overslept by (60 µs–1 ms per sleep on a
// shared host) was billed to no state — it surfaced as Halt, which grew
// with the task count. With throttle debt the oversleep is credited
// against later tasks: the worker's physical time from its first task
// to leaving the batch stays within a quantum (plus scheduler slack) of
// the modelled Σ dur×ratio, however many tasks it ran.
func TestThrottleDebtConverges(t *testing.T) {
	const level = 3
	const slack = 4 * time.Millisecond // one bad oversleep on a loaded CI host
	asn := fixedLevels(t, []int{level})
	cfg := testConfig(1, PolicyCilk)
	cfg.Impl = &fixedPlan{plan: policy.Plan{Assignment: asn, RandomSteal: true, ScatterAll: true}}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.ladder.Ratio(level)
	bound := (time.Duration(throttleQuantum) + slack).Seconds()
	// attempt runs one batch of n tasks and returns what it got wrong.
	attempt := func(n int) []string {
		tasks := make([]Task, n)
		var native atomic.Int64 // Σ dur as the payloads see it
		for i := range tasks {
			spin := spinFor(20 * time.Microsecond)
			tasks[i] = Task{Class: "t", Run: func() {
				t0 := time.Now()
				spin()
				native.Add(int64(time.Since(t0)))
			}}
		}
		bs := r.RunBatch(tasks)
		ws := bs.Workers[0]
		var errs []string
		// Worker 0 runs on the caller, so it has no spawn lag: what is left
		// of the wall after search and the dry tail is its physical time
		// from first task to leaving, and Halt is that minus the model.
		physical := bs.Wall.Seconds() - ws.Search - ws.Dry
		if d := physical - ws.Busy; d > bound || d < -bound {
			errs = append(errs, fmt.Sprintf("physical %.3f ms vs modelled %.3f ms, off by %.3f ms (bound %.3f ms)",
				physical*1e3, ws.Busy*1e3, d*1e3, bound*1e3))
		}
		if ws.Halt > bound {
			errs = append(errs, fmt.Sprintf("Halt %.3f ms exceeds one quantum + slack (%.3f ms): oversleep is being billed to Halt",
				ws.Halt*1e3, bound*1e3))
		}
		// The model itself: every task stretched by the level's ratio. The
		// runtime's clock reads sit just outside the payload's own.
		if want := float64(native.Load()) / 1e9 * ratio; ws.Busy < want || ws.Busy > 1.5*want+1e-3 {
			errs = append(errs, fmt.Sprintf("Busy %.3f ms, want Σ dur × %.3f ≈ %.3f ms", ws.Busy*1e3, ratio, want*1e3))
		}
		if ws.Residual > 1e-4 {
			errs = append(errs, fmt.Sprintf("residual %.6f s, want ≈0", ws.Residual))
		}
		return errs
	}
	for _, n := range []int{100, 800} {
		// A host hiccup can stretch any one batch past the bound, so each
		// size has three attempts and one must pass.
		for try := 1; try <= 3; try++ {
			errs := attempt(n)
			if len(errs) == 0 {
				break
			}
			for _, e := range errs {
				if try < 3 {
					t.Logf("%d tasks, attempt %d: %s", n, try, e)
				} else {
					t.Errorf("%d tasks, all three attempts failed; the last: %s", n, e)
				}
			}
		}
	}
}

// Regression: EEWA's ideal time T is batch 0's wall, and that wall used
// to include the 20 µs poll's wake-up tail (up to a millisecond after the
// last task ended). A batch now ends when its last task does, so on a
// balanced batch the wall is the slowest worker's busy time plus spawn
// lag and little else.
func TestFirstBatchWallIsTheWork(t *testing.T) {
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ { // a host hiccup can stretch any one batch
		r, err := New(testConfig(2, PolicyEEWA))
		if err != nil {
			t.Fatal(err)
		}
		tasks := make([]Task, 64)
		for i := range tasks {
			tasks[i] = Task{Class: "t", Run: spinFor(50 * time.Microsecond)}
		}
		bs := r.RunBatch(tasks)
		if r.env.IdealTime != bs.Wall.Seconds() {
			t.Fatalf("ideal time %v s is not batch 0's wall %v", r.env.IdealTime, bs.Wall)
		}
		slowest := 0.0
		for _, ws := range bs.Workers {
			slowest = max(slowest, ws.Busy)
		}
		ratio := bs.Wall.Seconds() / slowest
		if best == 0 || ratio < best {
			best = ratio
		}
	}
	if best > 1.5 {
		t.Errorf("batch 0's wall is %.2f× the slowest worker's busy time on a balanced batch, want ≤ 1.5×", best)
	}
}

// Dry-exit liveness and conservation under lost steal races: every task
// of every batch is class-placed onto ONE pool, eight workers on two Ps
// fight over it, and there are exactly eight live tasks, each of which
// blocks until all eight have started. The batch can therefore finish
// only if every worker stays until it holds a task of its own: a worker
// that took a failed steal for an empty pool and left would strand a
// task and hang the batch (the watchdog reports it). That makes the
// check exact rather than a matter of timing — batch walls on a shared
// host say nothing: two threads buy 2× or 1.1× by the host's phase. The
// owner of the pool is once the caller's inline worker 0 and once a
// spawned worker, and in the cancelled cases eight more tasks are
// withdrawn through their hooks.
func TestDryExitLiveness(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const workers = 8
	batches := 1000
	if testing.Short() {
		batches = 100
	}
	for _, tc := range []struct {
		name      string
		owner     int
		cancelled int // tasks withdrawn per batch, interleaved with the live ones
	}{
		{"owner-inline", 0, 0},
		{"owner-spawned", workers - 1, 0},
		{"owner-inline-cancelled", 0, workers},
		{"owner-spawned-cancelled", workers - 1, workers},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One fast core owns the only class; the thieves sit one rung
			// down, so the preference walk and the throttle debt are in play.
			levels := make([]int, workers)
			for w := range levels {
				if w != tc.owner {
					levels[w] = 1
				}
			}
			asn := fixedLevels(t, levels)
			asn.ClassGroup["hot"] = 0
			cfg := testConfig(workers, PolicyCilk)
			cfg.Impl = &fixedPlan{plan: policy.Plan{Assignment: asn}}
			cfg.Invariants = true
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}

			n := workers + tc.cancelled
			ran, asked := make([]atomic.Int32, n), make([]atomic.Int32, n)
			var started atomic.Int32
			var gate chan struct{} // closed by the last live task to start
			withdrawn := func(i int) bool { return tc.cancelled > 0 && i%2 == 1 }
			batch := make([]Task, n)
			for i := range batch {
				batch[i] = Task{Class: "hot", Run: func() {
					if started.Add(1) == workers {
						close(gate)
					}
					<-gate
					ran[i].Add(1)
				}}
				if tc.cancelled > 0 {
					batch[i].Cancelled = func() bool { asked[i].Add(1); return withdrawn(i) }
				}
			}

			done := make(chan string, 1)
			go func() {
				for b := 1; b <= batches; b++ {
					started.Store(0)
					gate = make(chan struct{})
					bs := r.RunBatch(batch)
					for i := range batch {
						wantRan, wantAsked := int32(b), int32(0)
						if withdrawn(i) {
							wantRan = 0
						}
						if tc.cancelled > 0 {
							wantAsked = int32(b)
						}
						if ran[i].Load() != wantRan || asked[i].Load() != wantAsked {
							done <- fmt.Sprintf("batch %d task %d: ran %d times (want %d), cancel hook asked %d times (want %d)",
								b, i, ran[i].Load(), wantRan, asked[i].Load(), wantAsked)
							return
						}
					}
					// The owner holds one live task, so each of the other seven
					// was stolen; withdrawn tasks go to whoever gets there.
					if bs.Cancelled != tc.cancelled || bs.Steals < workers-1 || bs.Steals > n-1 {
						done <- fmt.Sprintf("batch %d: %d cancelled (want %d), %d steals (want %d..%d)",
							b, bs.Cancelled, tc.cancelled, bs.Steals, workers-1, n-1)
						return
					}
				}
				done <- ""
			}()
			select {
			case msg := <-done:
				if msg != "" {
					t.Fatal(msg)
				}
			case <-time.After(time.Minute):
				t.Fatalf("batch hung with %d of %d live tasks started: a worker left while the pool still held work", started.Load(), workers)
			}
			if vs := r.Violations(); len(vs) != 0 {
				t.Fatalf("%d invariant violations, first: %v", len(vs), vs[0])
			}
		})
	}
}

// TestRunBatchAllocBudget pins the runtime's allocations per batch: 64
// no-op tasks, 2 workers, no registry, invariants off. The budget covers
// everything RunBatch does, the policy's planning included: cilk, one
// real EEWA plan replayed without the planner (class placement over
// c-groups, preference stealing, throttled workers), and the whole of
// eewa with the adjuster deciding every batch. All three measure 4 —
// what the batch hands back and the caller may keep: BatchStats' Census
// and Workers slices and its Classes map (header and bucket). The
// plan path (adjuster, placer, steal order, profiler) rebuilds in place
// and adds nothing. Pinned at what it measures so that it can only fall
// (24 and 46 before the plan path was rebuilt in place).
func TestRunBatchAllocBudget(t *testing.T) {
	if check.BuildEnabled {
		t.Skip("eewa_check forces the invariant bookkeeping on")
	}
	const budget, eewaBudget = 4, 4
	mc := machine.Opteron16()
	mc.Cores = 2
	newEEWA := func() *policy.EEWA {
		eewa := policy.NewEEWA()
		eewa.Offline = &profile.Snapshot{
			Freqs: append([]float64(nil), mc.Freqs...),
			T:     4e-3,
			Classes: []profile.Class{
				{Name: "heavy", Count: 8, AvgWork: 4e-4, MaxWork: 4e-4},
				{Name: "light", Count: 56, AvgWork: 1e-5, MaxWork: 1e-5},
			},
		}
		return eewa
	}
	plan := newEEWA().BeginBatch(0, profile.New(mc.Freqs), &policy.Env{Cfg: mc})
	if !plan.Adjusted || plan.ScatterAll || plan.RandomSteal {
		t.Fatalf("offline snapshot did not yield a class-placed plan: %+v", plan)
	}
	for _, tc := range []struct {
		name   string
		impl   policy.Policy
		budget float64
	}{
		{"cilk", nil, budget},
		{"eewa-plan", &fixedPlan{plan: plan}, budget},
		{"eewa", newEEWA(), eewaBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(2, PolicyCilk)
			cfg.Impl = tc.impl
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tasks := make([]Task, 64)
			for i := range tasks {
				tasks[i] = Task{Class: "light", Run: func() {}}
				if i < 8 {
					tasks[i].Class = "heavy"
				}
			}
			for i := 0; i < 5; i++ { // slabs, pools and walkers reach their size
				r.RunBatch(tasks)
			}
			if got := testing.AllocsPerRun(200, func() { r.RunBatch(tasks) }); got > tc.budget {
				t.Errorf("%.1f allocations per batch, budget %g", got, tc.budget)
			}
		})
	}
}
