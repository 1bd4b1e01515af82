package rt

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profile"
)

// The other two paper policies by name, as the tests run them.
const (
	// PolicyCilkD: Cilk with workers that run dry down-clocking to the
	// lowest frequency until the barrier.
	PolicyCilkD Policy = policy.IDCilkD
	// PolicyWATS: workload-aware stealing on a frozen asymmetric
	// configuration (policy.DefaultWATSLevels).
	PolicyWATS Policy = policy.IDWATS
)

func testConfig(workers int, p Policy) Config {
	return Config{
		Workers: workers,
		Machine: machine.Opteron16(),
		Policy:  p,
		Seed:    7,
	}
}

// spinFor burns CPU for roughly d (wall-clock busy loop — payloads
// must be CPU-bound for the throttle emulation to mean anything).
func spinFor(d time.Duration) func() {
	return func() {
		end := time.Now().Add(d)
		x := uint64(1)
		for time.Now().Before(end) {
			for i := 0; i < 1000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
		}
		_ = x
	}
}

// makeBatch builds a two-class batch: a few chunky tasks and many tiny
// ones, counting executions.
func makeBatch(counter *atomic.Int64, heavy, light int, heavyDur, lightDur time.Duration) []Task {
	var tasks []Task
	for i := 0; i < heavy; i++ {
		run := spinFor(heavyDur)
		tasks = append(tasks, Task{Class: "heavy", Run: func() { run(); counter.Add(1) }})
	}
	for i := 0; i < light; i++ {
		run := spinFor(lightDur)
		tasks = append(tasks, Task{Class: "light", Run: func() { run(); counter.Add(1) }})
	}
	return tasks
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Workers: 0, Machine: machine.Opteron16()}); err == nil {
		t.Error("zero workers should error")
	}
	bad := machine.Opteron16()
	bad.Freqs = nil
	if _, err := New(Config{Workers: 2, Machine: bad}); err == nil {
		t.Error("invalid machine should error")
	}
}

func TestAllTasksExecuteOnce(t *testing.T) {
	for _, p := range Policies() {
		t.Run(string(p), func(t *testing.T) {
			r, err := New(testConfig(4, p))
			if err != nil {
				t.Fatal(err)
			}
			var count atomic.Int64
			for b := 0; b < 3; b++ {
				tasks := makeBatch(&count, 2, 14, 2*time.Millisecond, 200*time.Microsecond)
				bs := r.RunBatch(tasks)
				if bs.Tasks != 16 {
					t.Fatalf("batch %d reported %d tasks", b, bs.Tasks)
				}
				if bs.Wall <= 0 || bs.Energy <= 0 {
					t.Fatalf("batch %d: wall %v energy %g", b, bs.Wall, bs.Energy)
				}
			}
			if got := count.Load(); got != 48 {
				t.Fatalf("%d task executions, want 48", got)
			}
			st := r.Stats()
			if st.Batches != 3 || st.Tasks != 48 {
				t.Errorf("stats %+v", st)
			}
		})
	}
}

func TestEmptyBatch(t *testing.T) {
	r, err := New(testConfig(2, PolicyCilk))
	if err != nil {
		t.Fatal(err)
	}
	bs := r.RunBatch(nil)
	if bs.Tasks != 0 || bs.Wall != 0 {
		t.Errorf("empty batch stats %+v", bs)
	}
}

func TestCilkStaysFullSpeed(t *testing.T) {
	r, err := New(testConfig(4, PolicyCilk))
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	for b := 0; b < 3; b++ {
		r.RunBatch(makeBatch(&count, 2, 14, time.Millisecond, 100*time.Microsecond))
		census := r.Census()
		if census[0] != 4 {
			t.Fatalf("batch %d census %v — Cilk must stay at F0", b, census)
		}
	}
}

func TestEEWADownscalesSkewedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent in -short mode")
	}
	// 8 workers, 2 chunky tasks + many tiny ones: after profiling, the
	// adjuster should put the light class on slow virtual cores.
	r, err := New(testConfig(8, PolicyEEWA))
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	downscaled := false
	for b := 0; b < 5; b++ {
		bs := r.RunBatch(makeBatch(&count, 2, 30, 8*time.Millisecond, 150*time.Microsecond))
		if b >= 1 {
			slow := 0
			for lvl := 1; lvl < len(bs.Census); lvl++ {
				slow += bs.Census[lvl]
			}
			if slow > 0 {
				downscaled = true
			}
		}
	}
	if !downscaled {
		t.Error("EEWA never downscaled any worker on a skewed workload")
	}
	// First batch must have been all-fast.
}

// A served EEWA holds an offline profile of a 64-task iteration (4.3 ms
// of T over two workers) and runs batches of four no-op tasks. Planned
// against the whole profile's T such a batch fits at the slowest rung
// whatever it holds; planned against its share of the profiled work
// (its measured work, as the profile lacks its class, so T is 1.25× the
// batch's work over two workers) the slowest rung overruns T.
func TestEEWAOfflineServedBatchNotAllSlowest(t *testing.T) {
	cfg := testConfig(2, PolicyEEWA)
	snap := &profile.Snapshot{
		Freqs: []float64(cfg.Machine.Freqs),
		Classes: []profile.Class{
			{Name: "dmc", Count: 4, AvgWork: 1e-3, MaxWork: 1e-3},
			{Name: "je", Count: 4, AvgWork: 180e-6, MaxWork: 180e-6},
			{Name: "sha1", Count: 41, AvgWork: 42e-6, MaxWork: 42e-6},
			{Name: "lzw", Count: 15, AvgWork: 30e-6, MaxWork: 30e-6},
		},
	}
	snap.T = 1.25 * (4*1e-3 + 4*180e-6 + 41*42e-6 + 15*30e-6) / 2
	e := policy.NewEEWA()
	e.Offline = snap
	cfg.Impl = e
	cfg.Obs = obs.NewRegistry()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]Task, 4)
	for i := range tasks {
		tasks[i] = Task{Class: "noop", Run: func() {}}
	}
	// The profile's four classes never fit two workers, so batch 0 runs
	// the all-F0 fallback; the adjuster still ran, against the
	// profile's whole T, and its plan records that.
	r.RunBatch(tasks)
	h := cfg.Obs.LogHistogram("eewa_rt_plan_ideal_seconds", "")
	infeasible := cfg.Obs.Counter("eewa_rt_adjuster_infeasible_total", "")
	if h.Count() != 1 || h.Sum() != snap.T || infeasible.Value() != 1 {
		t.Errorf("after batch 0: eewa_rt_plan_ideal_seconds %d observations summing to %g, eewa_rt_adjuster_infeasible_total %g; want one of %g, and 1",
			h.Count(), h.Sum(), infeasible.Value(), snap.T)
	}
	r.RunBatch(tasks)
	slowest := cfg.Machine.Freqs.Slowest()
	if levels := r.Levels(); levels[0] == slowest && levels[1] == slowest {
		t.Errorf("levels %v after a four-task batch, want a worker above the slowest rung", levels)
	}
	// Batch 1's plan observes its own, smaller T.
	if h.Count() != 2 || !(h.Sum() > snap.T && h.Sum() < 2*snap.T) {
		t.Errorf("eewa_rt_plan_ideal_seconds: %d observations summing to %g, want two: %g and one in (0, %g)", h.Count(), h.Sum(), snap.T, snap.T)
	}
}

func TestFirstBatchAllFast(t *testing.T) {
	r, err := New(testConfig(4, PolicyEEWA))
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	bs := r.RunBatch(makeBatch(&count, 1, 7, time.Millisecond, 100*time.Microsecond))
	if bs.Census[0] != 4 {
		t.Errorf("first batch census %v, want all at F0", bs.Census)
	}
}

func TestStealsHappen(t *testing.T) {
	r, err := New(testConfig(4, PolicyCilk))
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	total := 0
	for b := 0; b < 3; b++ {
		bs := r.RunBatch(makeBatch(&count, 4, 28, time.Millisecond, 100*time.Microsecond))
		total += bs.Steals
	}
	if total == 0 {
		t.Error("no steals across 3 batches of 32 tasks on 4 workers")
	}
}

func TestEnergyAccountingSane(t *testing.T) {
	r, err := New(testConfig(4, PolicyCilk))
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	bs := r.RunBatch(makeBatch(&count, 2, 6, time.Millisecond, 500*time.Microsecond))
	// Energy must at least cover base power over the wall time and at
	// most full machine power over the wall time.
	pm := r.cfg.Machine.Power
	lo := pm.Base * bs.Wall.Seconds()
	hi := (pm.Base + float64(r.cfg.Workers)*pm.CorePower(machine.Busy, 0, 0, r.ladder)) * bs.Wall.Seconds() * 1.01
	if bs.Energy < lo || bs.Energy > hi {
		t.Errorf("energy %g outside [%g, %g]", bs.Energy, lo, hi)
	}
}

// TestPolicyString pins the live policy names: each constant is its
// policy.New identifier, the empty Policy runs Cilk, every name New
// accepts (the EEWA variants too) runs a batch, and an unknown name is
// New's error.
func TestPolicyString(t *testing.T) {
	want := map[Policy]string{
		PolicyCilk:  "cilk",
		PolicyCilkD: "cilk-d",
		PolicyWATS:  "wats",
		PolicyEEWA:  "eewa",
	}
	for p, name := range want {
		if string(p) != name {
			t.Errorf("policy constant %q, want %q", p, name)
		}
	}
	empty, err := New(testConfig(2, ""))
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.pol.Name(); got != "Cilk" {
		t.Errorf("empty Policy runs %s, want Cilk", got)
	}
	names := []Policy{PolicyCilk, PolicyCilkD, PolicyWATS, PolicyEEWA,
		"eewa-exhaustive", "eewa-greedy", "eewa-divisible", "eewa-memaware", "eewa-ignore"}
	for _, p := range names {
		r, err := New(testConfig(2, p))
		if err != nil {
			t.Errorf("New(%q): %v", p, err)
			continue
		}
		var count atomic.Int64
		for b := 0; b < 2; b++ { // the second batch is planned from a profile
			if bs := r.RunBatch(makeBatch(&count, 1, 5, 0, 0)); bs.Tasks != 6 {
				t.Errorf("%s batch %d: ran %d tasks, want 6", p, b, bs.Tasks)
			}
		}
		if count.Load() != 12 {
			t.Errorf("%s: %d payloads executed, want 12", p, count.Load())
		}
	}
	_, err = New(testConfig(2, "nope"))
	_, perr := policy.New("nope", machine.Opteron16())
	if err == nil || perr == nil || !strings.Contains(err.Error(), perr.Error()) {
		t.Errorf("New with an unknown policy: %v, want policy.New's error %v", err, perr)
	}
}

func TestWATSFrozenLevels(t *testing.T) {
	// WATS must run on its frozen asymmetric configuration from the
	// very first batch and never re-tune it.
	r, err := New(testConfig(6, PolicyWATS))
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	var first []int
	for b := 0; b < 3; b++ {
		r.RunBatch(makeBatch(&count, 2, 10, time.Millisecond, 100*time.Microsecond))
		levels := r.Levels()
		if b == 0 {
			first = levels
			slow := 0
			for _, l := range levels {
				if l > 0 {
					slow++
				}
			}
			if slow == 0 {
				t.Fatal("WATS configuration has no slow workers")
			}
			continue
		}
		for w, l := range levels {
			if l != first[w] {
				t.Fatalf("batch %d: worker %d moved to level %d (frozen at %d)", b, w, l, first[w])
			}
		}
	}
}

func TestCilkDDownclocksWhenDry(t *testing.T) {
	// With far more workers than tasks, some workers run dry and
	// Cilk-D's out-of-work action must be cheaper than Cilk's spin:
	// same workload, same seed, lower modeled energy. The dry spell
	// must be long (20 ms) so it dominates goroutine startup lag,
	// which the accounting bills as halt for both policies — under
	// -race that lag is large enough to swamp a short batch's margin.
	run := func(p Policy) float64 {
		r, err := New(testConfig(8, p))
		if err != nil {
			t.Fatal(err)
		}
		var count atomic.Int64
		var energy float64
		for b := 0; b < 2; b++ {
			bs := r.RunBatch(makeBatch(&count, 1, 1, 20*time.Millisecond, 100*time.Microsecond))
			energy += bs.Energy
		}
		return energy
	}
	cilk, cilkd := run(PolicyCilk), run(PolicyCilkD)
	if cilkd >= cilk {
		t.Errorf("Cilk-D energy %.3f J not below Cilk %.3f J despite idle workers", cilkd, cilk)
	}
}

func TestEnergyIdentityPerWorker(t *testing.T) {
	// Satellite of the invariant harness: with Invariants on, every
	// batch must decompose each worker's wall time exactly —
	// Busy + Search + Dry + Halt − Residual = Wall — and a healthy
	// runtime must record zero violations across all policies.
	for _, p := range Policies() {
		t.Run(string(p), func(t *testing.T) {
			cfg := testConfig(4, p)
			cfg.Invariants = true
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var count atomic.Int64
			for b := 0; b < 3; b++ {
				bs := r.RunBatch(makeBatch(&count, 2, 10, 2*time.Millisecond, 200*time.Microsecond))
				if len(bs.Workers) != 4 {
					t.Fatalf("batch %d: %d worker decompositions, want 4", b, len(bs.Workers))
				}
				wall := bs.Wall.Seconds()
				var resid float64
				for w, ws := range bs.Workers {
					got := ws.Busy + ws.Search + ws.Dry + ws.Halt - ws.Residual
					if diff := got - wall; diff > 1e-9 || diff < -1e-9 {
						t.Errorf("batch %d worker %d: identity off by %g s (busy %g search %g dry %g halt %g resid %g wall %g)",
							b, w, diff, ws.Busy, ws.Search, ws.Dry, ws.Halt, ws.Residual, wall)
					}
					if ws.Residual < 0 {
						t.Errorf("batch %d worker %d: negative residual %g", b, w, ws.Residual)
					}
					resid += ws.Residual
				}
				if diff := resid - bs.Residual; diff > 1e-12 || diff < -1e-12 {
					t.Errorf("batch %d: summed residual %g != reported %g", b, resid, bs.Residual)
				}
			}
			if vs := r.Violations(); len(vs) != 0 {
				t.Errorf("healthy runtime recorded violations: %v", vs)
			}
		})
	}
}

func TestResidualExportedToObs(t *testing.T) {
	// The residual counter must exist in the registry and accumulate
	// the per-batch residual sums (typically zero, but registered and
	// exact either way).
	reg := obs.NewRegistry()
	cfg := testConfig(2, PolicyEEWA)
	cfg.Obs = reg
	cfg.Invariants = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	var want float64
	for b := 0; b < 2; b++ {
		bs := r.RunBatch(makeBatch(&count, 1, 6, 1*time.Millisecond, 100*time.Microsecond))
		want += bs.Residual
	}
	got := reg.Counter("eewa_rt_energy_residual_seconds_total", "").Value()
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("residual counter = %g, want %g", got, want)
	}
	if vs := r.Violations(); len(vs) != 0 {
		t.Errorf("violations recorded: %v", vs)
		if reg.CounterVec("eewa_rt_invariant_violations_total", "", "invariant").
			With(vs[0].Invariant).Value() == 0 {
			t.Error("violation recorded on runtime but not counted on metric")
		}
	}
}

// A task whose Cancelled hook reports true must be acquired exactly
// once but never run: conservation holds, the skip is visible in
// BatchStats.Cancelled, and the rest of the batch is unaffected.
func TestRunBatchCancelledTasksSkipPayload(t *testing.T) {
	cfg := testConfig(4, PolicyCilk)
	cfg.Invariants = true
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ran, skipped atomic.Int64
	var tasks []Task
	for i := 0; i < 32; i++ {
		cancel := i%4 == 0
		tasks = append(tasks, Task{
			Class: "mix",
			Run:   func() { ran.Add(1) },
			Cancelled: func() bool {
				if cancel {
					skipped.Add(1)
				}
				return cancel
			},
		})
	}
	bs := rt.RunBatch(tasks)
	if got := ran.Load(); got != 24 {
		t.Errorf("ran %d payloads, want 24", got)
	}
	if bs.Cancelled != 8 {
		t.Errorf("BatchStats.Cancelled = %d, want 8", bs.Cancelled)
	}
	if vs := rt.Violations(); len(vs) != 0 {
		t.Errorf("invariant violations with cancellation: %v", vs)
	}
}

// Policies returns every live policy in canonical order.
func Policies() []Policy {
	return []Policy{PolicyCilk, PolicyCilkD, PolicyWATS, PolicyEEWA}
}
