package sched

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cgroup"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/task"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// newTestRNG keeps the property tests' dependency on xrand explicit.
func newTestRNG(seed uint64) *xrand.RNG { return xrand.New(seed) }

// tiny returns a small fast workload for unit tests.
func tiny(batches int) *task.Workload {
	return task.MustGenerate("tiny", batches, []task.ClassSpec{
		{Name: "a", Count: 8, MeanWork: 0.02, JitterFrac: 0.05},
		{Name: "b", Count: 24, MeanWork: 0.005, JitterFrac: 0.05},
	}, 7)
}

func mustRun(t *testing.T, cfg machine.Config, w *task.Workload, p policy.Policy) *Result {
	t.Helper()
	res, err := Run(cfg, w, p, Params{})
	if err != nil {
		t.Fatalf("Run(%s): %v", p.Name(), err)
	}
	return res
}

// mustNew builds the named policy (policy.New) for cfg.
func mustNew(t *testing.T, name string, cfg machine.Config) policy.Policy {
	t.Helper()
	p, err := policy.New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunValidatesInputs(t *testing.T) {
	if _, err := Run(machine.Config{}, tiny(1), policy.NewCilk(), Params{}); err == nil {
		t.Error("invalid machine should error")
	}
	if _, err := Run(machine.Opteron16(), &task.Workload{Name: "x"}, policy.NewCilk(), Params{}); err == nil {
		t.Error("invalid workload should error")
	}
}

func TestAllTasksExecuteExactlyOnce(t *testing.T) {
	cfg := machine.Opteron16()
	w := tiny(5)
	for _, p := range []policy.Policy{policy.NewCilk(), policy.NewCilkD(4), policy.NewEEWA()} {
		res := mustRun(t, cfg, w, p)
		if len(res.BatchTimes) != 5 {
			t.Errorf("%s: %d batch times, want 5", p.Name(), len(res.BatchTimes))
		}
		// Conservation: total busy time equals the sum of task times at
		// the executing frequencies; at minimum it is bounded below by
		// total work (all-F0) and above by work × max ratio.
		total := w.TotalWork()
		maxRatio := cfg.Freqs.Ratio(cfg.Freqs.Slowest())
		if res.BusyTime < total-1e-6 {
			t.Errorf("%s: busy time %g below total work %g — tasks lost", p.Name(), res.BusyTime, total)
		}
		if res.BusyTime > total*maxRatio+1e-6 {
			t.Errorf("%s: busy time %g exceeds %g — tasks double-executed?", p.Name(), res.BusyTime, total*maxRatio)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := machine.Opteron16()
	for _, mk := range []func() policy.Policy{
		func() policy.Policy { return policy.NewCilk() },
		func() policy.Policy { return policy.NewCilkD(4) },
		func() policy.Policy { return policy.NewEEWA() },
	} {
		a := mustRun(t, cfg, tiny(3), mk())
		b := mustRun(t, cfg, tiny(3), mk())
		if a.Makespan != b.Makespan || a.Energy != b.Energy || a.Steals != b.Steals {
			t.Errorf("%s: same seed produced different results: %v vs %v", mk().Name(), a, b)
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	cfg := machine.Opteron16()
	p1, p2 := Params{}, Params{Seed: 99}
	a, err := Run(cfg, tiny(3), policy.NewCilk(), p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tiny(3), policy.NewCilk(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steals == b.Steals && a.Makespan == b.Makespan {
		t.Error("different seeds should change victim selection")
	}
}

func TestCilkStaysAtF0(t *testing.T) {
	res := mustRun(t, machine.Opteron16(), tiny(4), policy.NewCilk())
	for bi, census := range res.BatchCensus {
		if census[0] != 16 {
			t.Errorf("batch %d census %v — Cilk must keep all cores at F0", bi, census)
		}
	}
	if res.DVFSTransitions != 0 {
		t.Errorf("Cilk made %d DVFS transitions, want 0", res.DVFSTransitions)
	}
}

func TestCilkDDownclocksIdleCores(t *testing.T) {
	res := mustRun(t, machine.Opteron16(), tiny(4), policy.NewCilkD(4))
	if res.DVFSTransitions == 0 {
		t.Error("Cilk-D should downclock at least one idle core")
	}
	cilk := mustRun(t, machine.Opteron16(), tiny(4), policy.NewCilk())
	if res.Energy >= cilk.Energy {
		t.Errorf("Cilk-D energy %g should be below Cilk %g", res.Energy, cilk.Energy)
	}
	// Performance must be essentially identical (idle cores only).
	if math.Abs(res.Makespan-cilk.Makespan) > 0.02*cilk.Makespan {
		t.Errorf("Cilk-D makespan %g deviates from Cilk %g", res.Makespan, cilk.Makespan)
	}
}

func TestEEWAFirstBatchAllFast(t *testing.T) {
	res := mustRun(t, machine.Opteron16(), tiny(4), policy.NewEEWA())
	if res.BatchCensus[0][0] != 16 {
		t.Errorf("first batch census %v — EEWA must run batch 0 at F0", res.BatchCensus[0])
	}
}

// TestEEWAFig6Shape pins the headline claim on a real benchmark mix:
// EEWA consumes less energy than Cilk-D, which consumes less than
// Cilk, and EEWA's makespan stays within a few percent of Cilk's.
func TestEEWAFig6Shape(t *testing.T) {
	cfg := machine.Opteron16()
	b, err := workloads.ByName("md5")
	if err != nil {
		t.Fatal(err)
	}
	w := b.Workload(1)
	cilk := mustRun(t, cfg, w, policy.NewCilk())
	cilkd := mustRun(t, cfg, w, policy.NewCilkD(4))
	eewa := mustRun(t, cfg, w, policy.NewEEWA())

	if !(eewa.Energy < cilkd.Energy && cilkd.Energy < cilk.Energy) {
		t.Errorf("energy ordering violated: EEWA %g, Cilk-D %g, Cilk %g",
			eewa.Energy, cilkd.Energy, cilk.Energy)
	}
	saving := 1 - eewa.Energy/cilk.Energy
	if saving < 0.08 || saving > 0.45 {
		t.Errorf("EEWA saving = %.1f%%, want within the paper-shaped band [8%%, 45%%]", 100*saving)
	}
	if eewa.Makespan > 1.06*cilk.Makespan {
		t.Errorf("EEWA makespan %g more than 6%% above Cilk %g", eewa.Makespan, cilk.Makespan)
	}
}

func TestEEWADownscalesAfterFirstBatch(t *testing.T) {
	cfg := machine.Opteron16()
	b, _ := workloads.ByName("sha1")
	res := mustRun(t, cfg, b.Workload(1), policy.NewEEWA())
	// Paper Fig. 8: from early batches, more than half the cores sit at
	// the lowest frequency.
	for bi := 2; bi < len(res.BatchCensus); bi++ {
		slowest := res.BatchCensus[bi][len(cfg.Freqs)-1]
		if slowest <= 8 {
			t.Errorf("batch %d: only %d cores at the lowest frequency, want > 8 (Fig. 8)", bi, slowest)
		}
	}
}

func TestEEWAMemoryBoundFallback(t *testing.T) {
	cfg := machine.Opteron16()
	b := workloads.MemoryBound()
	res := mustRun(t, cfg, b.Workload(1), policy.NewEEWA())
	if !res.MemoryBound {
		t.Fatal("profiler should classify the synthetic workload as memory-bound")
	}
	// §IV-D: EEWA must keep every batch at F0 (classic stealing).
	for bi, census := range res.BatchCensus {
		if census[0] != 16 {
			t.Errorf("batch %d census %v — memory-bound fallback must stay at F0", bi, census)
		}
	}
}

func TestEEWAInfeasibleKeepsAllFast(t *testing.T) {
	// Four cores with a dense workload: the CC table cannot fit below
	// F0, so EEWA must keep every core fast (Fig. 9's 4-core regime).
	// Three classes of similar weight: the per-class ceilings sum past
	// the four cores, so not even the all-F0 row fits.
	cfg := machine.Generic(4)
	w := task.MustGenerate("dense", 4, []task.ClassSpec{
		{Name: "x", Count: 24, MeanWork: 0.020, JitterFrac: 0.05},
		{Name: "y", Count: 24, MeanWork: 0.018, JitterFrac: 0.05},
		{Name: "z", Count: 24, MeanWork: 0.016, JitterFrac: 0.05},
	}, 3)
	reg := obs.NewRegistry()
	res, err := Run(cfg, w, policy.NewEEWA(), Params{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	for bi, census := range res.BatchCensus {
		if census[0] != 4 {
			t.Errorf("batch %d census %v — expected all cores at F0", bi, census)
		}
	}
	if n := reg.At("eewa_sim_adjuster_infeasible_total").(*obs.Counter).Value(); n == 0 {
		t.Error("expected at least one infeasible adjustment on the starved machine")
	}
	cilk := mustRun(t, cfg, w, policy.NewCilk())
	if res.Makespan > 1.04*cilk.Makespan {
		t.Errorf("EEWA on 4 cores degrades %.1f%%, want < 4%% (paper: 0.3%%)",
			100*(res.Makespan/cilk.Makespan-1))
	}
}

func TestCilkFixedSlowerOnAsymmetric(t *testing.T) {
	cfg := machine.Opteron16()
	// Freeze a 5-fast / 11-slowest configuration.
	levels := make([]int, 16)
	for i := 5; i < 16; i++ {
		levels[i] = 3
	}
	b, _ := workloads.ByName("sha1")
	w := b.Workload(1)

	fixed, err := policy.NewCilkFixed(levels, 4)
	if err != nil {
		t.Fatal(err)
	}
	cilkFixed := mustRun(t, cfg, w, fixed)

	wats, err := policy.NewWATS(levels, 4)
	if err != nil {
		t.Fatal(err)
	}
	watsRes := mustRun(t, cfg, w, wats)

	eewa := mustRun(t, cfg, w, policy.NewEEWA())

	// Fig. 7 ordering: Cilk ≫ WATS ≥≈ EEWA.
	if !(cilkFixed.Makespan > watsRes.Makespan) {
		t.Errorf("random stealing (%.4f) should be slower than WATS (%.4f) on the asymmetric machine",
			cilkFixed.Makespan, watsRes.Makespan)
	}
	if cilkFixed.Makespan < 1.1*eewa.Makespan {
		t.Errorf("Cilk on asymmetric = %.2f× EEWA, want > 1.1× (paper: 1.17–2.92×)",
			cilkFixed.Makespan/eewa.Makespan)
	}
	if watsRes.Makespan > 1.45*eewa.Makespan {
		t.Errorf("WATS = %.2f× EEWA, want < 1.45× (paper: 1.05–1.24×)",
			watsRes.Makespan/eewa.Makespan)
	}
}

func TestPreferenceStealingMigratesWhenImbalanced(t *testing.T) {
	cfg := machine.Opteron16()
	// High jitter creates per-batch imbalance that the adjuster cannot
	// predict, forcing cross-group steals.
	w := task.MustGenerate("imbalanced", 6, []task.ClassSpec{
		{Name: "h", Count: 12, MeanWork: 0.10, JitterFrac: 0.4},
		{Name: "l", Count: 116, MeanWork: 0.012, JitterFrac: 0.4},
	}, 11)
	res := mustRun(t, cfg, w, policy.NewEEWA())
	if res.Migrated == 0 {
		t.Error("expected cross-group task migrations under heavy jitter")
	}
}

func TestStealsAndProbesCounted(t *testing.T) {
	res := mustRun(t, machine.Opteron16(), tiny(2), policy.NewCilk())
	if res.Steals == 0 {
		t.Error("scatter placement plus 16 cores must require steals")
	}
	if res.Probes < res.Steals {
		t.Error("every steal requires at least one probe")
	}
}

func TestAdjusterOverheadCharged(t *testing.T) {
	cfg := machine.Opteron16()
	b, _ := workloads.ByName("md5")
	w := b.Workload(1)
	res := mustRun(t, cfg, w, policy.NewEEWA())
	if res.AdjusterSimTime <= 0 {
		t.Error("EEWA runs the adjuster; simulated overhead must be positive")
	}
	wantMax := float64(len(w.Batches)) * adjusterCharge
	if res.AdjusterSimTime > wantMax+1e-9 {
		t.Errorf("adjuster charge %g exceeds %g (once per batch)", res.AdjusterSimTime, wantMax)
	}
	if res.AdjusterHostTime <= 0 {
		t.Error("host-measured adjuster time should be positive")
	}
	// Table III: overhead below 2% of execution time.
	if pct := res.AdjusterSimTime / res.Makespan; pct > 0.02 {
		t.Errorf("overhead %.2f%% of runtime, want < 2%%", 100*pct)
	}
}

func TestEnergyConsistency(t *testing.T) {
	cfg := machine.Opteron16()
	res := mustRun(t, cfg, tiny(3), policy.NewCilk())
	// Whole-machine energy ≥ base draw × makespan + minimum core draw.
	lower := cfg.Power.Base * res.Makespan
	if res.Energy <= lower {
		t.Errorf("energy %g below base-only floor %g", res.Energy, lower)
	}
	if res.CoreEnergy >= res.Energy {
		t.Error("core energy must be less than whole-machine energy")
	}
	// Time accounting closes: busy+spin+halt = cores × makespan.
	total := res.BusyTime + res.SpinTime + res.HaltTime
	want := float64(cfg.Cores) * res.Makespan
	if math.Abs(total-want) > 1e-6*want {
		t.Errorf("state times sum to %g, want %g", total, want)
	}
}

func TestBatchTimesSumToMakespan(t *testing.T) {
	res := mustRun(t, machine.Opteron16(), tiny(4), policy.NewCilk())
	sum := 0.0
	for _, bt := range res.BatchTimes {
		sum += bt
	}
	// Cilk has no adjuster overhead and no DVFS stalls, so batch times
	// account for the whole makespan.
	if math.Abs(sum-res.Makespan) > 1e-9 {
		t.Errorf("batch times sum %g != makespan %g", sum, res.Makespan)
	}
}

func TestWATSAllocateByCapacity(t *testing.T) {
	// Verified through behaviour: classes profiled in batch 0 get
	// spread so the heavy class lands on the fast group.
	cfg := machine.Opteron16()
	levels := make([]int, 16)
	for i := 8; i < 16; i++ {
		levels[i] = 3
	}
	w := task.MustGenerate("watst", 4, []task.ClassSpec{
		{Name: "heavy", Count: 16, MeanWork: 0.08, JitterFrac: 0.05},
		{Name: "light", Count: 112, MeanWork: 0.01, JitterFrac: 0.05},
	}, 5)
	wats, err := policy.NewWATS(levels, 4)
	if err != nil {
		t.Fatal(err)
	}
	watsRes := mustRun(t, cfg, w, wats)
	fixed, err := policy.NewCilkFixed(levels, 4)
	if err != nil {
		t.Fatal(err)
	}
	cilkRes := mustRun(t, cfg, w, fixed)
	if watsRes.Makespan >= cilkRes.Makespan {
		t.Errorf("WATS (%.4f) should beat random stealing (%.4f) on the asymmetric machine",
			watsRes.Makespan, cilkRes.Makespan)
	}
}

func TestUtilizationInUnitRange(t *testing.T) {
	res := mustRun(t, machine.Opteron16(), tiny(3), policy.NewCilk())
	u := res.Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("utilization %g outside (0,1]", u)
	}
}

func TestResultString(t *testing.T) {
	res := mustRun(t, machine.Opteron16(), tiny(1), policy.NewCilk())
	if res.String() == "" {
		t.Error("empty String()")
	}
}

func TestParamsWithDefaults(t *testing.T) {
	// The zero Params is the default: Run reads Seed 0 as seed 1.
	cfg := machine.Opteron16()
	zero, err := Run(cfg, tiny(3), policy.NewCilk(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(cfg, tiny(3), policy.NewCilk(), Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Makespan != one.Makespan || zero.Energy != one.Energy || zero.Steals != one.Steals || zero.Probes != one.Probes {
		t.Errorf("Seed 0 ran %g s / %g J / %d steals / %d probes, seed 1 %g s / %g J / %d steals / %d probes; want identical runs",
			zero.Makespan, zero.Energy, zero.Steals, zero.Probes, one.Makespan, one.Energy, one.Steals, one.Probes)
	}
}

func TestSingleCoreMachine(t *testing.T) {
	cfg := machine.Generic(1)
	w := task.MustGenerate("solo", 2, []task.ClassSpec{
		{Name: "a", Count: 8, MeanWork: 0.01, JitterFrac: 0},
	}, 1)
	for _, p := range []policy.Policy{policy.NewCilk(), policy.NewCilkD(4), policy.NewEEWA()} {
		res := mustRun(t, cfg, w, p)
		// One core executes everything serially: makespan ≥ total work.
		if res.Makespan < w.TotalWork() {
			t.Errorf("%s: makespan %g below serial bound %g", p.Name(), res.Makespan, w.TotalWork())
		}
	}
}

func TestSingleBatchWorkload(t *testing.T) {
	res := mustRun(t, machine.Opteron16(), tiny(1), policy.NewEEWA())
	// With one batch there is nothing to adjust: no DVFS, no overhead.
	if res.AdjusterSimTime != 0 {
		t.Errorf("adjuster charged %g on a single-batch run", res.AdjusterSimTime)
	}
	if res.BatchCensus[0][0] != 16 {
		t.Error("single batch must run all-fast")
	}
}

func TestEEWAMemAwareExtension(t *testing.T) {
	cfg := machine.Opteron16()
	b := workloads.MemoryBound()
	w := b.Workload(1)

	fallback := mustRun(t, cfg, w, policy.NewEEWA())
	res := mustRun(t, cfg, w, mustNew(t, "eewa-memaware", cfg))

	if !res.MemoryBound {
		t.Fatal("workload should classify memory-bound")
	}
	// The extension must beat the paper's fallback decisively on energy
	// at essentially unchanged makespan.
	if res.Energy > 0.9*fallback.Energy {
		t.Errorf("MemAware energy %g should be well below fallback %g", res.Energy, fallback.Energy)
	}
	if res.Makespan > 1.05*fallback.Makespan {
		t.Errorf("MemAware makespan %g degrades vs fallback %g", res.Makespan, fallback.Makespan)
	}
	// Batch 0 fast, batch 1 calibration at a uniform lower level, then
	// a stable model-based configuration (cores below F0).
	if res.BatchCensus[0][0] != 16 {
		t.Errorf("batch 0 census %v, want all-F0", res.BatchCensus[0])
	}
	if res.BatchCensus[1][0] != 0 {
		t.Errorf("batch 1 census %v, want a uniform calibration level below F0", res.BatchCensus[1])
	}
	for bi := 2; bi < len(res.BatchCensus); bi++ {
		if res.BatchCensus[bi][0] == 16 {
			t.Errorf("batch %d stayed all-F0; the model found no configuration", bi)
		}
	}
}

func TestEEWAIgnoreMemoryBoundControl(t *testing.T) {
	cfg := machine.Opteron16()
	w := workloads.MemoryBound().Workload(1)
	res := mustRun(t, cfg, w, mustNew(t, "eewa-ignore", cfg))
	// The control applies the CPU-bound model regardless; with the
	// linear task model it is conservative (overestimates slow-level
	// times), so it must still not blow the makespan.
	cilk := mustRun(t, cfg, w, policy.NewCilk())
	if res.Makespan > 1.10*cilk.Makespan {
		t.Errorf("naive control makespan %g vs cilk %g", res.Makespan, cilk.Makespan)
	}
	// The profiler still detects memory-boundness (the engine reports
	// it); what the knob changes is that EEWA downscales anyway.
	if !res.MemoryBound {
		t.Error("profiler should still classify the workload memory-bound")
	}
	downscaled := false
	for _, census := range res.BatchCensus[1:] {
		if census[0] < 16 {
			downscaled = true
		}
	}
	if !downscaled {
		t.Error("eewa-ignore control should still downscale cores")
	}
}

func TestEEWAOfflineProfileSkipsWarmup(t *testing.T) {
	cfg := machine.Opteron16()
	b, _ := workloads.ByName("sha1")
	w := b.Workload(1)

	// First run collects the profile online.
	first := mustRun(t, cfg, w, policy.NewEEWA())
	if first.Profile == nil {
		t.Fatal("result should carry a reusable profile snapshot")
	}
	if err := first.Profile.Validate(cfg.Freqs); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}

	// Second run applies it offline: batch 0 is already downscaled.
	offline := policy.NewEEWA()
	offline.Offline = first.Profile
	res := mustRun(t, cfg, w, offline)
	if res.BatchCensus[0][0] == 16 {
		t.Errorf("batch 0 census %v — offline profile should configure immediately", res.BatchCensus[0])
	}
	// Energy lands within a whisker of the online run (batch 0's idle
	// down-clocking already recovers most of the warmup waste); the
	// structural win is the immediate configuration above.
	if res.Energy > 1.02*first.Energy {
		t.Errorf("offline run energy %g should not exceed online %g by >2%%", res.Energy, first.Energy)
	}
	// The paper's regime, pinned bit for bit: every sha1 iteration
	// repeats the profiled one's counts (5 file + 123 chunk tasks), so
	// each batch is planned against the profile's own T, and the round
	// trip is the one EXPERIMENTS.md §IV-D reports.
	const wantEnergy, wantMakespan = 0x407a64886bf040f4, 0x3ffc1f2959a90258 // 422.2833… J, 1.75760… s
	if math.Float64bits(res.Energy) != wantEnergy || math.Float64bits(res.Makespan) != wantMakespan {
		t.Errorf("offline round trip: energy %v J (%#x), makespan %v s (%#x); golden %v J, %v s", res.Energy,
			math.Float64bits(res.Energy), res.Makespan, math.Float64bits(res.Makespan),
			math.Float64frombits(wantEnergy), math.Float64frombits(wantMakespan))
	}
	for bi, census := range res.BatchCensus {
		if !slices.Equal(census, []int{5, 0, 0, 11}) {
			t.Errorf("offline round trip: batch %d census %v, golden [5 0 0 11]", bi, census)
		}
	}
	if len(res.BatchCensus) != 10 {
		t.Errorf("offline round trip: %d batches, golden 10", len(res.BatchCensus))
	}
}

func TestEEWAOfflineProfileWrongMachineIgnored(t *testing.T) {
	cfg := machine.Opteron16()
	b, _ := workloads.ByName("sha1")
	w := b.Workload(1)
	first := mustRun(t, cfg, w, policy.NewEEWA())

	// Mutate the snapshot's ladder: it must be rejected and the run
	// must behave like a plain online run (batch 0 all-fast).
	bad := *first.Profile
	bad.Freqs = []float64{9.9, 1.0, 0.5, 0.1}
	offline := policy.NewEEWA()
	offline.Offline = &bad
	res := mustRun(t, cfg, w, offline)
	if res.BatchCensus[0][0] != 16 {
		t.Errorf("batch 0 census %v — incompatible snapshot must be ignored", res.BatchCensus[0])
	}
}

// --- engine failure injection and edge machines ---------------------------

// badPolicy returns broken plans to exercise the engine's validation.
type badPolicy struct {
	nilAssignment bool
}

func (*badPolicy) Name() string { return "bad" }
func (p *badPolicy) BeginBatch(int, *profile.Profiler, *policy.Env) policy.Plan {
	if p.nilAssignment {
		return policy.Plan{}
	}
	// An assignment missing cores: invalid for any machine.
	return policy.Plan{Assignment: &cgroup.Assignment{
		Groups:     []cgroup.Group{{Level: 0, Cores: []int{0}}},
		ClassGroup: map[string]int{},
		CoreGroup:  []int{0},
	}}
}
func (*badPolicy) OutOfWork(int) policy.OutOfWorkAction {
	return policy.OutOfWorkAction{State: machine.Spinning, FreqLevel: -1}
}

func TestEngineRejectsNilAssignment(t *testing.T) {
	if _, err := Run(machine.Opteron16(), tiny(1), &badPolicy{nilAssignment: true}, Params{}); err == nil {
		t.Error("nil assignment should error")
	}
}

func TestEngineRejectsInvalidAssignment(t *testing.T) {
	if _, err := Run(machine.Opteron16(), tiny(1), &badPolicy{}, Params{}); err == nil {
		t.Error("invalid assignment should error")
	}
}

func TestSingleFrequencyLadder(t *testing.T) {
	// A machine with one frequency level: every policy degenerates to
	// plain work stealing and must still run correctly.
	cfg := machine.Opteron16()
	cfg.Freqs = machine.FreqLadder{2.5}
	cfg.Power.Volt = []float64{1.30}
	w := tiny(3)
	for _, p := range []policy.Policy{policy.NewCilk(), policy.NewCilkD(1), policy.NewEEWA()} {
		res := mustRun(t, cfg, w, p)
		if res.BatchCensus[0][0] != 16 {
			t.Errorf("%s: census %v", p.Name(), res.BatchCensus[0])
		}
	}
}

func TestMoreCoresThanTasks(t *testing.T) {
	cfg := machine.Opteron16()
	w := task.MustGenerate("fewtasks", 3, []task.ClassSpec{
		{Name: "only", Count: 3, MeanWork: 0.05, JitterFrac: 0.05},
	}, 1)
	for _, p := range []policy.Policy{policy.NewCilk(), policy.NewEEWA()} {
		res := mustRun(t, cfg, w, p)
		// Makespan at least one task's duration, and everything ran.
		if res.Makespan <= 0.04 {
			t.Errorf("%s: makespan %g too small", p.Name(), res.Makespan)
		}
	}
}

func TestZeroDVFSLatency(t *testing.T) {
	cfg := machine.Opteron16()
	cfg.DVFSLatency = 0
	res := mustRun(t, cfg, tiny(3), policy.NewEEWA())
	if res.Makespan <= 0 {
		t.Error("degenerate run")
	}
}

func TestHighJitterRobustness(t *testing.T) {
	// 50% jitter: the adjuster's predictions are badly wrong every
	// batch; preference stealing must still complete every task and
	// keep the makespan bounded.
	cfg := machine.Opteron16()
	w := task.MustGenerate("wild", 6, []task.ClassSpec{
		{Name: "h", Count: 10, MeanWork: 0.08, JitterFrac: 0.5},
		{Name: "l", Count: 118, MeanWork: 0.01, JitterFrac: 0.5},
	}, 3)
	cilk := mustRun(t, cfg, w, policy.NewCilk())
	ee := mustRun(t, cfg, w, policy.NewEEWA())
	if ee.Makespan > 1.35*cilk.Makespan {
		t.Errorf("EEWA under 50%% jitter: %.4f vs cilk %.4f (>35%% degradation)", ee.Makespan, cilk.Makespan)
	}
}

func TestRecorderSeesEveryTask(t *testing.T) {
	w := tiny(2)
	var spans int
	params := Params{}
	params.Recorder = recorderFunc(func() { spans++ })
	if _, err := Run(machine.Opteron16(), w, policy.NewEEWA(), params); err != nil {
		t.Fatal(err)
	}
	if spans != w.TotalTasks() {
		t.Errorf("recorded %d spans, want %d", spans, w.TotalTasks())
	}
}

type recorderFunc func()

func (f recorderFunc) Record(int, float64, float64, string, int) { f() }

// TestEngineInvariantsProperty fuzzes the whole simulator: random
// workloads on random machine sizes under every policy must conserve
// tasks, keep energy above the physical floor, and respect the serial
// lower bound.
func TestEngineInvariantsProperty(t *testing.T) {
	f := func(seed uint64, coresRaw, batchRaw uint8) bool {
		rng := newTestRNG(seed)
		cores := int(coresRaw%24) + 1
		batches := int(batchRaw%4) + 1
		specs := []task.ClassSpec{
			{Name: "a", Count: rng.Intn(24) + 1, MeanWork: rng.Range(0.001, 0.05), JitterFrac: 0.2},
			{Name: "b", Count: rng.Intn(48) + 1, MeanWork: rng.Range(0.001, 0.02), JitterFrac: 0.2},
		}
		w, err := task.Generate("fuzz", batches, specs, seed)
		if err != nil {
			return false
		}
		cfg := machine.Generic(cores)
		for _, p := range []policy.Policy{policy.NewCilk(), policy.NewCilkD(len(cfg.Freqs)), policy.NewEEWA()} {
			params := Params{}
			params.Seed = seed ^ 0xABCD
			res, err := Run(cfg, w, p, params)
			if err != nil {
				return false
			}
			total := w.TotalWork()
			maxRatio := cfg.Freqs.Ratio(cfg.Freqs.Slowest())
			// Task conservation through busy-time bounds.
			if res.BusyTime < total-1e-6 || res.BusyTime > total*maxRatio+1e-6 {
				return false
			}
			// Serial bound: m cores cannot beat total/m at F0.
			if res.Makespan < total/float64(cores)-1e-9 {
				return false
			}
			// Physical energy floor: base power over the makespan.
			if res.Energy <= cfg.Power.Base*res.Makespan {
				return false
			}
			// Census sanity: every batch accounts for every core.
			for _, census := range res.BatchCensus {
				n := 0
				for _, c := range census {
					n += c
				}
				if n != cores {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
