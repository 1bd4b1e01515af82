package eewa

// The bench harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md §4 maps experiment → bench). Figure-level
// benches execute complete experiment drivers per iteration and report
// the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced numbers.
// Micro-benches for the underlying data structures live next to their
// packages (internal/deque, internal/kernels).

import (
	"testing"

	"repro/internal/cctable"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// BenchmarkFig1Schedules regenerates the §II motivating example.
func BenchmarkFig1Schedules(b *testing.B) {
	var last []experiments.Fig1Schedule
	for i := 0; i < b.N; i++ {
		last = experiments.Fig1(1.0)
	}
	b.ReportMetric(last[0].Energy, "J(a)")
	b.ReportMetric(last[1].Energy, "J(b)")
}

// BenchmarkFig3Backtracking runs Algorithm 1 on the paper's worked
// 4-class / 16-core example (the tuple must be (1,1,2,2)).
func BenchmarkFig3Backtracking(b *testing.B) {
	tab, err := cctable.FromCounts(experiments.Fig3Counts, machine.Opteron16().Freqs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuple, ok := tab.SearchTuple(16)
		if !ok || tuple[0] != 1 {
			b.Fatal("search regressed")
		}
	}
}

// benchFig6 runs one benchmark under one policy per iteration and
// reports normalized energy/time versus a Cilk baseline.
func benchFig6(b *testing.B, bench string) {
	cfg := machine.Opteron16()
	bm, err := workloads.ByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	w := bm.Workload(1)
	cilk, err := sched.Run(cfg, w, policy.NewCilk(), sched.Params{})
	if err != nil {
		b.Fatal(err)
	}
	var ee *sched.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ee, err = sched.Run(cfg, w, policy.NewEEWA(), sched.Params{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ee.Energy/cilk.Energy, "normE")
	b.ReportMetric(ee.Makespan/cilk.Makespan, "normT")
}

// BenchmarkFig6 regenerates the normalized time/energy comparison for
// every Table II benchmark (one sub-bench per benchmark).
func BenchmarkFig6(b *testing.B) {
	for _, name := range workloads.Names() {
		b.Run(name, func(b *testing.B) { benchFig6(b, name) })
	}
}

// BenchmarkFig7 regenerates the frozen-asymmetric-machine comparison
// and reports the Cilk and WATS slowdowns relative to EEWA for SHA-1
// (the paper's most skewed benchmark).
func BenchmarkFig7(b *testing.B) {
	cfg := machine.Opteron16()
	var rows []experiments.Fig7Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig7(cfg, []uint64{1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Benchmark == "sha1" {
			b.ReportMetric(r.RelTime["Cilk"], "cilk_x")
			b.ReportMetric(r.RelTime["WATS"], "wats_x")
		}
	}
}

// BenchmarkFig8_SHA1Census regenerates the per-batch frequency census
// and reports the steady-state fast/slow split.
func BenchmarkFig8_SHA1Census(b *testing.B) {
	cfg := machine.Opteron16()
	var res *experiments.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig8(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res.Census[len(res.Census)-1]
	b.ReportMetric(float64(last[0]), "fast_cores")
	b.ReportMetric(float64(last[len(last)-1]), "slow_cores")
}

// BenchmarkFig9 regenerates the DMC scalability sweep and reports the
// 16-core EEWA energy ratio.
func BenchmarkFig9(b *testing.B) {
	var points []sweep.Record
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.Fig9([]uint64{1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Cores == 16 && p.Policy == "eewa" {
			b.ReportMetric(p.NormEnergy, "normE@16")
		}
		if p.Cores == 4 && p.Policy == "eewa" {
			b.ReportMetric(p.NormTime, "normT@4")
		}
	}
}

// BenchmarkTable3_Overhead measures the adjuster overhead share across
// the suite (paper: < 2 % everywhere).
func BenchmarkTable3_Overhead(b *testing.B) {
	cfg := machine.Opteron16()
	var rows []experiments.Table3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table3(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	maxPct := 0.0
	for _, r := range rows {
		if r.Percent > maxPct {
			maxPct = r.Percent
		}
	}
	b.ReportMetric(maxPct, "max_overhead_%")
}

// BenchmarkAdjusterDecision isolates one full adjuster decision
// (profile classes → CC table → Algorithm 1 → c-groups): the per-batch
// cost Table III charges.
func BenchmarkAdjusterDecision(b *testing.B) {
	cfg := machine.Opteron16()
	bm, _ := workloads.ByName("sha1")
	w := bm.Workload(1)
	// One EEWA run per iteration measures ~9 adjuster invocations plus
	// the simulation; the host overhead metric isolates the decisions.
	var res *sched.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = sched.Run(cfg, w, policy.NewEEWA(), sched.Params{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.AdjusterHostTime.Microseconds()), "host_µs/run")
}

// --- Ablation benches (DESIGN.md §5) ------------------------------------

// benchPolicies runs w on cfg under each named policy (policy.New) as
// a sub-benchmark and reports the last run's metric ("J" energy or "s"
// makespan).
func benchPolicies(b *testing.B, cfg machine.Config, w *Workload, unit string, names ...string) {
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			var res *sched.Result
			for i := 0; i < b.N; i++ {
				p, err := policy.New(name, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res, err = sched.Run(cfg, w, p, sched.Params{}); err != nil {
					b.Fatal(err)
				}
			}
			if unit == "J" {
				b.ReportMetric(res.Energy, unit)
			} else {
				b.ReportMetric(res.Makespan, unit)
			}
		})
	}
}

// BenchmarkAblationSearch compares Algorithm 1 (eewa) against
// exhaustive and greedy search as the adjuster's solver on the md5 mix.
func BenchmarkAblationSearch(b *testing.B) {
	bm, _ := workloads.ByName("md5")
	benchPolicies(b, machine.Opteron16(), bm.Workload(1), "J", "eewa", "eewa-exhaustive", "eewa-greedy")
}

// BenchmarkAblationGranularity compares the granularity-aware CC table
// (eewa) against the paper's divisible-load formula on the chunkiest
// mix.
func BenchmarkAblationGranularity(b *testing.B) {
	bm, _ := workloads.ByName("sha1")
	benchPolicies(b, machine.Opteron16(), bm.Workload(1), "s", "eewa", "eewa-divisible")
}

// BenchmarkAblationPackages quantifies the package-voltage-coupling
// effect by re-running sha1/EEWA on per-core voltage planes.
func BenchmarkAblationPackages(b *testing.B) {
	bm, _ := workloads.ByName("sha1")
	w := bm.Workload(1)
	for _, cfg := range []machine.Config{machine.Opteron16(), machine.Uncoupled(machine.Opteron16())} {
		b.Run(cfg.Name, func(b *testing.B) { benchPolicies(b, cfg, w, "J", "eewa") })
	}
}

// BenchmarkSimulatorThroughput measures raw engine speed (events/sec
// proxy): one full Cilk run of the densest workload per iteration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := machine.Opteron16()
	bm, _ := workloads.ByName("bzip2")
	w := bm.Workload(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(cfg, w, policy.NewCilk(), sched.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemBoundExtension regenerates the §IV-D future-work
// comparison: the paper's fallback (eewa) vs the frequency-response
// model (eewa-memaware), each as its energy saving over Cilk.
func BenchmarkMemBoundExtension(b *testing.B) {
	var recs []sweep.Record
	var err error
	for i := 0; i < b.N; i++ {
		if recs, err = experiments.MemBound([]uint64{1}); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range recs {
		switch r.Policy {
		case "eewa":
			b.ReportMetric(1-r.NormEnergy, "fallback_save")
		case "eewa-memaware":
			b.ReportMetric(1-r.NormEnergy, "memaware_save")
		}
	}
}
