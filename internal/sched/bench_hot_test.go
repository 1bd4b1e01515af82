package sched

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/task"
	"repro/internal/workloads"
)

// benchHotPath measures the simulator's per-task cost on a deep
// single-class backlog: 3 batches × 1024 tasks on 4 cores, the regime
// where the SoA hot path (pool pushes, indexed completion events,
// profiler refs) dominates per-batch planning — the regime the
// benchmark's sched.deep_host_ns_per_task_* probes time; allocs/op is
// per full run — per-task allocations are zero once the slabs have
// grown.
func benchHotPath(b *testing.B, p policy.Policy) {
	cfg := machine.Generic(4)
	w := task.MustGenerate("dens", 3, []task.ClassSpec{
		{Name: "dens", Count: 1024, MeanWork: 1e-4, JitterFrac: 0.2},
	}, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, w, p, Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimHotPath(b *testing.B)     { benchHotPath(b, policy.NewCilk()) }
func BenchmarkSimHotPathEEWA(b *testing.B) { benchHotPath(b, policy.NewEEWA()) }

// BenchmarkTable2Matrix is the sim-table2 workload's regime: one op is
// the 84-cell Table II matrix (7 benchmarks × 4 policies × workload
// seeds 1–3) on machine.Opteron16(), TestTable2Golden's runs. Batches
// are shallow and 16 cores hunt for work, so per-batch planning and the
// steal walks show here that BenchmarkSimHotPath's 4-core deep backlog
// hides.
func BenchmarkTable2Matrix(b *testing.B) {
	cfg := machine.Opteron16()
	var ws []*task.Workload
	for seed := uint64(1); seed <= 3; seed++ {
		for _, bm := range workloads.All() {
			ws = append(ws, bm.Workload(seed))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			for _, id := range policy.IDs() {
				p, err := policy.New(id, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Run(cfg, w, p, Params{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
