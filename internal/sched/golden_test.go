package sched

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// table2Sums is Σ makespan (s) and Σ energy (J) of one policy's runs.
type table2Sums struct{ makespan, energy float64 }

// table2Golden is what the Table II matrix simulated when this test
// was written: the sums per policy over the 7 benchmarks × workload
// seeds 1, 2, 3 on machine.Opteron16() with Params{Seed: 1}. A change
// that moves one of these has changed a scheduling decision or the
// machine model, and says so.
var table2Golden = map[string]table2Sums{
	policy.IDCilk:  {41.99839559628641, 14447.448085122589},
	policy.IDCilkD: {42.007845596286415, 12630.166086228188},
	policy.IDWATS:  {72.43003102938329, 18097.100211542387},
	policy.IDEEWA:  {39.63406659795239, 11454.518693309892},
}

// table2GoldenMJPerTask is the benchmark's sim-table2 energy_mj_per_unit
// at seed 1: the same runs summed in cell order (seed, benchmark,
// policy) — the expression bench/sim.go reports.
const table2GoldenMJPerTask = 526.6855754855194

// sameFloat is bit equality on amd64, where the constants were
// captured; other ports may fuse multiply-adds, so they get 1e-9.
func sameFloat(got, want float64) bool {
	if runtime.GOARCH == "amd64" {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}

func TestTable2Golden(t *testing.T) {
	cfg := machine.Opteron16()
	got := map[string]table2Sums{}
	var energies []float64
	tasks := 0
	for seed := uint64(1); seed <= 3; seed++ {
		for _, b := range workloads.All() {
			w := b.Workload(seed)
			for _, id := range policy.IDs() {
				p, err := policy.New(id, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(cfg, w, p, Params{Seed: 1})
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", b.Name, id, seed, err)
				}
				got[id] = table2Sums{got[id].makespan + res.Makespan, got[id].energy + res.Energy}
				energies = append(energies, res.Energy)
				tasks += w.TotalTasks()
			}
		}
	}
	for _, id := range policy.IDs() {
		want, g := table2Golden[id], got[id]
		if !sameFloat(g.makespan, want.makespan) || !sameFloat(g.energy, want.energy) {
			t.Errorf("%s: Σ makespan %v s, Σ energy %v J; golden %v s, %v J", id, g.makespan, g.energy, want.makespan, want.energy)
		}
	}
	if mj := stats.Sum(energies) * 1e3 / float64(tasks); !sameFloat(mj, table2GoldenMJPerTask) {
		t.Errorf("energy %v mJ/task, golden %v", mj, table2GoldenMJPerTask)
	}
}
