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

// table2Counts is Σ Probes, Σ Steals, Σ Migrated and Σ DVFSTransitions
// of one policy's runs. Probes and steals never reach makespan or
// energy on their own, so a miscounted dry walk shows only here.
type table2Counts struct{ probes, steals, migrated, dvfs int }

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

// table2CountsGolden is the same matrix's counts, captured with
// table2Golden's constants, before dry steal walks stopped probing.
var table2CountsGolden = map[string]table2Counts{
	policy.IDCilk:  {95245, 4704, 0, 0},
	policy.IDCilkD: {95245, 4704, 0, 6384},
	policy.IDWATS:  {213741, 5400, 4786, 210},
	policy.IDEEWA:  {147270, 2908, 693, 5790},
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
	counts := map[string]table2Counts{}
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
				n := counts[id]
				counts[id] = table2Counts{n.probes + res.Probes, n.steals + res.Steals, n.migrated + res.Migrated, n.dvfs + res.DVFSTransitions}
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
		if g, want := counts[id], table2CountsGolden[id]; g != want {
			t.Errorf("%s: Σ probes/steals/migrated/DVFS %+v; golden %+v", id, g, want)
		}
	}
	if mj := stats.Sum(energies) * 1e3 / float64(tasks); !sameFloat(mj, table2GoldenMJPerTask) {
		t.Errorf("energy %v mJ/task, golden %v", mj, table2GoldenMJPerTask)
	}
}

// memBoundGolden pins the memory-bound matrix the way table2Golden pins
// Table II: Σ makespan (s) and Σ energy (J) over workloads.MemoryBound()
// at workload seeds 1, 2, 3 on machine.Opteron16() with Params{Seed: 1},
// captured at the commit before the CC column builder was unified. The
// MemAware row is the fitted path: it moves if the builder ignores a
// class's MemFrac.
var memBoundGolden = map[string]table2Sums{
	"cilk":          {4.997507584747343, 1719.1426091530939},
	"eewa-fallback": {4.998857584747343, 1479.094603971535},
	"eewa-memaware": {4.687067846454407, 1116.9986532266194},
	"eewa-ignore":   {3.9024262436403516, 1126.9640993043995},
}

func TestMemBoundGolden(t *testing.T) {
	cfg := machine.Opteron16()
	policies := []struct {
		name string
		mk   func() policy.Policy
	}{
		{"cilk", func() policy.Policy { return policy.NewCilk() }},
		{"eewa-fallback", func() policy.Policy { return policy.NewEEWA() }},
		{"eewa-memaware", func() policy.Policy { e := policy.NewEEWA(); e.MemAware = true; return e }},
		{"eewa-ignore", func() policy.Policy { e := policy.NewEEWA(); e.IgnoreMemoryBound = true; return e }},
	}
	for _, pol := range policies {
		name, mk := pol.name, pol.mk
		var got table2Sums
		for seed := uint64(1); seed <= 3; seed++ {
			res, err := Run(cfg, workloads.MemoryBound().Workload(seed), mk(), Params{Seed: 1})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			got = table2Sums{got.makespan + res.Makespan, got.energy + res.Energy}
		}
		want := memBoundGolden[name]
		if !sameFloat(got.makespan, want.makespan) || !sameFloat(got.energy, want.energy) {
			t.Errorf("%s: Σ makespan %v s, Σ energy %v J; golden %v s, %v J", name, got.makespan, got.energy, want.makespan, want.energy)
		}
	}
}
