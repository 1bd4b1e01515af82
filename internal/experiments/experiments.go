// Package experiments contains one driver per table and figure of the
// paper's evaluation (§IV), plus the ablations called out in DESIGN.md.
// Each driver returns a typed result that the cmd/eewa-bench CLI and
// the repository's bench harness render; the drivers themselves never
// print. Fig. 6 and Fig. 9 are queries on the internal/sweep grid and
// return its records; every driver runs the engine on the workload's
// seed, the grid's seed rule.
//
// Experiment index (see DESIGN.md §4):
//
//	Fig1   — energy arithmetic of four schedules on a DVFS dual-core
//	Fig3   — the worked k-tuple example (in cctable tests; CLI renders it)
//	Fig6   — normalized time & energy, 7 benchmarks × {Cilk, Cilk-D, EEWA}
//	Fig7   — performance on frozen asymmetric configs × {Cilk, WATS, EEWA}
//	Fig8   — per-batch frequency census of SHA-1 under EEWA
//	Fig9   — DMC scalability over 4/8/12/16 cores
//	Table3 — adjuster overhead per benchmark
package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cctable"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// obsReg is the registry Observe installed; nil means no metrics.
var obsReg *obs.Registry

// Observe routes the engine metrics of every subsequent driver
// simulation into reg, so a CLI can snapshot a whole experiment suite
// with one registry. Pass nil to disable. Not safe to call while
// drivers are running.
func Observe(reg *obs.Registry) { obsReg = reg }

// runPolicy executes a benchmark under a policy for each seed and
// returns the per-seed results. The workload is regenerated per seed so
// jitter varies alongside victim selection.
func runPolicy(cfg machine.Config, b workloads.Benchmark, mk func() policy.Policy, seeds []uint64) ([]*sched.Result, error) {
	out := make([]*sched.Result, 0, len(seeds))
	for _, seed := range seeds {
		w := b.Workload(seed)
		res, err := sched.Run(cfg, w, mk(), sched.Params{Seed: seed, Obs: obsReg})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s seed %d: %w", b.Name, mk().Name(), seed, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func meanMakespan(rs []*sched.Result) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Makespan
	}
	return stats.Mean(xs)
}

func meanEnergy(rs []*sched.Result) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Energy
	}
	return stats.Mean(xs)
}

// --- Fig. 1 ------------------------------------------------------------

// Fig1Schedule is one of the four schedules of the paper's motivating
// example: tasks γ0 (2t) and γ1 (t) on a dual-core with levels f0 and
// 0.5·f0.
type Fig1Schedule struct {
	Name   string
	Time   float64 // units of t
	Energy float64 // joules with the model's dual-core power numbers
}

// Fig1 reproduces the §II example with the energy model instantiated on
// a two-core, two-level machine (f0 and 0.5·f0, per-core voltage
// planes so the arithmetic matches the paper's p0/p1 form). The
// returned schedules are (a)–(d) in paper order; (b) must minimize
// energy without extending time beyond 2t.
func Fig1(t float64) []Fig1Schedule {
	cfg := machine.Config{
		Name:  "dual",
		Cores: 2,
		Freqs: machine.FreqLadder{2.0, 1.0},
		Power: machine.PowerModel{
			Static:   2.0,
			DynCoeff: 12.0 / (2.0 * 1.2 * 1.2),
			Volt:     []float64{1.2, 1.0},
			HaltFrac: 0.15,
			Base:     0, // isolate the cores, as the paper's arithmetic does
		},
		PackageSize: 1,
	}

	// run executes γ0 (work 2t) on core 0 at lvl0 and γ1 (work t) on
	// core 1 at lvl1; finished cores spin at their level until the
	// barrier (the traditional-scheduler behaviour the example
	// analyzes).
	run := func(lvl0, lvl1 int) (float64, float64) {
		m := machine.New(cfg)
		m.SetFreq(0, 0, lvl0)
		m.SetFreq(0, 1, lvl1)
		t0 := 2 * t * cfg.Freqs.Ratio(lvl0)
		t1 := t * cfg.Freqs.Ratio(lvl1)
		m.SetState(0, 0, machine.Busy)
		m.SetState(0, 1, machine.Busy)
		end := t0
		if t1 > end {
			end = t1
		}
		// Charge in chronological order: the earlier finisher starts
		// spinning first.
		if t0 <= t1 {
			m.SetState(t0, 0, machine.Spinning)
			m.SetState(t1, 1, machine.Spinning)
		} else {
			m.SetState(t1, 1, machine.Spinning)
			m.SetState(t0, 0, machine.Spinning)
		}
		return end, m.EnergyAt(end)
	}

	mkSchedule := func(name string, lvl0, lvl1 int) Fig1Schedule {
		tm, e := run(lvl0, lvl1)
		return Fig1Schedule{Name: name, Time: tm / t, Energy: e}
	}
	return []Fig1Schedule{
		mkSchedule("(a) both fast", 0, 0),
		mkSchedule("(b) γ1 core slow", 0, 1),
		mkSchedule("(c) γ0 core slow", 1, 0),
		mkSchedule("(d) both slow", 1, 1),
	}
}

// --- Fig. 6 ------------------------------------------------------------

// Fig6 runs the seven benchmarks under Cilk, Cilk-D and EEWA on 16
// cores — the sweep's default grid — and returns one record per
// (benchmark, policy), normalized against Cilk.
func Fig6(seeds []uint64) ([]sweep.Record, error) {
	return query(sweep.Grid{Seeds: seeds})
}

// query runs a grid's cells, feeding the registry Observe installed,
// and folds them into seed-averaged records.
func query(g sweep.Grid) ([]sweep.Record, error) {
	g.Obs = obsReg
	cells, err := sweep.RunCells(g, 0)
	if err != nil {
		return nil, err
	}
	return sweep.Aggregate(cells), nil
}

// --- Fig. 7 ------------------------------------------------------------

// Fig7Row is one benchmark's bar group on the frozen asymmetric
// machine: execution time normalized against EEWA.
type Fig7Row struct {
	Benchmark string
	// Levels is the frozen per-core frequency configuration (EEWA's
	// modal configuration for the benchmark).
	Levels []int
	// RelTime maps policy → makespan / EEWA makespan.
	RelTime map[string]float64
}

// Fig7 reproduces the asymmetric-machine comparison: for each
// benchmark, EEWA's most frequent frequency configuration is frozen
// into the hardware, then Cilk (random stealing) and WATS (workload-
// aware stealing, no DVFS) run on it; EEWA itself runs with DVFS
// control as usual. The paper reports Cilk at 1.17–2.92× and WATS at
// 1.05–1.24× EEWA's execution time.
func Fig7(cfg machine.Config, seeds []uint64) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, b := range workloads.All() {
		eewaRS, err := runPolicy(cfg, b, func() policy.Policy { return policy.NewEEWA() }, seeds)
		if err != nil {
			return nil, err
		}
		levels := ModalLevels(eewaRS[0].BatchCensus)
		cilkRS, err := runPolicy(cfg, b, func() policy.Policy {
			p, perr := policy.NewCilkFixed(levels, len(cfg.Freqs))
			if perr != nil {
				panic(perr)
			}
			return p
		}, seeds)
		if err != nil {
			return nil, err
		}
		watsRS, err := runPolicy(cfg, b, func() policy.Policy {
			p, perr := policy.NewWATS(levels, len(cfg.Freqs))
			if perr != nil {
				panic(perr)
			}
			return p
		}, seeds)
		if err != nil {
			return nil, err
		}
		eewaT := meanMakespan(eewaRS)
		rows = append(rows, Fig7Row{
			Benchmark: b.Name,
			Levels:    levels,
			RelTime: map[string]float64{
				"Cilk": meanMakespan(cilkRS) / eewaT,
				"WATS": meanMakespan(watsRS) / eewaT,
				"EEWA": 1.0,
			},
		})
	}
	return rows, nil
}

// ModalLevels converts the most frequent census (over batches 1..n-1 —
// batch 0 is always all-F0 warmup) into a contiguous per-core level
// assignment, the way the paper freezes "the most often used frequency
// configurations in different batches" for Fig. 7.
func ModalLevels(censuses [][]int) []int {
	counts := map[string]int{}
	keyOf := func(c []int) string { return fmt.Sprint(c) }
	var keys []string
	byKey := map[string][]int{}
	for i, c := range censuses {
		if i == 0 && len(censuses) > 1 {
			continue
		}
		k := keyOf(c)
		if counts[k] == 0 {
			keys = append(keys, k)
		}
		counts[k]++
		byKey[k] = c
	}
	sort.SliceStable(keys, func(i, j int) bool { return counts[keys[i]] > counts[keys[j]] })
	modal := byKey[keys[0]]
	var levels []int
	for lvl, n := range modal {
		for i := 0; i < n; i++ {
			levels = append(levels, lvl)
		}
	}
	return levels
}

// --- Fig. 8 ------------------------------------------------------------

// Fig8Result is the per-batch frequency census of SHA-1 under EEWA.
type Fig8Result struct {
	Freqs  machine.FreqLadder
	Census [][]int // [batch][level]
}

// Fig8 runs SHA-1 under EEWA and returns the per-batch core counts at
// each frequency. The paper's trace: batch 1 entirely at 2.5 GHz; from
// batch 3 onward 5 cores at 2.5 GHz and 11 at 0.8 GHz.
func Fig8(cfg machine.Config, seed uint64) (*Fig8Result, error) {
	b, err := workloads.ByName("sha1")
	if err != nil {
		return nil, err
	}
	rs, err := runPolicy(cfg, b, func() policy.Policy { return policy.NewEEWA() }, []uint64{seed})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Freqs: cfg.Freqs, Census: rs[0].BatchCensus}, nil
}

// --- Fig. 9 ------------------------------------------------------------

// Fig9 runs DMC under Cilk, Cilk-D and EEWA at 4, 8, 12 and 16 cores
// and returns one record per (cores, policy), normalized against Cilk at
// the same core count. The paper's shape: at 4 cores EEWA saves nothing
// (every core is needed at full speed) and costs ≈0.3 % time; savings
// grow with the core count.
func Fig9(seeds []uint64) ([]sweep.Record, error) {
	return query(sweep.Grid{Benchmarks: []string{"dmc"}, Cores: []int{4, 8, 12, 16}, Seeds: seeds})
}

// --- Table III ----------------------------------------------------------

// Table3Row is one benchmark's overhead accounting.
type Table3Row struct {
	Benchmark string
	// ExecTime is the simulated execution time (seconds).
	ExecTime float64
	// SimOverhead is the simulated adjuster charge included in
	// ExecTime (seconds).
	SimOverhead float64
	// HostOverhead is the measured wall time of the actual CC-table +
	// Algorithm 1 implementation across the run.
	HostOverhead time.Duration
	// Percent is SimOverhead / ExecTime × 100 — the paper's last
	// column, which stays under 2 %.
	Percent float64
}

// Table3 measures the frequency-adjuster overhead for every benchmark
// under EEWA.
func Table3(cfg machine.Config, seed uint64) ([]Table3Row, error) {
	var rows []Table3Row
	for _, b := range workloads.All() {
		rs, err := runPolicy(cfg, b, func() policy.Policy { return policy.NewEEWA() }, []uint64{seed})
		if err != nil {
			return nil, err
		}
		r := rs[0]
		rows = append(rows, Table3Row{
			Benchmark:    b.Name,
			ExecTime:     r.Makespan,
			SimOverhead:  r.AdjusterSimTime,
			HostOverhead: r.AdjusterHostTime,
			Percent:      100 * r.AdjusterSimTime / r.Makespan,
		})
	}
	return rows, nil
}

// --- Memory-bound extension (§IV-D future work) ---------------------------

// MemBoundResult compares the handling of a memory-bound application.
type MemBoundResult struct {
	// Cilk is the baseline; Fallback is the paper's §IV-D behaviour
	// (detect and revert to classic stealing); MemAware is the
	// future-work extension (calibrate + frequency-response model).
	Cilk, Fallback, MemAware *sched.Result
}

// MemBound runs the synthetic memory-bound workload under the three
// disciplines. Expected shape: Fallback saves only what idle
// down-clocking yields; MemAware finds a model-corrected configuration
// and saves substantially more at unchanged makespan.
func MemBound(cfg machine.Config, seeds []uint64) (*MemBoundResult, error) {
	b := workloads.MemoryBound()
	out := &MemBoundResult{}
	runs := []struct {
		mk  func() policy.Policy
		dst **sched.Result
	}{
		{func() policy.Policy { return policy.NewCilk() }, &out.Cilk},
		{func() policy.Policy { return policy.NewEEWA() }, &out.Fallback},
		{func() policy.Policy {
			e := policy.NewEEWA()
			e.MemAware = true
			return e
		}, &out.MemAware},
	}
	for _, r := range runs {
		rs, err := runPolicy(cfg, b, r.mk, seeds)
		if err != nil {
			return nil, err
		}
		// Keep the first seed's full result; average scalar fields.
		res := *rs[0]
		res.Makespan = meanMakespan(rs)
		res.Energy = meanEnergy(rs)
		*r.dst = &res
	}
	return out, nil
}

// --- Ablations (DESIGN.md §5) -------------------------------------------

// AblationRow compares EEWA variants on one benchmark.
type AblationRow struct {
	Benchmark string
	// Energy maps variant → mean energy (J); Time maps variant →
	// mean makespan (s).
	Energy map[string]float64
	Time   map[string]float64
}

// variant is one ablation column: a policy on a machine.
type variant struct {
	cfg machine.Config
	mk  func() policy.Policy
}

func newEEWA() policy.Policy { return policy.NewEEWA() }

// AblationSearch compares Algorithm 1 against the exhaustive optimum
// and the greedy heuristic as EEWA's tuple search.
func AblationSearch(cfg machine.Config, seeds []uint64) ([]AblationRow, error) {
	return runAblation(seeds, map[string]variant{
		"backtracking": {cfg, newEEWA},
		"exhaustive": {cfg, func() policy.Policy {
			e := policy.NewEEWA()
			e.SearchFn = func(t *cctable.Table, m int) ([]int, bool) { return t.ExhaustiveSearch(m, cfg.Power) }
			return e
		}},
		"greedy": {cfg, func() policy.Policy {
			e := policy.NewEEWA()
			e.SearchFn = func(t *cctable.Table, m int) ([]int, bool) { return t.GreedySearch(m) }
			return e
		}},
	})
}

// AblationGranularity compares the granularity-aware CC table (our
// default) against the paper's divisible-load formula.
func AblationGranularity(cfg machine.Config, seeds []uint64) ([]AblationRow, error) {
	return runAblation(seeds, map[string]variant{
		"granular": {cfg, newEEWA},
		"divisible": {cfg, func() policy.Policy {
			e := policy.NewEEWA()
			e.DivisibleCC = true
			return e
		}},
	})
}

// AblationPackages quantifies how much of EEWA's saving comes from
// package-aligned c-groups by re-running Fig. 6 on a machine with
// per-core voltage planes.
func AblationPackages(seeds []uint64) ([]AblationRow, error) {
	return runAblation(seeds, map[string]variant{
		"coupled":   {machine.Opteron16(), newEEWA},
		"uncoupled": {machine.Uncoupled(machine.Opteron16()), newEEWA},
	})
}

func runAblation(seeds []uint64, variants map[string]variant) ([]AblationRow, error) {
	var rows []AblationRow
	for _, b := range workloads.All() {
		row := AblationRow{Benchmark: b.Name, Energy: map[string]float64{}, Time: map[string]float64{}}
		for name, v := range variants {
			rs, err := runPolicy(v.cfg, b, v.mk, seeds)
			if err != nil {
				return nil, err
			}
			row.Energy[name] = meanEnergy(rs)
			row.Time[name] = meanMakespan(rs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
