// Package experiments contains one driver per table and figure of the
// paper's evaluation (§IV), plus the ablations called out in DESIGN.md.
// Each driver returns a typed result; Experiments renders them for
// cmd/eewa-bench, and the drivers themselves never print. Fig. 6, Fig. 9, the memory-bound comparison and the search and
// CC-formula ablations are queries on the internal/sweep grid — an EEWA
// variant is a policy name (policy.New) — and return its records; every
// driver runs the engine on the workload's seed, the grid's seed rule.
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
//	MemBound — §IV-D fallback vs the frequency-response extension
//	Ablation* — tuple search, CC formula, package voltage coupling
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

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

// Experiment is one `eewa-bench -exp` value: its name and the text its
// drivers render over a seed set (plot appends the ASCII charts of
// Fig. 6 and Fig. 9; single-seed experiments take the first seed).
type Experiment struct {
	Name   string
	Output func(seeds []uint64, plot bool) (string, error)
}

// Experiments lists every experiment, in the order `eewa-bench -exp
// all` prints them.
var Experiments = []Experiment{
	{"fig1", func([]uint64, bool) (string, error) { return RenderFig1(Fig1(1.0)), nil }},
	{"fig6", func(seeds []uint64, plot bool) (string, error) {
		recs, err := Fig6(seeds)
		return figure(recs, plot, RenderFig6, RenderFig6Chart), err
	}},
	{"fig7", func(seeds []uint64, _ bool) (string, error) {
		rows, err := Fig7(machine.Opteron16(), seeds)
		return RenderFig7(rows), err
	}},
	{"fig8", func(seeds []uint64, _ bool) (string, error) {
		res, err := Fig8(machine.Opteron16(), seeds[0])
		if err != nil {
			return "", err
		}
		return RenderFig8(res), nil
	}},
	{"fig9", func(seeds []uint64, plot bool) (string, error) {
		recs, err := Fig9(seeds)
		return figure(recs, plot, RenderFig9, RenderFig9Chart), err
	}},
	{"membound", func(seeds []uint64, _ bool) (string, error) {
		recs, err := MemBound(seeds)
		return RenderMemBound(recs), err
	}},
	{"table3", func(seeds []uint64, _ bool) (string, error) {
		rows, err := Table3(machine.Opteron16(), seeds[0])
		return RenderTable3(rows), err
	}},
	{"ablation", func(seeds []uint64, _ bool) (string, error) {
		var b strings.Builder
		for i, a := range []struct {
			title   string
			run     func([]uint64) ([]sweep.Record, error)
			columns []string
		}{
			{"Ablation — tuple search algorithm (EEWA variants)", AblationSearch, []string{"backtracking", "exhaustive", "greedy"}},
			{"Ablation — CC-table formula (granularity-aware vs paper's divisible-load)", AblationGranularity, []string{"granular", "divisible"}},
			{"Ablation — package voltage coupling (EEWA on coupled vs per-core planes)", AblationPackages, []string{"coupled", "uncoupled"}},
		} {
			recs, err := a.run(seeds)
			if err != nil {
				return "", err
			}
			if i > 0 {
				b.WriteString("\n")
			}
			b.WriteString(RenderAblation(a.title, recs, a.columns))
		}
		return b.String(), nil
	}},
}

// figure renders a figure's records as its table, followed by its
// chart when plot is set.
func figure(recs []sweep.Record, plot bool, table, chart func([]sweep.Record) string) string {
	if plot {
		return table(recs) + "\n" + chart(recs)
	}
	return table(recs)
}

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

// MemBound runs the synthetic memory-bound workload under Cilk, EEWA
// with the paper's §IV-D fallback (detect and revert to classic
// stealing) and EEWA with the future-work extension (calibrate + fit
// each class's frequency response), on 16 cores: one record per policy,
// normalized against Cilk. Expected shape: the fallback saves only what
// idle down-clocking yields; the extension finds a model-corrected
// configuration and saves substantially more at unchanged makespan.
func MemBound(seeds []uint64) ([]sweep.Record, error) {
	return query(sweep.Grid{Benchmarks: []string{"membound"}, Policies: []string{"cilk", "eewa", "eewa-memaware"}, Seeds: seeds})
}

// --- Ablations (DESIGN.md §5) -------------------------------------------

// AblationSearch compares Algorithm 1 against the exhaustive optimum
// and the greedy heuristic as EEWA's tuple search on 16 cores: one
// record per (benchmark, variant), variants in that order.
func AblationSearch(seeds []uint64) ([]sweep.Record, error) {
	return query(sweep.Grid{Policies: []string{"eewa", "eewa-exhaustive", "eewa-greedy"}, Seeds: seeds})
}

// AblationGranularity compares the granularity-aware CC table (our
// default) against the paper's divisible-load formula on 16 cores: one
// record per (benchmark, variant), granular first.
func AblationGranularity(seeds []uint64) ([]sweep.Record, error) {
	return query(sweep.Grid{Policies: []string{"eewa", "eewa-divisible"}, Seeds: seeds})
}

// AblationPackages quantifies how much of EEWA's saving comes from
// package-aligned c-groups by re-running EEWA on a machine with
// per-core voltage planes. The machine is not a grid axis, so it runs
// the benchmarks itself: one seed-averaged eewa record per (benchmark,
// machine), the coupled Opteron first, in benchmark order.
func AblationPackages(seeds []uint64) ([]sweep.Record, error) {
	var recs []sweep.Record
	for _, b := range workloads.All() {
		for _, cfg := range []machine.Config{machine.Opteron16(), machine.Uncoupled(machine.Opteron16())} {
			rs, err := runPolicy(cfg, b, func() policy.Policy { return policy.NewEEWA() }, seeds)
			if err != nil {
				return nil, err
			}
			recs = append(recs, sweep.Record{Benchmark: b.Name, Policy: policy.IDEEWA, Shards: 1, Cores: cfg.Cores,
				Runs: len(rs), Makespan: meanMakespan(rs), Energy: meanEnergy(rs)})
		}
	}
	return recs, nil
}
