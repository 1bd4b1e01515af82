// Package sweep runs benchmark × policy × machine grids and collects
// tidy records — the generalization of the paper's figures into an
// arbitrary design-space exploration (core counts, seeds, policies,
// benchmarks), with CSV export for external plotting.
//
// The same grid carries the cluster topology axes: shard count ×
// ladder split × routing policy. A cell simulates N runtime shards fed
// by serve.RankShards, the rule internal/serve's router applies to
// live jobs, so routing policies are compared cell for cell exactly
// like scheduling policies are. One shard is the paper's own grid:
// every routing places every task on it, and its cell draws the same
// engine seed whatever the routing or ladder split.
//
// One seed rule: a cell's workload and its engine both take the raw
// grid seed (shard i > 0 a stream split off it by serve.ShardSeed, as
// the live router's shards do). Every policy and topology of a
// (benchmark, cores, seed) therefore faces the same task stream and the
// same victim stream, a paired comparison; every cell is a deterministic
// function of its identity fields, and sweeps are byte-identical for
// every worker count. The paper's Fig. 6 and Fig. 9, the §IV-D
// memory-bound comparison and the search and CC-formula ablations are
// queries on this grid (internal/experiments): an EEWA variant is a
// policy name.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// DefaultSeeds are the seeds runs are averaged over (the paper averages
// 100 hardware runs; three simulator seeds give comparable stability at
// a fraction of the time).
var DefaultSeeds = []uint64{1, 2, 3}

// SeedList returns the seeds 1..n that a CLI's -seeds n averages over.
// n < 1 is an error, not a request for the default.
func SeedList(n int) ([]uint64, error) {
	if n < 1 {
		return nil, fmt.Errorf("seed count must be positive, got %d", n)
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds, nil
}

// Grid declares the sweep space. Zero-valued fields get defaults.
type Grid struct {
	// Benchmarks are workloads.ByName names (Table II or "membound");
	// empty = the seven of Table II.
	Benchmarks []string
	// Policies are per-shard scheduling policies, any name policy.New
	// accepts: "cilk", "cilk-d", "wats", "eewa" or an EEWA variant
	// ("eewa-greedy" …), so the ablations are grid queries; empty
	// defaults to the Fig. 6 trio (cilk, cilk-d, eewa).
	Policies []string
	// Cores are per-shard machine sizes; empty = {16}.
	Cores []int
	// Seeds are per-cell repetitions; empty = DefaultSeeds.
	Seeds []uint64
	// Shards are the cluster widths to sweep; empty = {1}.
	Shards []int
	// Routings are serve.RoutingPolicies() names; empty = {class}.
	Routings []string
	// LadderSplits are machine.SplitLadders names; empty = {uniform}.
	LadderSplits []string
	// Obs, when non-nil, receives every cell's engine metrics.
	Obs *obs.Registry
}

func (g Grid) withDefaults() Grid {
	if len(g.Benchmarks) == 0 {
		g.Benchmarks = workloads.Names()
	}
	if len(g.Policies) == 0 {
		g.Policies = []string{"cilk", "cilk-d", "eewa"}
	}
	if len(g.Cores) == 0 {
		g.Cores = []int{16}
	}
	if len(g.Seeds) == 0 {
		g.Seeds = DefaultSeeds
	}
	if len(g.Shards) == 0 {
		g.Shards = []int{1}
	}
	if len(g.Routings) == 0 {
		g.Routings = []string{serve.RouteClass}
	}
	if len(g.LadderSplits) == 0 {
		g.LadderSplits = []string{machine.SplitUniform}
	}
	return g
}

// Validate rejects axes the sweep cannot run: non-positive shard counts
// or core counts, unknown benchmark, policy, routing or ladder-split
// names, and a value listed twice on one axis (its cells would run
// again and fold into the same record as extra seeds). RunCells calls
// it before any cell runs, and so does the CLI before spawning workers,
// so a typo is a usage error, not a mid-sweep failure.
func (g Grid) Validate() error {
	for _, err := range []error{
		once("benchmark", g.Benchmarks), once("policy", g.Policies), once("cores", g.Cores),
		once("seed", g.Seeds), once("shards", g.Shards), once("routing", g.Routings),
		once("ladder split", g.LadderSplits),
	} {
		if err != nil {
			return err
		}
	}
	for _, b := range g.Benchmarks {
		if _, err := workloads.ByName(b); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, p := range g.Policies {
		if _, err := policy.New(p, machine.Opteron16()); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, n := range g.Shards {
		if n <= 0 {
			return fmt.Errorf("sweep: shard count must be positive, got %d", n)
		}
	}
	for _, n := range g.Cores {
		if n <= 0 {
			return fmt.Errorf("sweep: cores must be positive, got %d", n)
		}
	}
	for _, r := range g.Routings {
		if !slices.Contains(serve.RoutingPolicies(), r) {
			return fmt.Errorf("sweep: unknown routing %q (want one of %v)", r, serve.RoutingPolicies())
		}
	}
	for _, s := range g.LadderSplits {
		if _, err := machine.SplitLadders(s, machine.Config{}, 0); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	return nil
}

// once returns an error naming the first value that xs, the values of
// the named axis, lists twice.
func once[T comparable](axis string, xs []T) error {
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return fmt.Errorf("sweep: %s %v is listed twice", axis, x)
		}
		seen[x] = true
	}
	return nil
}

// Cell is one (benchmark, policy, topology, cores, seed) simulation:
// the unit the parallel driver fans out. Outcomes are deterministic
// functions of the identity fields alone — every RNG a cell consumes
// is derived from Seed, never from shared mutable state — so a sweep's cells are bit-identical no matter how many workers run
// them or in what order they are scheduled. WallNS is the one
// exception: it is host wall time, reported for profiling and excluded
// from parity comparisons.
type Cell struct {
	Benchmark   string `json:"benchmark"`
	Policy      string `json:"policy"`
	Routing     string `json:"routing"`
	LadderSplit string `json:"ladder_split"`
	Shards      int    `json:"shards"`
	Cores       int    `json:"cores"` // per shard
	Seed        uint64 `json:"seed"`

	// Makespan is the slowest shard's execution time: shards run their
	// batch sequences independently (the router imposes no cluster-wide
	// barrier), so the cluster finishes when the last shard does.
	Makespan float64 `json:"makespan_s"`
	// Energy is summed over the shards that received work; a shard
	// routed nothing runs nothing and draws nothing.
	Energy      float64 `json:"energy_j"`
	Utilization float64 `json:"utilization"` // core-second weighted
	Steals      int     `json:"steals"`
	// Imbalance is max/mean shard makespan over active shards (1.0 =
	// perfectly balanced) — the routing quality signal.
	Imbalance float64 `json:"imbalance"`
	// ActiveShards counts shards that received at least one task.
	ActiveShards int `json:"active_shards"`

	ShardMakespans []float64 `json:"shard_makespans_s"`
	ShardEnergies  []float64 `json:"shard_energies_j"`

	// WallNS is the host wall-clock the cell's simulation took, in
	// nanoseconds (not deterministic; zero it before parity diffs).
	WallNS int64 `json:"wall_ns"`
}

// enumerate lists the grid's cells in canonical order: benchmark,
// cores, shards, ladder split, routing, policy, seed.
func enumerate(g Grid) []Cell {
	var cells []Cell
	for _, bench := range g.Benchmarks {
		for _, cores := range g.Cores {
			for _, shards := range g.Shards {
				for _, split := range g.LadderSplits {
					for _, routing := range g.Routings {
						for _, pol := range g.Policies {
							for _, seed := range g.Seeds {
								cells = append(cells, Cell{
									Benchmark: bench, Policy: pol, Routing: routing,
									LadderSplit: split, Shards: shards, Cores: cores, Seed: seed,
								})
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// run executes one cell: split the workload, simulate every active
// shard on its own machine with its own RNG stream, and roll the shard
// results up. reg, when non-nil, receives the engine metrics.
func (c Cell) run(reg *obs.Registry) (Cell, error) {
	b, err := workloads.ByName(c.Benchmark)
	if err != nil {
		return c, err
	}
	mcs, err := machine.SplitLadders(c.LadderSplit, machine.Generic(c.Cores), c.Shards)
	if err != nil {
		return c, err
	}
	parts := splitWorkload(b.Workload(c.Seed), mcs, c.Routing)

	c.ShardMakespans = make([]float64, c.Shards)
	c.ShardEnergies = make([]float64, c.Shards)
	var busy, denom float64
	start := time.Now()
	for i, part := range parts {
		if part == nil {
			continue
		}
		p, err := policy.New(c.Policy, mcs[i])
		if err != nil {
			return c, err
		}
		res, err := sched.Run(mcs[i], part, p, sched.Params{Seed: serve.ShardSeed(c.Seed, i), Obs: reg})
		if err != nil {
			return c, fmt.Errorf("sweep: %s/%s %s/%s shard %d/%d cores %d seed %d: %w",
				c.Benchmark, c.Policy, c.Routing, c.LadderSplit, i, c.Shards, c.Cores, c.Seed, err)
		}
		c.ActiveShards++
		c.ShardMakespans[i] = res.Makespan
		c.ShardEnergies[i] = res.Energy
		if res.Makespan > c.Makespan {
			c.Makespan = res.Makespan
		}
		c.Energy += res.Energy
		c.Steals += res.Steals
		busy += res.BusyTime
		denom += res.BusyTime + res.SpinTime + res.HaltTime
	}
	c.WallNS = time.Since(start).Nanoseconds()
	if denom > 0 {
		c.Utilization = busy / denom
	}
	if c.ActiveShards > 0 {
		mean := 0.0
		for _, m := range c.ShardMakespans {
			mean += m
		}
		mean /= float64(c.ActiveShards)
		if mean > 0 {
			c.Imbalance = c.Makespan / mean
		}
	}
	return c, nil
}

// runPool executes run over items on a pool of `workers` goroutines
// (0 or less means GOMAXPROCS) and returns results in input order.
// Each worker claims the next unstarted item off a shared atomic
// cursor and writes its result into the item's own slot, so the merge
// is a no-op and the output is identical for every worker count,
// including 1. On error the first failing item in input order wins
// (also independent of scheduling).
func runPool[T any](items []T, workers int, run func(T) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([]T, len(items))
	errs := make([]error, len(items))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(items) {
					return
				}
				results[i], errs[i] = run(items[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RunCells validates the grid, executes its cells on a pool of
// `workers` goroutines (0 or less means GOMAXPROCS) and returns them
// in canonical enumeration order, bit-identical — modulo WallNS — for
// every worker count.
func RunCells(g Grid, workers int) ([]Cell, error) {
	g = g.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return runPool(enumerate(g), workers, func(c Cell) (Cell, error) { return c.run(g.Obs) })
}

// Record is one seed-averaged row of the sweep.
type Record struct {
	Benchmark   string
	Policy      string
	Routing     string
	LadderSplit string
	Shards      int
	Cores       int
	Runs        int

	// Seed-averaged outcomes.
	Makespan    float64
	MakespanCI  float64 // 95 % half-width
	Energy      float64
	EnergyCI    float64
	Utilization float64
	Steals      float64
	Imbalance   float64

	// Normalized against the one-shard cilk record of the same
	// (benchmark, cores, ladder split, routing) — 1.0 for that record,
	// 0 when the grid has none.
	NormTime   float64
	NormEnergy float64
}

// Aggregate folds per-seed cells into seed-averaged records,
// normalized against the one-shard cilk record (see Record), and
// sorted by (benchmark, cores, shards, ladder split, routing, policy).
// Aggregation order follows the cells' order, so canonical cell input
// yields canonical records.
func Aggregate(cells []Cell) []Record {
	type key struct {
		bench, pol, routing, split string
		shards, cores              int
	}
	type samples struct{ times, energies, utils, steals, imbalances []float64 }
	groups := map[key]*Record{}
	acc := map[key]*samples{}
	for _, c := range cells {
		k := key{c.Benchmark, c.Policy, c.Routing, c.LadderSplit, c.Shards, c.Cores}
		s := acc[k]
		if s == nil {
			s = &samples{}
			acc[k] = s
			groups[k] = &Record{
				Benchmark: c.Benchmark, Policy: c.Policy, Routing: c.Routing,
				LadderSplit: c.LadderSplit, Shards: c.Shards, Cores: c.Cores,
			}
		}
		s.times = append(s.times, c.Makespan)
		s.energies = append(s.energies, c.Energy)
		s.utils = append(s.utils, c.Utilization)
		s.steals = append(s.steals, float64(c.Steals))
		s.imbalances = append(s.imbalances, c.Imbalance)
	}
	for k, rec := range groups {
		s := acc[k]
		rec.Runs = len(s.times)
		rec.Makespan = stats.Mean(s.times)
		rec.MakespanCI = stats.CI95(s.times)
		rec.Energy = stats.Mean(s.energies)
		rec.EnergyCI = stats.CI95(s.energies)
		rec.Utilization = stats.Mean(s.utils)
		rec.Steals = stats.Mean(s.steals)
		rec.Imbalance = stats.Mean(s.imbalances)
	}

	out := make([]Record, 0, len(groups))
	for k, rec := range groups {
		base, ok := groups[key{k.bench, "cilk", k.routing, k.split, 1, k.cores}]
		if ok && base.Makespan > 0 {
			rec.NormTime = rec.Makespan / base.Makespan
			rec.NormEnergy = rec.Energy / base.Energy
		}
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Cores != b.Cores {
			return a.Cores < b.Cores
		}
		if a.Shards != b.Shards {
			return a.Shards < b.Shards
		}
		if a.LadderSplit != b.LadderSplit {
			return a.LadderSplit < b.LadderSplit
		}
		if a.Routing != b.Routing {
			return a.Routing < b.Routing
		}
		return a.Policy < b.Policy
	})
	return out
}

// WriteCellsJSON emits the per-cell results as an indented JSON array —
// the machine-readable sweep output, including each cell's host wall
// time for profiling the parallel driver.
func WriteCellsJSON(w io.Writer, cells []Cell) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cells)
}

// WriteCSV emits the records with a header row.
func WriteCSV(w io.Writer, records []Record) error {
	if _, err := fmt.Fprintln(w, "benchmark,policy,routing,ladder_split,shards,cores,runs,makespan_s,makespan_ci95,energy_j,energy_ci95,utilization,steals,imbalance,norm_time,norm_energy"); err != nil {
		return err
	}
	for _, r := range records {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%d,%d,%d,%.6f,%.6f,%.2f,%.2f,%.4f,%.1f,%.4f,%.4f,%.4f\n",
			r.Benchmark, r.Policy, r.Routing, r.LadderSplit, r.Shards, r.Cores, r.Runs,
			r.Makespan, r.MakespanCI, r.Energy, r.EnergyCI,
			r.Utilization, r.Steals, r.Imbalance, r.NormTime, r.NormEnergy); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable renders an aligned text table of the records. The policy
// column is as wide as its longest name, at least 7.
func WriteTable(w io.Writer, records []Record) error {
	pw := 7
	for _, r := range records {
		pw = max(pw, len(r.Policy))
	}
	if _, err := fmt.Fprintf(w, "%-8s %-*s %-6s %-8s %6s %6s %12s %12s %8s %8s %8s %8s\n",
		"bench", pw, "policy", "route", "split", "shards", "cores", "time (s)", "energy (J)", "util", "imbal", "norm t", "norm E"); err != nil {
		return err
	}
	for _, r := range records {
		if _, err := fmt.Fprintf(w, "%-8s %-*s %-6s %-8s %6d %6d %12.4f %12.1f %8.2f %8.3f %8.3f %8.3f\n",
			r.Benchmark, pw, r.Policy, r.Routing, r.LadderSplit, r.Shards, r.Cores,
			r.Makespan, r.Energy, r.Utilization, r.Imbalance, r.NormTime, r.NormEnergy); err != nil {
			return err
		}
	}
	return nil
}
