// Cluster topology sweep: the paper's policy × benchmark grid lifted
// to cluster scope. A cluster cell simulates N runtime shards fed by a
// routing policy — every task is placed by serve.RankShards, the rule
// internal/serve's router applies to live jobs, over views built from
// the simulated shards — so routing policies are compared cell-for-cell
// exactly like scheduling policies already are. Every
// cell is a deterministic function of its identity fields: the
// workload comes from the raw grid seed (all topologies face the
// byte-identical task stream) and each shard's engine stream is split
// from the cell identity via xrand.Split, so sweeps are byte-identical
// for every worker count.
package sweep

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// Ladder-split identifiers for the topology axis. SplitUniform gives
// every shard the base machine's full ladder; SplitTiered hands shard i
// a ladder with the top i rungs dropped (machine.Tiered), making the
// cluster heterogeneous.
const (
	SplitUniform = "uniform"
	SplitTiered  = "tiered"
)

// LadderSplits returns the canonical ladder-split names.
func LadderSplits() []string { return []string{SplitUniform, SplitTiered} }

// ClusterGrid declares the cluster topology sweep space. Zero-valued
// fields get defaults.
type ClusterGrid struct {
	// Benchmarks are Table II names; empty = all seven.
	Benchmarks []string
	// Policies are the per-shard scheduling policies; empty = {cilk,
	// eewa}.
	Policies []string
	// Shards are the cluster widths to sweep; empty = {1, 2, 4}.
	Shards []int
	// Routings are serve.RoutingPolicies() names; empty = all three.
	Routings []string
	// LadderSplits are LadderSplits() names; empty = {uniform}.
	LadderSplits []string
	// Cores are per-shard machine sizes; empty = {16}.
	Cores []int
	// Seeds are per-cell repetitions; empty = {1, 2, 3}.
	Seeds []uint64
}

func (g ClusterGrid) withDefaults() ClusterGrid {
	if len(g.Benchmarks) == 0 {
		g.Benchmarks = workloads.Names()
	}
	if len(g.Policies) == 0 {
		g.Policies = []string{"cilk", "eewa"}
	}
	if len(g.Shards) == 0 {
		g.Shards = []int{1, 2, 4}
	}
	if len(g.Routings) == 0 {
		g.Routings = serve.RoutingPolicies()
	}
	if len(g.LadderSplits) == 0 {
		g.LadderSplits = []string{SplitUniform}
	}
	if len(g.Cores) == 0 {
		g.Cores = []int{16}
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []uint64{1, 2, 3}
	}
	return g
}

// Validate rejects topology axes the sweep cannot run: non-positive
// shard counts or core counts, and unknown routing or ladder-split
// names. The CLIs call this before spawning workers so a typo is a
// usage error, not a mid-sweep failure.
func (g ClusterGrid) Validate() error {
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
		if !slices.Contains(LadderSplits(), s) {
			return fmt.Errorf("sweep: unknown ladder split %q (want one of %v)", s, LadderSplits())
		}
	}
	return nil
}

// ClusterCell is one (benchmark, policy, topology, seed) cluster
// simulation. Like Cell, every outcome is a deterministic function of
// the identity fields alone; WallNS is host wall time and excluded
// from parity comparisons.
type ClusterCell struct {
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

	WallNS int64 `json:"wall_ns"`
}

// id hashes the cell's topology identity — everything but the seed and
// its position in any particular grid, for the same reason Cell.id
// omits grid shape: adding a routing to the grid must not reseed
// everyone else's cells. Routing and ladder split only enter the hash
// when they can matter (more than one shard); at one shard every
// routing degenerates to the same placement, and hashing the name
// would fork their RNG streams and break the shared 1-shard baseline
// the aggregation normalizes against.
func (c *ClusterCell) id() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		h = (h ^ 0xff) * prime
	}
	mix(c.Benchmark)
	mix(c.Policy)
	if c.Shards > 1 {
		mix(c.Routing)
		mix(c.LadderSplit)
	}
	h = (h ^ uint64(c.Shards)) * prime
	return (h ^ uint64(c.Cores)) * prime
}

// enumerateCluster lists the grid's cells in canonical order:
// benchmark, cores, shards, ladder split, routing, policy, seed.
func enumerateCluster(g ClusterGrid) []ClusterCell {
	var cells []ClusterCell
	for _, bench := range g.Benchmarks {
		for _, cores := range g.Cores {
			for _, shards := range g.Shards {
				for _, split := range g.LadderSplits {
					for _, routing := range g.Routings {
						for _, pol := range g.Policies {
							for _, seed := range g.Seeds {
								cells = append(cells, ClusterCell{
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

// shardMachines builds each shard's machine config for the split.
func shardMachines(split string, shards, cores int) []machine.Config {
	base := machine.Generic(cores)
	mcs := make([]machine.Config, shards)
	for i := range mcs {
		if split == SplitTiered {
			mcs[i] = machine.Tiered(base, i)
		} else {
			mcs[i] = base
		}
	}
	return mcs
}

// splitWorkload routes w's tasks across shards batch by batch through
// serve.RankShards, the live router's rule, taking each task as a job
// of one and handing it to the first candidate (there are no admission
// bounds offline). The views come from the simulated shards: a shard
// knows a class if the class ran in the shard's previous batch (the
// live plan-class set), its headroom is minus the tasks already routed
// to it in this batch, its fastest rung is Freqs[0], and the cell keeps
// one round-robin cursor. Batches are barriers within a shard but not
// across shards. A shard routed no task in a batch skips it and keeps
// its previous batch's classes; a shard routed nothing at all stays
// idle.
func splitWorkload(w *task.Workload, mcs []machine.Config, routing string) []*task.Workload {
	shards := len(mcs)
	known := make([]map[string]bool, shards)
	views := make([]serve.ShardView, shards)
	parts := make([][]task.Batch, shards)
	var rr uint64
	for _, b := range w.Batches {
		assigned := make([][]task.Task, shards)
		for _, t := range b.Tasks {
			for i, mc := range mcs {
				views[i] = serve.ShardView{Index: i, Headroom: -len(assigned[i]), Knows: known[i][t.Class], Fastest: mc.Freqs[0]}
			}
			i := serve.RankShards(routing, views, rr)[0]
			rr++
			assigned[i] = append(assigned[i], t)
		}
		for i, ts := range assigned {
			if len(ts) == 0 {
				continue
			}
			parts[i] = append(parts[i], task.Batch{Tasks: ts})
			known[i] = map[string]bool{}
			for _, t := range ts {
				known[i][t.Class] = true
			}
		}
	}

	out := make([]*task.Workload, shards)
	for i := 0; i < shards; i++ {
		if len(parts[i]) == 0 {
			continue
		}
		out[i] = &task.Workload{
			Name:    fmt.Sprintf("%s/shard%d", w.Name, i),
			Batches: parts[i],
		}
	}
	return out
}

// run executes one cluster cell: split the workload, simulate every
// active shard on its own machine with its own split RNG stream, and
// roll the shard results up.
func (c ClusterCell) run() (ClusterCell, error) {
	b, err := workloads.ByName(c.Benchmark)
	if err != nil {
		return c, err
	}
	mcs := shardMachines(c.LadderSplit, c.Shards, c.Cores)
	// The workload comes from the raw grid seed so every topology in a
	// (benchmark, cores, seed) comparison faces the byte-identical task
	// stream; only the split differs.
	parts := splitWorkload(b.Workload(c.Seed), mcs, c.Routing)

	cellSeed := xrand.Split(c.Seed, c.id())
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
		params := sched.DefaultParams()
		// Same derivation the serve router uses for shard runtimes:
		// shard 0 keeps the cell stream, shard i>0 splits off it.
		params.Seed = cellSeed
		if i > 0 {
			params.Seed = xrand.Split(cellSeed, uint64(i))
		}
		res, err := sched.Run(mcs[i], part, p, params)
		if err != nil {
			return c, fmt.Errorf("sweep: %s/%s %s/%s shard %d/%d seed %d: %w",
				c.Benchmark, c.Policy, c.Routing, c.LadderSplit, i, c.Shards, c.Seed, err)
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

// RunClusterCells executes the grid's cells on a pool of `workers`
// goroutines (0 or less means GOMAXPROCS) through the same
// atomic-cursor pool the flat sweep uses, so the output is
// byte-identical — modulo WallNS — for every worker count. The grid is
// validated first.
func RunClusterCells(g ClusterGrid, workers int) ([]ClusterCell, error) {
	g = g.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return runPool(enumerateCluster(g), workers, ClusterCell.run)
}

// ClusterRecord is one seed-averaged topology row, normalized against
// the same-(benchmark, policy, cores) single-shard cell when the grid
// has one — the scaling question ("what did adding shards buy?") the
// cluster sweep exists to answer.
type ClusterRecord struct {
	Benchmark   string
	Policy      string
	Routing     string
	LadderSplit string
	Shards      int
	Cores       int
	Runs        int

	Makespan    float64
	Energy      float64
	Utilization float64
	Imbalance   float64

	// Normalized against the shards=1 row of the same (benchmark,
	// policy, cores, ladder split); 0 when the grid has no such row.
	NormTime   float64
	NormEnergy float64
}

// AggregateCluster folds per-seed cluster cells into seed-averaged
// records, sorted by (benchmark, cores, shards, ladder split, routing,
// policy).
func AggregateCluster(cells []ClusterCell) []ClusterRecord {
	type key struct {
		bench, pol, routing, split string
		shards, cores              int
	}
	type acc struct {
		rec                           ClusterRecord
		time, energy, util, imbalance float64
	}
	accs := map[key]*acc{}
	var order []key
	for _, c := range cells {
		k := key{c.Benchmark, c.Policy, c.Routing, c.LadderSplit, c.Shards, c.Cores}
		a := accs[k]
		if a == nil {
			a = &acc{rec: ClusterRecord{
				Benchmark: c.Benchmark, Policy: c.Policy, Routing: c.Routing,
				LadderSplit: c.LadderSplit, Shards: c.Shards, Cores: c.Cores,
			}}
			accs[k] = a
			order = append(order, k)
		}
		a.rec.Runs++
		a.time += c.Makespan
		a.energy += c.Energy
		a.util += c.Utilization
		a.imbalance += c.Imbalance
	}
	for _, a := range accs {
		n := float64(a.rec.Runs)
		a.rec.Makespan = a.time / n
		a.rec.Energy = a.energy / n
		a.rec.Utilization = a.util / n
		a.rec.Imbalance = a.imbalance / n
	}
	out := make([]ClusterRecord, 0, len(order))
	for _, k := range order {
		rec := accs[k].rec
		// With one shard every routing degenerates to the same placement;
		// normalize against this topology's own routing row so the
		// baseline always exists when shards=1 is in the grid.
		if base, ok := accs[key{k.bench, k.pol, k.routing, k.split, 1, k.cores}]; ok && base.rec.Makespan > 0 {
			rec.NormTime = rec.Makespan / base.rec.Makespan
			rec.NormEnergy = rec.Energy / base.rec.Energy
		}
		out = append(out, rec)
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

// WriteClusterCSV emits the records with a header row.
func WriteClusterCSV(w io.Writer, records []ClusterRecord) error {
	if _, err := fmt.Fprintln(w, "benchmark,policy,routing,ladder_split,shards,cores,runs,makespan_s,energy_j,utilization,imbalance,norm_time,norm_energy"); err != nil {
		return err
	}
	for _, r := range records {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%d,%d,%d,%.6f,%.2f,%.4f,%.4f,%.4f,%.4f\n",
			r.Benchmark, r.Policy, r.Routing, r.LadderSplit, r.Shards, r.Cores, r.Runs,
			r.Makespan, r.Energy, r.Utilization, r.Imbalance, r.NormTime, r.NormEnergy); err != nil {
			return err
		}
	}
	return nil
}

// WriteClusterTable renders an aligned text table of the records.
func WriteClusterTable(w io.Writer, records []ClusterRecord) error {
	if _, err := fmt.Fprintf(w, "%-8s %-7s %-6s %-8s %6s %6s %12s %12s %8s %8s %8s\n",
		"bench", "policy", "route", "split", "shards", "cores", "time (s)", "energy (J)", "imbal", "norm t", "norm E"); err != nil {
		return err
	}
	for _, r := range records {
		if _, err := fmt.Fprintf(w, "%-8s %-7s %-6s %-8s %6d %6d %12.4f %12.1f %8.3f %8.3f %8.3f\n",
			r.Benchmark, r.Policy, r.Routing, r.LadderSplit, r.Shards, r.Cores,
			r.Makespan, r.Energy, r.Imbalance, r.NormTime, r.NormEnergy); err != nil {
			return err
		}
	}
	return nil
}

// WriteClusterCellsJSON emits the per-cell results as an indented JSON
// array, the machine-readable cluster sweep output.
func WriteClusterCellsJSON(w io.Writer, cells []ClusterCell) error {
	return writeJSONArray(w, cells)
}
